#include "sim/world.h"

#include <stdexcept>

namespace swarmfuzz::sim {

World::World(const MissionSpec& mission, VehicleType vehicle_type,
             const PointMassParams& point_mass, const QuadrotorParams& quadrotor) {
  const size_t n = mission.initial_positions.size();
  states_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (vehicle_type == VehicleType::kPointMass) {
      point_masses_.emplace_back(point_mass);
    } else {
      vehicles_.push_back(make_vehicle(vehicle_type, point_mass, quadrotor));
    }
    vehicle(i).reset(mission.initial_positions[i], Vec3{});
    states_.push_back(vehicle(i).state());
  }
}

DroneState World::state(int drone) const {
  if (drone < 0 || drone >= num_drones()) {
    throw std::out_of_range("World: drone id out of range");
  }
  return states_[static_cast<size_t>(drone)];
}

void World::save(std::vector<VehicleCheckpoint>& out) const {
  out.resize(states_.size());
  for (size_t i = 0; i < states_.size(); ++i) vehicle(i).save(out[i]);
}

void World::restore(std::span<const VehicleCheckpoint> vehicles, double time) {
  if (vehicles.size() != states_.size()) {
    throw std::invalid_argument("World::restore: vehicle count mismatch");
  }
  for (size_t i = 0; i < states_.size(); ++i) {
    vehicle(i).restore(vehicles[i]);
    states_[i] = vehicle(i).state();
  }
  time_ = time;
}

void World::step(std::span<const Vec3> desired, double dt) {
  if (static_cast<int>(desired.size()) != num_drones()) {
    throw std::invalid_argument("World::step: desired size mismatch");
  }
  for (size_t i = 0; i < point_masses_.size(); ++i) {
    point_masses_[i].step(desired[i], dt);
    states_[i] = point_masses_[i].state();
  }
  for (size_t i = 0; i < vehicles_.size(); ++i) {
    vehicles_[i]->step(desired[i], dt);
    states_[i] = vehicles_[i]->state();
  }
  time_ += dt;
}

}  // namespace swarmfuzz::sim
