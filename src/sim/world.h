// World: owns the vehicle models and advances ground truth.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sim/dynamics.h"
#include "sim/mission.h"
#include "sim/point_mass.h"
#include "sim/types.h"

namespace swarmfuzz::sim {

class World {
 public:
  // Builds one vehicle per drone in `mission` at its initial position, at
  // rest, and time 0.
  World(const MissionSpec& mission, VehicleType vehicle_type,
        const PointMassParams& point_mass = {}, const QuadrotorParams& quadrotor = {});

  [[nodiscard]] int num_drones() const noexcept {
    return static_cast<int>(states_.size());
  }
  [[nodiscard]] double time() const noexcept { return time_; }

  // Ground-truth state of one drone / all drones. states() returns a
  // reference to an internal buffer refreshed by step(): the reference
  // stays valid (and current) across steps, so per-step callers need no
  // copy. Callers that want a stable pre-step snapshot must copy.
  [[nodiscard]] DroneState state(int drone) const;
  [[nodiscard]] const std::vector<DroneState>& states() const noexcept {
    return states_;
  }

  // Advances every vehicle by dt tracking its desired velocity.
  // `desired.size()` must equal num_drones().
  void step(std::span<const Vec3> desired, double dt);

  // Captures every vehicle's internal state plus the sim clock into `out`
  // (resized to num_drones()), and the inverse. `time` must be the exact
  // accumulated clock of the run being restored: step() keeps adding dt to
  // it, so restoring the recorded double continues the same float
  // accumulation bit-identically.
  void save(std::vector<VehicleCheckpoint>& out) const;
  void restore(std::span<const VehicleCheckpoint> vehicles, double time);

 private:
  [[nodiscard]] VehicleModel& vehicle(size_t i) {
    if (point_masses_.empty()) return *vehicles_[i];
    return point_masses_[i];
  }
  [[nodiscard]] const VehicleModel& vehicle(size_t i) const {
    if (point_masses_.empty()) return *vehicles_[i];
    return point_masses_[i];
  }

  // Point-mass swarms (the fuzzing default) are held by value and stepped
  // through the inline, non-virtual PointMassModel::step; every other
  // vehicle type goes through `vehicles_`. At most one of the two is
  // non-empty.
  std::vector<PointMassModel> point_masses_;
  std::vector<std::unique_ptr<VehicleModel>> vehicles_;
  std::vector<DroneState> states_;  // cache of vehicle(i).state()
  double time_ = 0.0;
};

}  // namespace swarmfuzz::sim
