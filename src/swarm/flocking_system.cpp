#include "swarm/flocking_system.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "swarm/vasarhelyi.h"

namespace swarmfuzz::swarm {

FlockingControlSystem::FlockingControlSystem(
    std::shared_ptr<const SwarmController> controller, const CommConfig& comm)
    : controller_(std::move(controller)), comm_(comm) {
  if (controller_ == nullptr) {
    throw std::invalid_argument("FlockingControlSystem: null controller");
  }
}

void FlockingControlSystem::reset(const sim::MissionSpec& /*mission*/,
                                  std::uint64_t seed) {
  comm_.reset(seed);
}

void FlockingControlSystem::set_tick_pool(util::WorkerPool* pool) {
  tick_pool_ = pool;
  // Lanes only grow: unbinding at the end of a run keeps them, and with
  // them the neighbour lists, for the next run on the same pool width.
  if (pool != nullptr && pool->threads() > tick_context_.lanes()) {
    tick_context_.resize_lanes(pool->threads());
  }
}

void FlockingControlSystem::save_state(std::vector<std::uint64_t>& out) const {
  const math::Rng::State& rng = comm_.rng_state();
  out.assign(rng.begin(), rng.end());
}

void FlockingControlSystem::restore_state(std::span<const std::uint64_t> state) {
  math::Rng::State rng{};
  if (state.size() != rng.size()) {
    throw std::invalid_argument(
        "FlockingControlSystem: bad checkpoint state size");
  }
  std::copy(state.begin(), state.end(), rng.begin());
  comm_.set_rng_state(rng);
}

void FlockingControlSystem::compute(const sim::WorldSnapshot& snapshot,
                                    const sim::MissionSpec& mission,
                                    std::span<Vec3> desired) {
  const int n = snapshot.size();
  if (static_cast<int>(desired.size()) != n) {
    throw std::invalid_argument("FlockingControlSystem: desired size mismatch");
  }
  // Trivial communication (the paper's evaluation default): every view is
  // the whole broadcast and the zero drop probability consumes no packet-
  // loss randomness, so dispatching to the controller's batch entry point
  // is observationally identical to the per-drone loop below — including
  // the RNG stream — while letting the controller share work across drones.
  if (std::isinf(comm_.config().range) && comm_.config().drop_probability == 0.0) {
    controller_->desired_velocity_all(snapshot, mission, desired,
                                      TickExecutor{tick_pool_, &tick_context_});
    return;
  }
  // Range-limited communication: one spatial grid for the whole tick culls
  // every receiver's candidate scan (filter_into re-applies the exact range
  // test and consumes the same packet-loss draws, so views and the RNG
  // stream are bit-identical to the unculled scan). The grid member reuses
  // its buffers, so the rebuild is allocation-free in steady state.
  const SpatialGrid* grid = nullptr;
  if (spatial_grid_wanted(n) && std::isfinite(comm_.config().range)) {
    comm_grid_.build(std::span<const Vec3>(snapshot.gps_position),
                     std::max(comm_.config().range, 1e-3));
    if (comm_grid_.valid()) grid = &comm_grid_;
  }
  for (int i = 0; i < n; ++i) {
    const int id = snapshot.id[static_cast<size_t>(i)];
    // filter_into() puts the receiving drone first in its own view; the
    // member-index scratch is reused, so this loop is allocation-free in
    // steady state.
    const NeighborView view = comm_.filter_into(snapshot, id, members_, grid);
    desired[static_cast<size_t>(i)] = controller_->desired_velocity(view, mission);
  }
}

Vec3 FlockingControlSystem::probe_desired_velocity(
    int drone_id, const sim::WorldSnapshot& snapshot,
    const sim::MissionSpec& mission) const {
  // Canonical broadcast layout: drone with id i sits at index i. Hit it
  // without scanning; fall back to a scan for synthetic snapshots.
  const int n = snapshot.size();
  if (drone_id >= 0 && drone_id < n &&
      snapshot.id[static_cast<size_t>(drone_id)] == drone_id) {
    return probe_desired_velocity_at(drone_id, snapshot, mission);
  }
  for (int i = 0; i < n; ++i) {
    if (snapshot.id[static_cast<size_t>(i)] == drone_id) {
      return probe_desired_velocity_at(i, snapshot, mission);
    }
  }
  throw std::invalid_argument("FlockingControlSystem: unknown drone id in probe");
}

Vec3 FlockingControlSystem::probe_desired_velocity_at(
    int self_index, const sim::WorldSnapshot& snapshot,
    const sim::MissionSpec& mission) const {
  if (self_index < 0 || self_index >= snapshot.size()) {
    throw std::out_of_range("FlockingControlSystem: probe index out of range");
  }
  return controller_->desired_velocity(NeighborView(snapshot, self_index), mission);
}

std::unique_ptr<FlockingControlSystem> make_vasarhelyi_system(const CommConfig& comm) {
  return std::make_unique<FlockingControlSystem>(
      std::make_shared<VasarhelyiController>(), comm);
}

}  // namespace swarmfuzz::swarm
