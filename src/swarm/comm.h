// Inter-drone communication model.
//
// Swarm members exchange physical states by broadcast (paper Fig. 1 step 2).
// The model optionally limits the radio range and drops packets i.i.d.;
// the defaults (infinite range, no loss) match the paper's evaluation.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "math/rng.h"
#include "sim/types.h"
#include "swarm/spatial_grid.h"

namespace swarmfuzz::swarm {

struct CommConfig {
  double range = std::numeric_limits<double>::infinity();  // m
  double drop_probability = 0.0;  // per-link, per-tick
};

// A drone's perceived picture of the swarm: a non-owning index view over the
// shared broadcast snapshot's SoA arrays. Two flavours share one type:
//   - whole-broadcast view: every drone visible, self at `self_index`
//     (counterfactual probes, tests);
//   - filtered view: `members` lists the visible drones as indices into
//     the broadcast arrays, in broadcast order with the receiver first
//     (the hot path; see CommModel::filter_into).
// The view borrows both the snapshot and the member-index buffer: neither
// may be mutated or destroyed while the view is alive. Controllers consume
// the view within one call, so in practice lifetimes are a single control
// tick.
class NeighborView {
 public:
  // Whole-broadcast view over `broadcast` with self at `self_index`
  // (caller must guarantee 0 <= self_index < broadcast.size()).
  NeighborView(const sim::WorldSnapshot& broadcast, int self_index) noexcept
      : broadcast_(&broadcast),
        members_(nullptr),
        count_(broadcast.size()),
        self_index_(self_index) {}

  // Filtered view: position k maps to broadcast slot members[k]; self is
  // at view position `self_index`. `members` must stay alive with the view.
  NeighborView(const sim::WorldSnapshot& broadcast, std::span<const int> members,
               int self_index) noexcept
      : broadcast_(&broadcast),
        members_(members.data()),
        count_(static_cast<int>(members.size())),
        self_index_(self_index) {}

  [[nodiscard]] double time() const noexcept { return broadcast_->time; }
  [[nodiscard]] int size() const noexcept { return count_; }
  [[nodiscard]] int self_index() const noexcept { return self_index_; }

  // Broadcast slot of view position k (identity for whole-broadcast views).
  [[nodiscard]] int slot(int k) const noexcept {
    return members_ ? members_[k] : k;
  }

  [[nodiscard]] int id(int k) const noexcept {
    return broadcast_->id[static_cast<size_t>(slot(k))];
  }
  [[nodiscard]] const math::Vec3& position(int k) const noexcept {
    return broadcast_->gps_position[static_cast<size_t>(slot(k))];
  }
  [[nodiscard]] const math::Vec3& velocity(int k) const noexcept {
    return broadcast_->velocity[static_cast<size_t>(slot(k))];
  }

  [[nodiscard]] int self_id() const noexcept { return id(self_index_); }
  [[nodiscard]] const math::Vec3& self_position() const noexcept {
    return position(self_index_);
  }
  [[nodiscard]] const math::Vec3& self_velocity() const noexcept {
    return velocity(self_index_);
  }

  // AoS adapters for tests and cold paths.
  [[nodiscard]] sim::DroneObservation observation(int k) const {
    return broadcast_->observation(slot(k));
  }
  [[nodiscard]] sim::DroneObservation self() const {
    return observation(self_index_);
  }

 private:
  const sim::WorldSnapshot* broadcast_;
  const int* members_;  // nullptr = identity mapping (whole broadcast)
  int count_;
  int self_index_;  // position within the view, not within the broadcast
};

class CommModel {
 public:
  explicit CommModel(const CommConfig& config = {});

  // Re-seeds the packet-loss stream for a new mission.
  void reset(std::uint64_t seed);

  // Builds receiver `self_id`'s view of the broadcast: the drone itself plus
  // every neighbour whose packet arrived (within range, not dropped). The
  // drone's own entry is always present and is first in the result.
  [[nodiscard]] sim::WorldSnapshot filter(const sim::WorldSnapshot& broadcast,
                                          int self_id);

  // Allocation-free equivalent of filter(): writes the broadcast slots of
  // the visible drones into the caller-owned scratch `members` — self
  // first, then surviving neighbours in broadcast order — and returns a
  // view with self at position 0. Consumes packet-loss randomness in
  // exactly the same order as filter(), so the two are interchangeable
  // mid-stream. `members` is clear()ed and refilled; its capacity is
  // reused across calls, so steady state performs no heap allocation.
  //
  // `grid`, when non-null and valid, must be built over
  // `broadcast.gps_position`; it culls the candidate scan to the cells
  // within the comm range. The grid returns a conservative superset in
  // broadcast order and every candidate still gets the exact range test,
  // so the member set AND the packet-loss draw sequence are bit-identical
  // to the unculled scan (out-of-range drones never consumed a draw).
  [[nodiscard]] NeighborView filter_into(const sim::WorldSnapshot& broadcast,
                                         int self_id, std::vector<int>& members,
                                         const SpatialGrid* grid = nullptr);

  [[nodiscard]] const CommConfig& config() const noexcept { return config_; }

  // Packet-loss RNG snapshot/restore, for simulation checkpoints: restoring
  // a state captured mid-mission makes subsequent filter()/filter_into()
  // calls consume the exact same bernoulli draws as the original run.
  [[nodiscard]] const math::Rng::State& rng_state() const noexcept {
    return rng_.state();
  }
  void set_rng_state(const math::Rng::State& state) noexcept {
    rng_.set_state(state);
  }

 private:
  CommConfig config_;
  math::Rng rng_;
  std::vector<int> gather_scratch_;  // grid candidate buffer, reused per call
};

}  // namespace swarmfuzz::swarm
