// FlockingControlSystem: the concrete sim::ControlSystem used everywhere.
//
// Composes a (memoryless) SwarmController with a CommModel: per control tick
// it builds each drone's perceived snapshot from the shared broadcast and
// asks the controller for a desired velocity.
//
// It also exposes probe_desired_velocity(), the pure counterfactual
// evaluation used by SVG construction (perfect communication assumed, no
// packet-loss randomness), so fuzzing probes never disturb mission state.
#pragma once

#include <memory>
#include <vector>

#include "sim/control.h"
#include "swarm/comm.h"
#include "swarm/controller.h"

namespace swarmfuzz::swarm {

class FlockingControlSystem final : public sim::ControlSystem {
 public:
  // `controller` must not be null.
  FlockingControlSystem(std::shared_ptr<const SwarmController> controller,
                        const CommConfig& comm = {});

  void reset(const sim::MissionSpec& mission, std::uint64_t seed) override;
  void compute(const sim::WorldSnapshot& snapshot, const sim::MissionSpec& mission,
               std::span<Vec3> desired) override;

  // Borrowed per-run tick pool: compute() hands it to the controller batch
  // path under trivial comm; range-limited comm filters serially. Results
  // stay bit-identical for any pool size.
  void set_tick_pool(util::WorkerPool* pool) override;

  // Checkpoint hooks: the only mutable per-mission state is the comm
  // packet-loss RNG, saved as its four xoshiro256++ words.
  void save_state(std::vector<std::uint64_t>& out) const override;
  void restore_state(std::span<const std::uint64_t> state) override;

  [[nodiscard]] const SwarmController& controller() const noexcept {
    return *controller_;
  }

  // Counterfactual probe: desired velocity of `drone_id` given the full
  // broadcast `snapshot`, with perfect communication. const and
  // deterministic - does not touch the packet-loss stream. Resolves the id
  // in O(1) for the canonical layout (drone i at index i, as the simulator
  // broadcasts); callers that already hold the index should prefer
  // probe_desired_velocity_at and skip resolution entirely.
  [[nodiscard]] Vec3 probe_desired_velocity(int drone_id,
                                            const sim::WorldSnapshot& snapshot,
                                            const sim::MissionSpec& mission) const;

  // Index-based probe: same counterfactual for the drone at broadcast slot
  // `self_index`, with no id lookup. The per-snapshot batch probes of SVG
  // construction use this.
  [[nodiscard]] Vec3 probe_desired_velocity_at(int self_index,
                                               const sim::WorldSnapshot& snapshot,
                                               const sim::MissionSpec& mission) const;

 private:
  std::shared_ptr<const SwarmController> controller_;
  CommModel comm_;
  std::vector<int> members_;  // filter_into scratch, reused across ticks
  SpatialGrid comm_grid_;     // per-tick range-culling grid, buffers reused
  util::WorkerPool* tick_pool_ = nullptr;  // borrowed, bound per run
  TickContext tick_context_;            // one scratch lane per pool thread
};

// Convenience factory for the common case.
[[nodiscard]] std::unique_ptr<FlockingControlSystem> make_vasarhelyi_system(
    const CommConfig& comm = {});

}  // namespace swarmfuzz::swarm
