// Swarm-controller concept: a memoryless flocking law.
//
// A controller maps the *perceived* states of the drones a member can hear
// (GPS positions - possibly spoofed - plus velocity estimates) to that
// member's desired velocity. Statelessness is what lets SwarmFuzz probe
// counterfactuals cheaply: the SVG construction (section IV-B) evaluates
// "what would drone i do if drone j's position were spoofed right now?"
// without re-running the mission.
#pragma once

#include <limits>
#include <span>
#include <stdexcept>
#include <string_view>

#include "sim/mission.h"
#include "sim/types.h"
#include "swarm/comm.h"
#include "swarm/tick_context.h"

namespace swarmfuzz::swarm {

using sim::MissionSpec;
using sim::Vec3;
using sim::WorldSnapshot;

class SwarmController {
 public:
  virtual ~SwarmController() = default;

  // Desired velocity for the view's own drone. The view contains the drone
  // itself plus every neighbour it can hear (communication filtering
  // happens in FlockingControlSystem); it borrows the broadcast snapshot,
  // so implementations must not retain it past the call. This is the hot
  // path: implementations must not allocate in steady state.
  [[nodiscard]] virtual Vec3 desired_velocity(const NeighborView& view,
                                              const MissionSpec& mission) const = 0;

  // Snapshot adapter, equivalent to a whole-broadcast view with self at
  // `self_index`. Kept for tests and counterfactual probes; derived classes
  // re-export it with `using SwarmController::desired_velocity;`.
  [[nodiscard]] Vec3 desired_velocity(int self_index, const WorldSnapshot& snapshot,
                                      const MissionSpec& mission) const {
    if (self_index < 0 || self_index >= snapshot.size()) {
      throw std::out_of_range("SwarmController: self_index out of range");
    }
    return desired_velocity(NeighborView(snapshot, self_index), mission);
  }

  // Batch evaluation over the whole broadcast under *trivial* communication
  // (every drone hears every other: infinite range, no packet loss — the
  // paper's evaluation default). Fills desired[i] for broadcast slot i;
  // `desired.size()` must equal `snapshot.size()`. Semantically identical
  // to one whole-broadcast desired_velocity call per drone; controllers may
  // override it with a bit-identical faster equivalent (VasarhelyiController
  // computes each symmetric pair once and the pair kernels use the spatial
  // grid for large swarms).
  void desired_velocity_all(const WorldSnapshot& snapshot,
                            const MissionSpec& mission,
                            std::span<Vec3> desired) const {
    desired_velocity_all(snapshot, mission, desired, TickExecutor{});
  }

  // Executor-aware batch entry point. A parallel `exec` invites the
  // controller to chunk the per-drone loop over the tick pool; results must
  // stay bit-identical for any pool size (static contiguous chunking keeps
  // each drone's accumulation order unchanged — DESIGN.md §15). The default
  // stays serial: it cannot assume an arbitrary controller's
  // desired_velocity is safe to call concurrently, so only overrides that
  // guarantee it opt in (in-tree, the Vásárhelyi grid path).
  virtual void desired_velocity_all(const WorldSnapshot& snapshot,
                                    const MissionSpec& mission,
                                    std::span<Vec3> desired,
                                    const TickExecutor& exec) const {
    (void)exec;
    for (int i = 0; i < snapshot.size(); ++i) {
      desired[static_cast<size_t>(i)] =
          desired_velocity(NeighborView(snapshot, i), mission);
    }
  }

  // Radius of influence for counterfactual spoof probes: if drone j's
  // broadcast position (original AND spoofed) is farther than this from
  // drone i's position, moving j cannot change i's desired velocity, so the
  // SVG construction may skip the probe (svg.cpp culls with this through
  // the spatial grid). Controllers with a hard interaction cutoff override
  // it; infinity (the default) disables culling. `snapshot` lets the
  // controller bound state-dependent terms (e.g. velocity-dependent
  // friction slack, topological attraction distance).
  [[nodiscard]] virtual double probe_influence_radius(
      const WorldSnapshot& snapshot, const MissionSpec& mission) const {
    (void)snapshot;
    (void)mission;
    return std::numeric_limits<double>::infinity();
  }

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

}  // namespace swarmfuzz::swarm
