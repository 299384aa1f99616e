// Reynolds' classic boids rules (separation / alignment / cohesion), plus a
// migration urge and obstacle-avoidance steering. Included as a third swarm
// controller: historically the baseline flocking model, and a further
// demonstration that SwarmFuzz needs nothing beyond the SwarmController
// interface (paper section VI, limitation 1).
#pragma once

#include "swarm/controller.h"

namespace swarmfuzz::swarm {

struct ReynoldsParams {
  double v_cruise = 2.5;        // preferred speed toward the destination, m/s
  double v_max = 4.5;           // desired-velocity clamp, m/s

  double separation_radius = 8.0;   // m
  double separation_gain = 1.0;     // 1/s

  double neighbour_radius = 25.0;   // m, alignment + cohesion neighbourhood
  double alignment_gain = 0.3;
  double cohesion_gain = 0.06;      // 1/s toward the local centroid
  double cohesion_deadzone = 6.0;   // m, no cohesion when already this close

  double avoid_radius = 12.0;       // m from the obstacle surface
  double avoid_gain = 5.0;          // m/s at the surface, linear falloff

  double altitude_gain = 0.8;
};

class ReynoldsController final : public SwarmController {
 public:
  explicit ReynoldsController(const ReynoldsParams& params = {});

  using SwarmController::desired_velocity;
  [[nodiscard]] Vec3 desired_velocity(const NeighborView& view,
                                      const MissionSpec& mission) const override;
  // Bit-identical batch fast path: all boids rules cut off at
  // neighbour_radius, so each drone is evaluated on a grid-culled view
  // whose candidate superset provably contains every interacting neighbour.
  // Serial: `exec` is ignored (DESIGN.md §15).
  using SwarmController::desired_velocity_all;
  void desired_velocity_all(const WorldSnapshot& snapshot,
                            const MissionSpec& mission, std::span<Vec3> desired,
                            const TickExecutor& exec) const override;
  // Spoof-probe culling radius: the boids neighbourhood cutoff.
  [[nodiscard]] double probe_influence_radius(
      const WorldSnapshot& snapshot, const MissionSpec& mission) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "reynolds"; }

  [[nodiscard]] const ReynoldsParams& params() const noexcept { return params_; }

 private:
  ReynoldsParams params_;
};

}  // namespace swarmfuzz::swarm
