// Olfati-Saber flocking (IEEE TAC 2006) - the second algorithm shipped by
// SwarmLab. Included to demonstrate that SwarmFuzz is controller-agnostic
// (paper section VI, limitation 1).
//
// The control law is an acceleration u = u_alpha + u_beta + u_gamma:
//   u_alpha: gradient of a smooth pairwise potential (attractive beyond the
//            desired spacing d, repulsive below it) plus velocity consensus
//            -> goals (2) inter-drone and (3) cohesion
//   u_beta : interaction with a projected "beta-agent" on each obstacle
//            -> goal (2) obstacle
//   u_gamma: navigation feedback toward the destination -> goal (1)
// Our vehicle interface consumes desired velocities, so the acceleration is
// integrated over a nominal horizon tau: v_des = v + u * tau.
#pragma once

#include "swarm/controller.h"

namespace swarmfuzz::swarm {

struct OlfatiSaberParams {
  double d = 10.0;        // desired inter-agent spacing, m
  double r_factor = 1.6;  // interaction range r = r_factor * d
  double epsilon = 0.1;   // sigma-norm parameter
  double h_alpha = 0.2;   // bump-function plateau for alpha interactions
  double h_beta = 0.9;    // bump-function plateau for beta interactions
  double a = 4.0;         // potential parameter (a <= b)
  double b = 8.0;         // potential parameter
  double c1_alpha = 1.4;  // alpha gradient gain
  double c2_alpha = 0.6;  // alpha consensus gain
  double c1_beta = 3.5;   // obstacle gradient gain
  double c2_beta = 1.4;   // obstacle damping gain
  double d_beta = 6.0;    // desired clearance from obstacle surface, m
  double c1_gamma = 0.18; // navigation position gain
  double c2_gamma = 0.55; // navigation velocity gain
  double v_mission = 2.5; // cruise speed toward destination, m/s
  double v_max = 4.5;     // desired-velocity clamp, m/s
  double tau = 0.6;       // s, acceleration-to-velocity horizon
  double altitude_gain = 0.8;
};

// sigma-norm and its helpers, exposed for unit tests.
[[nodiscard]] double sigma_norm(double distance, double epsilon);
[[nodiscard]] double bump(double z, double h);

class OlfatiSaberController final : public SwarmController {
 public:
  explicit OlfatiSaberController(const OlfatiSaberParams& params = {});

  using SwarmController::desired_velocity;
  [[nodiscard]] Vec3 desired_velocity(const NeighborView& view,
                                      const MissionSpec& mission) const override;
  // Bit-identical batch fast path: alpha interactions have a hard cutoff at
  // r_factor * d, so each drone is evaluated on a grid-culled view whose
  // candidate superset provably contains every interacting neighbour.
  // Serial: `exec` is ignored (DESIGN.md §15).
  using SwarmController::desired_velocity_all;
  void desired_velocity_all(const WorldSnapshot& snapshot,
                            const MissionSpec& mission, std::span<Vec3> desired,
                            const TickExecutor& exec) const override;
  // Spoof-probe culling radius: the alpha-interaction cutoff. Beyond it a
  // neighbour contributes nothing regardless of velocity.
  [[nodiscard]] double probe_influence_radius(
      const WorldSnapshot& snapshot, const MissionSpec& mission) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "olfati_saber";
  }

  [[nodiscard]] const OlfatiSaberParams& params() const noexcept { return params_; }

 private:
  [[nodiscard]] double phi_alpha(double z) const;

  OlfatiSaberParams params_;
  double r_alpha_ = 0.0;  // sigma-norm of the interaction range (cached)
  double d_alpha_ = 0.0;  // sigma-norm of the desired spacing (cached)
};

}  // namespace swarmfuzz::swarm
