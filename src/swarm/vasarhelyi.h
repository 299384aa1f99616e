// The Vasarhelyi et al. flocking algorithm (Science Robotics 2018) - the
// "Vicsek algorithm" the paper evaluates, as implemented by SwarmLab.
//
// Each drone's desired velocity is the sum of sub-velocities, one per
// high-level goal (paper section II):
//   goal (1) mission-driven      -> v_spp   : self-propulsion toward the
//                                             destination at v_flock
//   goal (2) collision-free      -> v_rep   : linear pairwise repulsion
//                                             below r0_rep, plus shill-agent
//                                             obstacle avoidance
//   goal (3) cohesive formation  -> v_frict : velocity alignment whose slack
//                                             shrinks with distance via the
//                                             braking curve D(r, a, p)
// The braking curve (eq. 7 of Vasarhelyi et al.):
//   D(r, a, p) = 0                      for r <= 0
//              = r * p                  for 0 < r*p <= a/p
//              = sqrt(2*a*r - a^2/p^2)  otherwise
// Altitude is held at the mission's cruise height with a proportional term.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "swarm/controller.h"

namespace swarmfuzz::swarm {

struct VasarhelyiParams {
  double v_flock = 2.5;    // preferred speed toward the destination, m/s
  double v_max = 4.5;      // clamp on the final desired velocity, m/s

  // Pairwise repulsion (goal 2, inter-drone).
  double r0_rep = 8.0;    // repulsion onset distance, m
  double p_rep = 0.8;     // repulsion gain, 1/s

  // Pairwise attraction (goal 3, cohesive formation): beyond r0_att the
  // drone is pulled toward the distant member so the formation does not
  // fragment. This is the sub-velocity the paper's motivating example
  // exploits (Fig. 2-(c): spoofing increases the perceived inter-distance,
  // generating attraction that drags the victim toward the obstacle).
  double r0_att = 24.0;    // attraction onset distance, m
  double p_att = 0.5;     // attraction gain, 1/s
  double v_att_max = 3.0;  // cap on the total attraction sub-velocity, m/s
  int k_att = 3;           // attract only toward the k nearest members
                           // (at most kMaxAttractionNeighbours)

  // Velocity alignment / friction (goal 3).
  double r0_frict = 22.0;  // alignment slack onset, m
  double c_frict = 0.3;   // alignment gain
  double v_frict = 0.25;   // velocity-slack floor, m/s
  double p_frict = 2.2;    // braking-curve linear gain
  double a_frict = 2.0;    // braking-curve max deceleration, m/s^2

  // Shill-agent obstacle avoidance (goal 2, obstacle).
  double r0_shill = 0.5;   // distance of the shill from the surface, m
  double v_shill = 4.6;    // shill agent speed, m/s
  double p_shill = 1.2;    // braking-curve gain toward the shill velocity
  double a_shill = 1.4;    // braking-curve max deceleration, m/s^2

  double altitude_gain = 0.8;  // 1/s, proportional height hold
};

// The braking curve D(r, a, p); exposed for tests (monotone, continuous).
[[nodiscard]] double braking_curve(double r, double a, double p);

// D(., a, p) with its parameter-only subexpressions (a/p, a^2/p^2, 2a)
// computed once. Same operands, same operations: returns exactly the bits
// braking_curve(r, a, p) returns.
class BrakingCurve {
 public:
  BrakingCurve(double a, double p)
      : p_(p), a_over_p_(a / p), a_sq_over_p_sq_(a * a / (p * p)), two_a_(2.0 * a) {}

  [[nodiscard]] double operator()(double r) const {
    if (r <= 0.0) return 0.0;
    if (r * p_ <= a_over_p_) return r * p_;
    return std::sqrt(two_a_ * r - a_sq_over_p_sq_);
  }

 private:
  double p_;
  double a_over_p_;
  double a_sq_over_p_sq_;
  double two_a_;
};

// Largest VasarhelyiParams::k_att the controller accepts: the attraction
// selection keeps its k nearest in a fixed stack array of this size.
inline constexpr int kMaxAttractionNeighbours = 16;

// Skin of the grid path's neighbour lists, m (DESIGN.md §14, "Neighbour
// lists"): the lists are gathered at r_pair + kNeighbourListSkin and rebuilt
// once r_pair + 2 D exceeds that, D being the largest XY displacement since
// the build. A wider skin rebuilds less often but walks more candidates on
// every tick; on 500-drone missions 1.5 m was no slower than 2.5 m or 4 m
// (EXPERIMENTS.md, "Neighbour lists").
inline constexpr double kNeighbourListSkin = 1.5;

// Running selection of the k nearest candidates, ascending by distance, in
// a fixed-capacity stack array (k <= kMaxAttractionNeighbours; k <= 0 keeps
// none). Candidates are offered in arrival order; comparisons are strict
// and a later candidate never passes an earlier one at equal distance, so
// the selection is the k smallest by (distance, arrival order). NaN
// distances go through the same `<` tests (always false), as in a plain
// insertion top-k. Shared by every controller path, so their selections
// agree. Feeding any subset of the candidates that still holds
// everything at distance <= the k-th smallest, in the same order, selects
// the same members in the same order — which lets the spatial grid cull.
class NearestK {
 public:
  struct Entry {
    double dist;
    int index;
  };

  // k is clamped into [0, kMaxAttractionNeighbours]; the controller
  // rejects larger k_att up front, so the clamp never changes a selection.
  explicit NearestK(int k) : k_(std::clamp(k, 0, kMaxAttractionNeighbours)) {}

  void offer(double dist, int index) {
    if (size_ < k_) {
      ++size_;
    } else if (size_ == 0 || !(dist < top_[size_ - 1].dist)) {
      return;
    }
    int q = size_ - 1;
    for (; q > 0 && dist < top_[q - 1].dist; --q) top_[q] = top_[q - 1];
    top_[q] = {dist, index};
  }

  [[nodiscard]] std::span<const Entry> selected() const noexcept {
    return {top_, static_cast<std::size_t>(size_)};
  }

 private:
  int k_;
  int size_ = 0;
  Entry top_[kMaxAttractionNeighbours];
};

class VasarhelyiController final : public SwarmController {
 public:
  explicit VasarhelyiController(const VasarhelyiParams& params = {});

  using SwarmController::desired_velocity;
  [[nodiscard]] Vec3 desired_velocity(const NeighborView& view,
                                      const MissionSpec& mission) const override;
  // Bit-identical batch fast path: spatial-grid candidate culling for large
  // swarms (repulsion/friction cutoff radius plus a k-nearest superset for
  // the topological attraction), falling back to the symmetric dense pass
  // that computes each pair's distance and velocity gap once. The grid path
  // chunks the per-drone loop over a parallel `exec` (each drone's kernel
  // reads only the shared grid and snapshot, writes only its own slot).
  using SwarmController::desired_velocity_all;
  void desired_velocity_all(const WorldSnapshot& snapshot,
                            const MissionSpec& mission, std::span<Vec3> desired,
                            const TickExecutor& exec) const override;
  // Finite spoof-probe culling radius: max of the repulsion onset, the
  // friction cutoff for the swarm's worst-case velocity gap, and the
  // largest k_att-th-nearest-neighbour distance (beyond which a member can
  // never enter anyone's topological attraction set). Infinity when some
  // member has fewer than k_att neighbours (then every member is always
  // attended to, so no probe may be skipped).
  [[nodiscard]] double probe_influence_radius(
      const WorldSnapshot& snapshot, const MissionSpec& mission) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "vasarhelyi";
  }

  [[nodiscard]] const VasarhelyiParams& params() const noexcept { return params_; }

  // Individual sub-velocities, exposed for tests and for the motivating
  // example (Fig. 2 of the paper shows exactly this decomposition).
  struct Terms {
    Vec3 migration;   // v_spp, goal (1)
    Vec3 repulsion;   // v_rep, goal (2) inter-drone
    Vec3 attraction;  // v_att, goal (3) cohesion
    Vec3 friction;    // v_frict, goal (3) alignment
    Vec3 shill;       // obstacle avoidance, goal (2) obstacle
    Vec3 altitude;    // height hold (simulation plumbing, not a paper goal)
    [[nodiscard]] Vec3 total() const {
      return migration + repulsion + attraction + friction + shill + altitude;
    }
  };
  [[nodiscard]] Terms compute_terms(const NeighborView& view,
                                    const MissionSpec& mission) const;
  // Snapshot adapter mirroring SwarmController::desired_velocity's.
  [[nodiscard]] Terms compute_terms(int self_index, const WorldSnapshot& snapshot,
                                    const MissionSpec& mission) const;

 private:
  VasarhelyiParams params_;
  BrakingCurve frict_curve_;  // D(., a_frict, p_frict)
  BrakingCurve shill_curve_;  // D(., a_shill, p_shill)
};

}  // namespace swarmfuzz::swarm
