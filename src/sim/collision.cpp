#include "sim/collision.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "math/geometry.h"
#include "swarm/tick_context.h"

namespace swarmfuzz::sim {

namespace {

// Pair-distance bound constants (DESIGN.md §9). The grid pair scan gathers
// at 2r + kPairBoundMargin and the carried slack is capped at it, so a
// re-armed bound lasts about kPairBoundMargin / (2 v_max dt) ticks. The pads
// are charged every tick, relative to the largest displacement and to the
// distances involved; they dwarf double rounding (~1e-16 relative) by
// seven orders of magnitude.
constexpr double kPairBoundMargin = 2.0;  // m
constexpr double kBoundRelPad = 1e-9;
constexpr double kBoundAbsPad = 1e-9;     // m

}  // namespace

CollisionMonitor::CollisionMonitor(double drone_radius) : drone_radius_(drone_radius) {
  if (drone_radius <= 0.0) {
    throw std::invalid_argument("CollisionMonitor: drone_radius <= 0");
  }
}

std::optional<CollisionEvent> CollisionMonitor::check(
    std::span<const DroneState> states, std::span<const Vec3> prev_positions,
    const ObstacleField& obstacles, double time, PairDistanceBound* bound) const {
  const int n = static_cast<int>(states.size());
  const bool swept = prev_positions.size() == states.size();
  const double thr = 2.0 * drone_radius_;

  // Pair-distance bound (DESIGN.md §9): between pair scans, every pair
  // distance shrinks by at most twice the tick's largest displacement
  // (triangle inequality), so a carried slack that stays positive after
  // that decrement proves no pair is within thr. A point-check call has no
  // displacement to charge and a non-finite displacement bounds nothing:
  // both scan in full, which replaces the carried bound.
  bool scan_pairs = true;
  if (bound != nullptr && swept && bound->slack > 0.0) {
    double max_step_sq = 0.0;
    bool finite = true;
    for (int i = 0; i < n; ++i) {
      const double step_sq = (states[static_cast<size_t>(i)].position -
                              prev_positions[static_cast<size_t>(i)])
                                 .norm_sq();
      finite = finite && step_sq < std::numeric_limits<double>::infinity();
      max_step_sq = std::max(max_step_sq, step_sq);
    }
    const double pad = kBoundRelPad * (thr + kPairBoundMargin) + kBoundAbsPad;
    bound->slack -= 2.0 * std::sqrt(max_step_sq) * (1.0 + kBoundRelPad) + pad;
    scan_pairs = !(finite && bound->slack > 0.0);
  }
  // Outcome of a call: any event disarms the bound; a full pair scan with
  // no event re-arms it from the smallest pair distance it saw. Pairs the
  // grid scan does not see are farther than thr + kPairBoundMargin,
  // hence the cap, which also keeps the running slack within a few metres
  // so the fixed pads above cover its rounding.
  const auto event = [&](CollisionKind kind, int drone, int other) {
    if (bound != nullptr) bound->slack = 0.0;
    return CollisionEvent{kind, time, drone, other};
  };
  const auto no_event = [&](double min_pair_d2) -> std::optional<CollisionEvent> {
    if (bound != nullptr) {
      bound->slack = std::min(std::sqrt(min_pair_d2) - thr, kPairBoundMargin);
    }
    return std::nullopt;
  };

  // First obstacle hit by drone i this step, or -1; k ascending so the
  // reported (drone, obstacle) pair matches the serial double loop.
  //
  // Swept pre-reject: the segment's distance to the axis is at least
  // |pos - c| - |step| (triangle inequality), so an accepted drone has
  // |pos - c|^2 <= (reach + |step|)^2 <= 2 (reach^2 + |step|^2). Rejecting
  // only above twice that bound leaves a margin far beyond any rounding:
  // every drone the exact test could accept, and every NaN (the compare
  // fails), falls through to it unchanged.
  const auto first_obstacle = [&](int i) {
    const Vec3& pos = states[static_cast<size_t>(i)].position;
    for (int k = 0; k < obstacles.size(); ++k) {
      const CylinderObstacle& o = obstacles.at(k);
      const double reach = o.radius + drone_radius_;
      double dist;
      if (swept) {
        const Vec3& prev = prev_positions[static_cast<size_t>(i)];
        const double step_sq = (pos - prev).norm_xy_sq();
        if ((pos - o.center).norm_xy_sq() > 4.0 * (reach * reach + step_sq)) {
          continue;
        }
        dist = math::segment_point_distance_xy(prev, pos, o.center);
      } else {
        dist = math::distance_xy(pos, o.center);
      }
      if (dist <= reach) return k;
    }
    return -1;
  };

  // Drone-drone proximity. `pair_test` is the exact accept test on the
  // pair's squared distance; every scan strategy below visits pairs in the
  // same lexicographic (i, j) order, so the first reported event is
  // identical.
  const auto pair_d2 = [&](int i, int j) {
    return (states[static_cast<size_t>(i)].position -
            states[static_cast<size_t>(j)].position)
        .norm_sq();
  };
  const auto pair_test = [&](double d2) {
    // Cheap squared pre-reject with a 2x margin: well-separated pairs
    // (the overwhelming majority) skip the sqrt. The margin is far beyond
    // any rounding of the norm, so pairs that could possibly satisfy
    // `dist <= thr` always fall through to the exact original test.
    if (d2 > 4.0 * thr * thr) return false;
    return std::sqrt(d2) <= thr;
  };

  // Every obstacle check runs before the first pair check: any obstacle
  // event beats any pair event.
  for (int i = 0; i < n; ++i) {
    const int k = first_obstacle(i);
    if (k >= 0) return event(CollisionKind::kDroneObstacle, i, k);
  }
  if (!scan_pairs) return std::nullopt;
  double min_pair_d2 = std::numeric_limits<double>::infinity();

  // Grid fast path: any colliding pair has XY distance <= 3D distance
  // <= thr, so the per-drone candidate superset at radius thr contains every
  // partner the exact test could accept; candidates arrive in ascending
  // index order. The scan gathers at thr + kPairBoundMargin, so every pair
  // it does not see is farther than that (the bound's cap). check() is
  // const, so the grid and staging buffers come from the thread's tick
  // context (buffers reused: no steady-state allocation). The check stays
  // serial: at 500 drones it costs ~10 µs a tick, less than a pool handoff
  // (DESIGN.md §15).
  if (swarm::spatial_grid_wanted(n)) {
    swarm::TickContext& ctx = swarm::thread_tick_context();
    swarm::SpatialGrid& grid = ctx.grid();
    swarm::PairScanScratch& s = ctx.lane(0);
    const double radius = thr + kPairBoundMargin;
    s.pos.clear();
    s.pos.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      s.pos.push_back(states[static_cast<size_t>(i)].position);
    }
    grid.build(std::span<const Vec3>(s.pos), radius);
    if (grid.valid()) {
      for (int i = 0; i < n; ++i) {
        s.cand.clear();
        grid.gather(states[static_cast<size_t>(i)].position, radius, s.cand);
        for (const int j : s.cand) {
          if (j <= i) continue;
          const double d2 = pair_d2(i, j);
          min_pair_d2 = std::min(min_pair_d2, d2);
          if (pair_test(d2)) return event(CollisionKind::kDroneDrone, i, j);
        }
      }
      return no_event(min_pair_d2);
    }
  }

  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double d2 = pair_d2(i, j);
      min_pair_d2 = std::min(min_pair_d2, d2);
      if (pair_test(d2)) return event(CollisionKind::kDroneDrone, i, j);
    }
  }
  return no_event(min_pair_d2);
}

}  // namespace swarmfuzz::sim
