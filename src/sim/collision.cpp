#include "sim/collision.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "math/geometry.h"
#include "swarm/spatial_grid.h"

namespace swarmfuzz::sim {

CollisionMonitor::CollisionMonitor(double drone_radius) : drone_radius_(drone_radius) {
  if (drone_radius <= 0.0) {
    throw std::invalid_argument("CollisionMonitor: drone_radius <= 0");
  }
}

std::optional<CollisionEvent> CollisionMonitor::check(
    std::span<const DroneState> states, std::span<const Vec3> prev_positions,
    const ObstacleField& obstacles, double time,
    const swarm::TickExecutor& exec) const {
  const int n = static_cast<int>(states.size());
  const bool swept = prev_positions.size() == states.size();

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

  // Drone-drone proximity. `pair_test` is the exact accept test; every scan
  // strategy below visits pairs in the same lexicographic (i, j) order, so
  // the first reported event is identical.
  const double thr = 2.0 * drone_radius_;
  const auto pair_test = [&](int i, int j) {
    const Vec3 d = states[static_cast<size_t>(i)].position -
                   states[static_cast<size_t>(j)].position;
    // Cheap squared pre-reject with a 2x margin: well-separated pairs
    // (the overwhelming majority) skip the sqrt. The margin is far beyond
    // any rounding of d.norm(), so pairs that could possibly satisfy
    // `dist <= thr` always fall through to the exact original test.
    if (d.norm_sq() > 4.0 * thr * thr) return false;
    return d.norm() <= thr;
  };

  // Grid fast path: any colliding pair has XY distance <= 3D distance
  // <= thr, so the per-drone candidate superset at radius thr contains every
  // partner the exact test could accept; candidates arrive in ascending
  // index order. check() is const, so the grid and staging buffers come
  // from the shared tick context (buffers reused: no steady-state
  // allocation); a parallel executor chunks both scans across the pool.
  if (swarm::spatial_grid_wanted(n)) {
    swarm::TickContext& ctx =
        exec.context != nullptr ? *exec.context : swarm::thread_tick_context();
    swarm::SpatialGrid& grid = ctx.grid();
    std::vector<Vec3>& pos = ctx.lane(0).pos;
    pos.clear();
    pos.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      pos.push_back(states[static_cast<size_t>(i)].position);
    }
    grid.build(std::span<const Vec3>(pos), std::max(thr, 1e-3));
    if (grid.valid()) {
      // Each lane records its chunk's first obstacle event and first pair
      // event; a lane stops each scan at its first hit (later drones in
      // the chunk can only yield later events). A serial executor runs the
      // whole range as lane 0.
      exec.for_range(n, [&](int begin, int end, int lane) {
        swarm::PairScanScratch& s = ctx.lane(lane);
        s.first_event = {};
        for (int i = begin; i < end; ++i) {
          const int k = first_obstacle(i);
          if (k >= 0) {
            s.first_event.obstacle_drone = i;
            s.first_event.obstacle_other = k;
            break;
          }
        }
        for (int i = begin; i < end && s.first_event.pair_drone < 0; ++i) {
          s.cand.clear();
          grid.gather(pos[static_cast<size_t>(i)], thr, s.cand);
          for (const int j : s.cand) {
            if (j <= i) continue;
            if (pair_test(i, j)) {
              s.first_event.pair_drone = i;
              s.first_event.pair_other = j;
              break;
            }
          }
        }
      });
      // Deterministic reduction matching the serial order: the serial
      // loop runs EVERY obstacle check before the first pair check, so
      // any obstacle event beats any pair event; within a class the
      // lowest lane holds the globally first event because chunks are
      // ascending and contiguous.
      const int lanes = exec.parallel() ? exec.pool->threads() : 1;
      for (int lane = 0; lane < lanes; ++lane) {
        const swarm::FirstEventSlots& e = ctx.lane(lane).first_event;
        if (e.obstacle_drone >= 0) {
          return CollisionEvent{CollisionKind::kDroneObstacle, time,
                                e.obstacle_drone, e.obstacle_other};
        }
      }
      for (int lane = 0; lane < lanes; ++lane) {
        const swarm::FirstEventSlots& e = ctx.lane(lane).first_event;
        if (e.pair_drone >= 0) {
          return CollisionEvent{CollisionKind::kDroneDrone, time,
                                e.pair_drone, e.pair_other};
        }
      }
      return std::nullopt;
    }
  }

  for (int i = 0; i < n; ++i) {
    const int k = first_obstacle(i);
    if (k >= 0) {
      return CollisionEvent{CollisionKind::kDroneObstacle, time, i, k};
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (pair_test(i, j)) {
        return CollisionEvent{CollisionKind::kDroneDrone, time, i, j};
      }
    }
  }
  return std::nullopt;
}

}  // namespace swarmfuzz::sim
