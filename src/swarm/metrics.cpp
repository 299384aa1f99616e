#include "swarm/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "swarm/spatial_grid.h"
#include "swarm/tick_context.h"

namespace swarmfuzz::swarm {

namespace {

// Grid-accelerated smallest pairwise 3D distance. Exact, not approximate:
// pass 1 finds an ACHIEVED distance M (each drone against some other
// drones near it), pass 2 gathers every pair whose XY distance can be
// <= M — and since 3D distance >= XY distance, every pair at 3D distance
// <= M is among them. min() over doubles is order-independent and each
// candidate's distance comes from the same math::distance(i, j) call the
// brute-force scan makes, so the result is bit-identical. Returns infinity
// if the grid cannot be built (non-finite coordinates), signalling the
// caller to fall back.
double grid_min_separation(std::span<const sim::DroneState> states) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int n = static_cast<int>(states.size());
  TickContext& ctx = thread_tick_context();
  SpatialGrid& grid = ctx.grid();
  std::vector<math::Vec3>& pos = ctx.lane(0).pos;
  std::vector<int>& cand = ctx.lane(0).cand;
  pos.clear();
  pos.reserve(static_cast<size_t>(n));
  double min_x = kInf, max_x = -kInf, min_y = kInf, max_y = -kInf;
  for (const sim::DroneState& state : states) {
    pos.push_back(state.position);
    min_x = std::min(min_x, state.position.x);
    max_x = std::max(max_x, state.position.x);
    min_y = std::min(min_y, state.position.y);
    max_y = std::max(max_y, state.position.y);
  }
  // ~1 drone per cell on average keeps both passes near-linear.
  const double area = (max_x - min_x) * (max_y - min_y);
  const double cell =
      std::max(std::sqrt(std::max(area, 0.0) / static_cast<double>(n)), 1e-3);
  if (!std::isfinite(cell)) return kInf;
  grid.build(std::span<const math::Vec3>(pos), cell);
  if (!grid.valid()) return kInf;

  // Pass 1: each drone against the first gather, at radii doubling from
  // the cell size, that holds another drone besides itself (drone i is
  // always gathered; n >= 2 and a radius spanning the grid returns all).
  double bound = kInf;
  for (int i = 0; i < n; ++i) {
    for (double r = cell;; r *= 2.0) {
      cand.clear();
      grid.gather(pos[static_cast<size_t>(i)], r, cand);
      if (cand.size() >= 2) break;
    }
    for (const int j : cand) {
      if (j == i) continue;
      bound = std::min(bound, math::distance(pos[static_cast<size_t>(i)],
                                             pos[static_cast<size_t>(j)]));
    }
  }
  if (!std::isfinite(bound)) return kInf;

  double min_separation = kInf;
  for (int i = 0; i < n; ++i) {
    cand.clear();
    grid.gather(pos[static_cast<size_t>(i)], bound, cand);
    for (const int j : cand) {
      if (j <= i) continue;
      min_separation =
          std::min(min_separation, math::distance(pos[static_cast<size_t>(i)],
                                                  pos[static_cast<size_t>(j)]));
    }
  }
  return min_separation;
}

}  // namespace

double order_parameter(std::span<const sim::DroneState> states) {
  const int n = static_cast<int>(states.size());
  if (n < 2) return 1.0;
  double sum = 0.0;
  int pairs = 0;
  for (int i = 0; i < n; ++i) {
    const math::Vec3 vi = states[static_cast<size_t>(i)].velocity.horizontal();
    const double ni = vi.norm();
    if (ni < 1e-9) continue;
    for (int j = i + 1; j < n; ++j) {
      const math::Vec3 vj = states[static_cast<size_t>(j)].velocity.horizontal();
      const double nj = vj.norm();
      if (nj < 1e-9) continue;
      sum += vi.dot(vj) / (ni * nj);
      ++pairs;
    }
  }
  return pairs > 0 ? sum / pairs : 1.0;
}

FlockMetrics flock_metrics(std::span<const sim::DroneState> states) {
  FlockMetrics metrics;
  const int n = static_cast<int>(states.size());
  metrics.order = order_parameter(states);
  metrics.min_separation = std::numeric_limits<double>::infinity();
  if (n == 0) return metrics;

  math::Vec3 centroid;
  double speed_sum = 0.0;
  for (const sim::DroneState& state : states) {
    centroid += state.position;
    speed_sum += state.velocity.norm_xy();
  }
  centroid = centroid / static_cast<double>(n);
  metrics.mean_speed = speed_sum / static_cast<double>(n);

  double radius_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    radius_sum += math::distance(states[static_cast<size_t>(i)].position, centroid);
  }
  metrics.cohesion_radius = radius_sum / static_cast<double>(n);

  if (n >= 2 && spatial_grid_wanted(n)) {
    metrics.min_separation = grid_min_separation(states);
  }
  if (!std::isfinite(metrics.min_separation)) {
    metrics.min_separation = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        metrics.min_separation =
            std::min(metrics.min_separation,
                     math::distance(states[static_cast<size_t>(i)].position,
                                    states[static_cast<size_t>(j)].position));
      }
    }
  }
  return metrics;
}

}  // namespace swarmfuzz::swarm
