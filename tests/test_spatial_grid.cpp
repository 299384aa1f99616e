// Property tests for the uniform spatial hash grid (DESIGN.md §14).
//
// The grid's entire correctness contract is "conservative superset, ascending
// index order": every caller re-applies its exact accept test, so as long as
// gather() never *misses* an in-range drone and never reorders candidates,
// the accelerated paths are bit-identical to the brute-force scans they
// replace. These tests hammer that contract with randomized swarms across
// spreads, radii and cell sizes, plus the degenerate geometries (everything
// in one cell, coincident points, radius at a cell edge) where an off-by-one
// in cell coverage would hide. The metrics and collision golden tests then
// pin the end-to-end claim: grid on and grid off produce bit-identical
// results through the public APIs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "math/rng.h"
#include "math/geometry.h"
#include "sim/collision.h"
#include "sim/types.h"
#include "swarm/metrics.h"
#include "swarm/spatial_grid.h"

namespace {

using namespace swarmfuzz;

// RAII save/restore for the process-wide grid policy.
class GridPolicyScope {
 public:
  GridPolicyScope(bool enabled, int min_drones)
      : saved_(swarm::spatial_grid_policy()) {
    swarm::spatial_grid_policy() = {enabled, min_drones};
  }
  ~GridPolicyScope() { swarm::spatial_grid_policy() = saved_; }

 private:
  swarm::SpatialGridPolicy saved_;
};

std::vector<math::Vec3> random_positions(math::Rng& rng, int n, double spread) {
  std::vector<math::Vec3> pos;
  pos.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    pos.push_back({rng.uniform(-spread, spread), rng.uniform(-spread, spread),
                   rng.uniform(5.0, 15.0)});
  }
  return pos;
}

// Exact in-range set by the same XY metric the grid approximates.
std::vector<int> brute_in_range(std::span<const math::Vec3> pos,
                                const math::Vec3& center, double radius) {
  std::vector<int> out;
  for (int j = 0; j < static_cast<int>(pos.size()); ++j) {
    if (math::distance_xy(center, pos[static_cast<size_t>(j)]) <= radius) {
      out.push_back(j);
    }
  }
  return out;
}

void expect_sorted_unique(const std::vector<int>& v) {
  for (size_t k = 1; k < v.size(); ++k) {
    ASSERT_LT(v[k - 1], v[k]) << "candidates not in strictly ascending order";
  }
}

void expect_superset(const std::vector<int>& superset,
                     const std::vector<int>& subset) {
  for (const int j : subset) {
    ASSERT_TRUE(std::binary_search(superset.begin(), superset.end(), j))
        << "grid missed in-range index " << j;
  }
}

TEST(SpatialGrid, GatherIsSupersetAcrossRandomGeometries) {
  math::Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = rng.uniform_int(1, 60);
    const double spread = rng.uniform(0.5, 200.0);
    const double radius = rng.uniform(0.1, 2.0 * spread);
    const double cell = rng.uniform(0.05, 3.0 * radius + 0.1);
    const auto pos = random_positions(rng, n, spread);

    swarm::SpatialGrid grid;
    grid.build(std::span<const math::Vec3>(pos), cell);
    ASSERT_TRUE(grid.valid());
    ASSERT_EQ(grid.size(), n);

    std::vector<int> cand;
    for (int i = 0; i < n; ++i) {
      cand.clear();
      grid.gather(pos[static_cast<size_t>(i)], radius, cand);
      expect_sorted_unique(cand);
      expect_superset(cand, brute_in_range(pos, pos[static_cast<size_t>(i)], radius));
    }
    // Off-drone query centers, including far outside the indexed box.
    for (int q = 0; q < 8; ++q) {
      const math::Vec3 center{rng.uniform(-3.0 * spread, 3.0 * spread),
                              rng.uniform(-3.0 * spread, 3.0 * spread), 10.0};
      cand.clear();
      grid.gather(center, radius, cand);
      expect_sorted_unique(cand);
      expect_superset(cand, brute_in_range(pos, center, radius));
    }
  }
}

TEST(SpatialGrid, DegenerateGeometries) {
  swarm::SpatialGrid grid;
  std::vector<int> cand;

  // All drones inside a single cell.
  {
    std::vector<math::Vec3> pos = {{0.1, 0.1, 10}, {0.2, 0.15, 10}, {0.05, 0.3, 10}};
    grid.build(std::span<const math::Vec3>(pos), 100.0);
    ASSERT_TRUE(grid.valid());
    cand.clear();
    grid.gather(pos[0], 1.0, cand);
    EXPECT_EQ(cand, (std::vector<int>{0, 1, 2}));
  }

  // Fully coincident positions: every query must return all of them.
  {
    std::vector<math::Vec3> pos(5, math::Vec3{3.0, -4.0, 10.0});
    grid.build(std::span<const math::Vec3>(pos), 1.0);
    ASSERT_TRUE(grid.valid());
    cand.clear();
    grid.gather(pos[0], 0.0, cand);
    EXPECT_EQ(cand, (std::vector<int>{0, 1, 2, 3, 4}));
  }

  // Radius exactly at a cell edge: points sitting on the boundary of the
  // covered square must not be lost to floor() rounding.
  {
    std::vector<math::Vec3> pos;
    for (int i = 0; i <= 10; ++i) {
      pos.push_back({static_cast<double>(i), 0.0, 10.0});  // exactly on cell edges
    }
    grid.build(std::span<const math::Vec3>(pos), 1.0);
    ASSERT_TRUE(grid.valid());
    for (int i = 0; i <= 10; ++i) {
      for (const double radius : {1.0, 2.0, 3.0}) {
        cand.clear();
        grid.gather(pos[static_cast<size_t>(i)], radius, cand);
        expect_sorted_unique(cand);
        expect_superset(cand,
                        brute_in_range(pos, pos[static_cast<size_t>(i)], radius));
      }
    }
  }

  // Empty input: nothing to index, grid reports invalid and callers fall
  // back to the (trivially empty) brute-force scan.
  {
    grid.build(std::span<const math::Vec3>{}, 1.0);
    EXPECT_FALSE(grid.valid());
    EXPECT_EQ(grid.size(), 0);
  }

  // A non-finite coordinate invalidates the grid (callers fall back).
  {
    std::vector<math::Vec3> pos = {{0, 0, 10},
                                   {std::numeric_limits<double>::quiet_NaN(), 0, 10}};
    grid.build(std::span<const math::Vec3>(pos), 1.0);
    EXPECT_FALSE(grid.valid());
  }
}

TEST(SpatialGrid, RebuildIsDeterministic) {
  math::Rng rng(99);
  const auto pos = random_positions(rng, 40, 80.0);
  swarm::SpatialGrid a;
  swarm::SpatialGrid b;
  a.build(std::span<const math::Vec3>(pos), 7.5);
  b.build(std::span<const math::Vec3>(pos), 7.5);
  std::vector<int> ca, cb;
  for (int i = 0; i < 40; ++i) {
    ca.clear();
    cb.clear();
    a.gather(pos[static_cast<size_t>(i)], 20.0, ca);
    b.gather(pos[static_cast<size_t>(i)], 20.0, cb);
    EXPECT_EQ(ca, cb);
  }
}

std::vector<sim::DroneState> random_states(math::Rng& rng, int n, double spread) {
  std::vector<sim::DroneState> states;
  states.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    states.push_back(sim::DroneState{
        .position = {rng.uniform(-spread, spread), rng.uniform(-spread, spread),
                     rng.uniform(8.0, 12.0)},
        .velocity = {rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0},
    });
  }
  return states;
}

TEST(SpatialGrid, FlockMetricsBitIdenticalGridOnOff) {
  math::Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.uniform_int(2, 120);
    const auto states = random_states(rng, n, rng.uniform(1.0, 300.0));

    swarm::FlockMetrics with_grid;
    swarm::FlockMetrics without;
    {
      GridPolicyScope scope(true, 2);
      with_grid = swarm::flock_metrics(states);
    }
    {
      GridPolicyScope scope(false, 2);
      without = swarm::flock_metrics(states);
    }
    EXPECT_EQ(with_grid.min_separation, without.min_separation) << "trial " << trial;
    EXPECT_EQ(with_grid.order, without.order);
    EXPECT_EQ(with_grid.cohesion_radius, without.cohesion_radius);
    EXPECT_EQ(with_grid.mean_speed, without.mean_speed);
  }
}

TEST(SpatialGrid, CollisionCheckBitIdenticalGridOnOff) {
  math::Rng rng(31337);
  const sim::ObstacleField no_obstacles;
  const sim::CollisionMonitor monitor(0.5);
  int events_seen = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int n = rng.uniform_int(2, 100);
    // Small spreads force genuine collisions; large spreads exercise the
    // empty-result path.
    auto states = random_states(rng, n, rng.uniform(1.0, 60.0));

    std::optional<sim::CollisionEvent> with_grid;
    std::optional<sim::CollisionEvent> without;
    {
      GridPolicyScope scope(true, 2);
      with_grid = monitor.check(states, {}, no_obstacles, 1.5);
    }
    {
      GridPolicyScope scope(false, 2);
      without = monitor.check(states, {}, no_obstacles, 1.5);
    }
    ASSERT_EQ(with_grid.has_value(), without.has_value()) << "trial " << trial;
    if (with_grid) {
      ++events_seen;
      EXPECT_EQ(with_grid->kind, without->kind);
      EXPECT_EQ(with_grid->time, without->time);
      EXPECT_EQ(with_grid->drone, without->drone);
      EXPECT_EQ(with_grid->other, without->other);
    }
  }
  // The trial mix must actually produce collision events, or the equality
  // checks above prove nothing.
  EXPECT_GT(events_seen, 0);
}

}  // namespace
