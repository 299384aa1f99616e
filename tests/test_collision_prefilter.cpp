// The swept obstacle test's squared pre-reject (DESIGN.md §9) must never
// change a result: CollisionMonitor::check is compared with an exact,
// un-prefiltered reimplementation of the collision rule on randomized
// geometry — tunnelling steps, exact boundary touches, zero-length steps
// and the first (unswept) tick — on both the dense and the grid path.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "math/geometry.h"
#include "math/rng.h"
#include "sim/collision.h"
#include "swarm/spatial_grid.h"

namespace swarmfuzz::sim {
namespace {

// The collision rule without any pre-reject: obstacles first (drone, then
// obstacle, ascending), then drone-drone pairs (i < j, lexicographic).
std::optional<CollisionEvent> exact_check(std::span<const DroneState> states,
                                          std::span<const Vec3> prev,
                                          const ObstacleField& obstacles,
                                          double drone_radius, double time) {
  const bool swept = prev.size() == states.size();
  const int n = static_cast<int>(states.size());
  for (int i = 0; i < n; ++i) {
    const Vec3& pos = states[static_cast<size_t>(i)].position;
    for (int k = 0; k < obstacles.size(); ++k) {
      const CylinderObstacle& o = obstacles.at(k);
      const double dist =
          swept ? math::segment_point_distance_xy(prev[static_cast<size_t>(i)], pos,
                                                  o.center)
                : math::distance_xy(pos, o.center);
      if (dist <= o.radius + drone_radius) {
        return CollisionEvent{CollisionKind::kDroneObstacle, time, i, k};
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (math::distance(states[static_cast<size_t>(i)].position,
                         states[static_cast<size_t>(j)].position) <=
          2.0 * drone_radius) {
        return CollisionEvent{CollisionKind::kDroneDrone, time, i, j};
      }
    }
  }
  return std::nullopt;
}

class GridScope {
 public:
  explicit GridScope(bool grid) : saved_(swarm::spatial_grid_policy()) {
    swarm::spatial_grid_policy() = {grid, 2};
  }
  ~GridScope() { swarm::spatial_grid_policy() = saved_; }

 private:
  swarm::SpatialGridPolicy saved_;
};

// Checks one tick on both paths, swept and (first tick) unswept, against
// the exact rule; returns how many of those checks found an obstacle hit.
int expect_matches_exact(const CollisionMonitor& monitor,
                         std::span<const DroneState> states,
                         std::span<const Vec3> prev, const ObstacleField& obstacles) {
  int obstacle_hits = 0;
  for (const bool grid : {false, true}) {
    const GridScope scope(grid);
    for (const std::span<const Vec3> p : {prev, std::span<const Vec3>{}}) {
      const std::optional<CollisionEvent> got = monitor.check(states, p, obstacles, 2.0);
      const std::optional<CollisionEvent> want =
          exact_check(states, p, obstacles, monitor.drone_radius(), 2.0);
      EXPECT_EQ(got.has_value(), want.has_value()) << "grid " << grid;
      if (got && want) {
        EXPECT_EQ(got->kind, want->kind);
        EXPECT_EQ(got->drone, want->drone);
        EXPECT_EQ(got->other, want->other);
        if (got->kind == CollisionKind::kDroneObstacle) ++obstacle_hits;
      }
    }
  }
  return obstacle_hits;
}

TEST(CollisionPrefilter, RandomStepsMatchTheExactSweep) {
  math::Rng rng(2718);
  const CollisionMonitor monitor(0.3);
  int hits = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<CylinderObstacle> cylinders;
    for (int k = rng.uniform_int(1, 3); k > 0; --k) {
      cylinders.push_back({{rng.uniform(-15, 15), rng.uniform(-15, 15), 0},
                           rng.uniform(0.5, 4.0)});
    }
    const ObstacleField obstacles(cylinders);
    // Steps up to 20 m: far longer than any reach, so whole cylinders can
    // lie between a drone's previous and current fix (tunnelling).
    const double step = trial % 3 == 0 ? 20.0 : 2.0;
    const int n = rng.uniform_int(1, 12);
    std::vector<DroneState> states(static_cast<size_t>(n));
    std::vector<Vec3> prev(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const Vec3 pos{rng.uniform(-25, 25), rng.uniform(-25, 25), rng.uniform(0, 20)};
      states[static_cast<size_t>(i)].position = pos;
      prev[static_cast<size_t>(i)] =
          trial % 7 == 0 ? pos  // zero-length step
                         : pos + Vec3{rng.uniform(-step, step),
                                      rng.uniform(-step, step), 0.0};
    }
    hits += expect_matches_exact(monitor, states, prev, obstacles);
  }
  EXPECT_GT(hits, 100);  // the mix must contain real hits
}

TEST(CollisionPrefilter, TunnellingStepIsCaught) {
  // Both fixes are 10 m from the axis; only the segment between them
  // crosses the cylinder.
  const CollisionMonitor monitor(0.5);
  const ObstacleField obstacles({CylinderObstacle{{0, 0, 0}, 2.5}});
  const std::vector<DroneState> states{{{10, 0.5, 10}, {}}};
  const std::vector<Vec3> prev{{-10, 0.5, 10}};
  EXPECT_TRUE(monitor.check(states, prev, obstacles, 1.0).has_value());
  EXPECT_EQ(expect_matches_exact(monitor, states, prev, obstacles), 2);
}

TEST(CollisionPrefilter, ExactBoundaryTouchCounts) {
  // reach = 2.5 + 0.5 = 3 exactly. The fix touches at dist == reach, and the
  // swept segment passes the axis at exactly reach at its midpoint.
  const CollisionMonitor monitor(0.5);
  const ObstacleField obstacles({CylinderObstacle{{0, 0, 0}, 2.5}});
  const std::vector<DroneState> touching{{{3, 0, 10}, {}}};
  const std::vector<Vec3> still{{3, 0, 10}};
  EXPECT_TRUE(monitor.check(touching, still, obstacles, 1.0).has_value());
  EXPECT_EQ(expect_matches_exact(monitor, touching, still, obstacles), 4);

  const std::vector<DroneState> passing{{{3, 5, 10}, {}}};
  const std::vector<Vec3> from{{3, -5, 10}};
  ASSERT_EQ(math::segment_point_distance_xy(from[0], passing[0].position, {0, 0, 0}),
            3.0);
  EXPECT_TRUE(monitor.check(passing, from, obstacles, 1.0).has_value());
  EXPECT_EQ(expect_matches_exact(monitor, passing, from, obstacles), 2);
}

}  // namespace
}  // namespace swarmfuzz::sim
