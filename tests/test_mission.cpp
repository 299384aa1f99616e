#include "sim/mission.h"

#include <gtest/gtest.h>

namespace swarmfuzz::sim {
namespace {

TEST(Mission, GenerationIsDeterministic) {
  const MissionConfig config;
  const MissionSpec a = generate_mission(config, 77);
  const MissionSpec b = generate_mission(config, 77);
  ASSERT_EQ(a.num_drones(), b.num_drones());
  for (int i = 0; i < a.num_drones(); ++i) {
    EXPECT_EQ(a.initial_positions[static_cast<size_t>(i)],
              b.initial_positions[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(a.destination, b.destination);
  EXPECT_EQ(a.obstacles.at(0).center, b.obstacles.at(0).center);
}

TEST(Mission, DifferentSeedsDiffer) {
  const MissionConfig config;
  const MissionSpec a = generate_mission(config, 1);
  const MissionSpec b = generate_mission(config, 2);
  EXPECT_NE(a.initial_positions[0], b.initial_positions[0]);
}

TEST(Mission, RejectsInvalidConfig) {
  MissionConfig config;
  config.num_drones = 1;
  EXPECT_THROW(generate_mission(config, 0), std::invalid_argument);
  config = {};
  config.spawn_range = 0.0;
  EXPECT_THROW(generate_mission(config, 0), std::invalid_argument);
  config = {};
  config.mission_length = -5.0;
  EXPECT_THROW(generate_mission(config, 0), std::invalid_argument);
}

TEST(Mission, ImpossibleSeparationThrows) {
  MissionConfig config;
  config.num_drones = 50;
  config.spawn_range = 10.0;
  config.min_spawn_separation = 8.0;
  EXPECT_THROW(generate_mission(config, 0), std::runtime_error);
}

TEST(Mission, DestinationIsMissionLengthAway) {
  const MissionConfig config;
  const MissionSpec mission = generate_mission(config, 3);
  const Vec3 spawn_center{config.spawn_range / 2, config.spawn_range / 2,
                          config.cruise_altitude};
  EXPECT_NEAR(math::distance_xy(spawn_center, mission.destination),
              config.mission_length, 1e-9);
}

TEST(Mission, ObstacleNearHalfwayMark) {
  const MissionConfig config;
  const MissionSpec mission = generate_mission(config, 5);
  const CylinderObstacle& obstacle = mission.obstacles.at(0);
  const double along = obstacle.center.x - config.spawn_range / 2;
  EXPECT_GE(along, config.mission_length / 2 - config.obstacle_along_jitter - 1e-9);
  EXPECT_LE(along, config.mission_length / 2 + config.obstacle_along_jitter + 1e-9);
  EXPECT_LE(std::abs(obstacle.center.y - config.spawn_range / 2),
            config.obstacle_lateral_jitter + 1e-9);
  EXPECT_GE(obstacle.radius, config.obstacle_radius_min);
  EXPECT_LE(obstacle.radius, config.obstacle_radius_max);
}

TEST(Mission, MultipleObstaclesSupported) {
  MissionConfig config;
  config.num_obstacles = 3;
  const MissionSpec mission = generate_mission(config, 9);
  EXPECT_EQ(mission.obstacles.size(), 3);
}

TEST(Mission, MissionAxisIsUnitTowardDestination) {
  const MissionSpec mission = generate_mission(MissionConfig{}, 11);
  const Vec3 axis = mission_axis(mission);
  EXPECT_NEAR(axis.norm(), 1.0, 1e-12);
  EXPECT_GT(axis.x, 0.9);  // mission runs along +x
  EXPECT_DOUBLE_EQ(axis.z, 0.0);
}

// Property sweep: invariants hold across seeds and sizes (paper section V-A:
// spawn within 0-50 m, pairwise separation respected, obstacle on-path).
// num_drones is 64-bit so the struct has no padding: gtest names each case
// after the raw bytes of its parameter, and padding bytes are uninitialised.
struct MissionSweepParam {
  std::int64_t num_drones;
  std::uint64_t seed;
};

class MissionSweep : public ::testing::TestWithParam<MissionSweepParam> {};

TEST_P(MissionSweep, GeneratorInvariants) {
  MissionConfig config;
  config.num_drones = static_cast<int>(GetParam().num_drones);
  const MissionSpec mission = generate_mission(config, GetParam().seed);

  ASSERT_EQ(mission.num_drones(), config.num_drones);
  for (int i = 0; i < mission.num_drones(); ++i) {
    const Vec3& p = mission.initial_positions[static_cast<size_t>(i)];
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, config.spawn_range);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, config.spawn_range);
    EXPECT_DOUBLE_EQ(p.z, config.cruise_altitude);
    for (int j = i + 1; j < mission.num_drones(); ++j) {
      EXPECT_GE(math::distance_xy(p, mission.initial_positions[static_cast<size_t>(j)]),
                config.min_spawn_separation - 1e-9);
    }
    // No drone spawns inside the obstacle.
    EXPECT_GT(mission.obstacles.min_surface_distance(p), 0.0);
  }
  EXPECT_EQ(mission.seed, GetParam().seed);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, MissionSweep,
    ::testing::Values(MissionSweepParam{5, 1}, MissionSweepParam{5, 999},
                      MissionSweepParam{10, 2}, MissionSweepParam{10, 1234},
                      MissionSweepParam{15, 3}, MissionSweepParam{15, 31337},
                      MissionSweepParam{2, 4}, MissionSweepParam{25, 5}));

}  // namespace
}  // namespace swarmfuzz::sim
