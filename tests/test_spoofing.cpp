#include "attack/spoofing.h"

#include <gtest/gtest.h>

#include <limits>

namespace swarmfuzz::attack {
namespace {

sim::MissionSpec mission_along_x() {
  sim::MissionSpec mission;
  mission.initial_positions = {{0, 0, 10}, {10, 0, 10}};
  mission.destination = {200, 0, 10};  // mission axis = +x
  return mission;
}

TEST(SpoofDirection, SignsAndNames) {
  EXPECT_EQ(direction_sign(SpoofDirection::kRight), 1);
  EXPECT_EQ(direction_sign(SpoofDirection::kLeft), -1);
  EXPECT_EQ(direction_name(SpoofDirection::kRight), "right");
  EXPECT_EQ(direction_name(SpoofDirection::kLeft), "left");
  EXPECT_EQ(opposite(SpoofDirection::kRight), SpoofDirection::kLeft);
  EXPECT_EQ(opposite(SpoofDirection::kLeft), SpoofDirection::kRight);
}

TEST(SpoofingPlan, ActiveWindowIsHalfOpen) {
  const SpoofingPlan plan{.target = 0, .start_time = 10.0, .duration = 5.0};
  EXPECT_FALSE(plan.active_at(9.99));
  EXPECT_TRUE(plan.active_at(10.0));
  EXPECT_TRUE(plan.active_at(14.99));
  EXPECT_FALSE(plan.active_at(15.0));
}

TEST(SpoofingPlan, ToStringMentionsAllParameters) {
  const SpoofingPlan plan{.target = 3,
                          .direction = SpoofDirection::kLeft,
                          .start_time = 12.5,
                          .duration = 8.0,
                          .distance = 5.0};
  const std::string s = plan.to_string();
  EXPECT_NE(s.find("target=3"), std::string::npos);
  EXPECT_NE(s.find("left"), std::string::npos);
  EXPECT_NE(s.find("12.50"), std::string::npos);
  EXPECT_NE(s.find("8.00"), std::string::npos);
  EXPECT_NE(s.find("5.0"), std::string::npos);
}

TEST(Spoofer, RejectsInvalidPlans) {
  const sim::MissionSpec mission = mission_along_x();
  EXPECT_THROW(GpsSpoofer(SpoofingPlan{.target = 5}, mission), std::invalid_argument);
  EXPECT_THROW(GpsSpoofer(SpoofingPlan{.target = -1}, mission), std::invalid_argument);
  EXPECT_THROW(GpsSpoofer(SpoofingPlan{.target = 0, .start_time = -1.0}, mission),
               std::invalid_argument);
  EXPECT_THROW(GpsSpoofer(SpoofingPlan{.target = 0, .duration = -1.0}, mission),
               std::invalid_argument);
  EXPECT_THROW(GpsSpoofer(SpoofingPlan{.target = 0, .distance = -5.0}, mission),
               std::invalid_argument);
}

TEST(Spoofer, RejectsNonFinitePlans) {
  // NaN compares false against 0, so a `< 0` check alone let it through.
  const sim::MissionSpec mission = mission_along_x();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    EXPECT_THROW(GpsSpoofer(SpoofingPlan{.target = 0, .start_time = bad}, mission),
                 std::invalid_argument);
    EXPECT_THROW(GpsSpoofer(SpoofingPlan{.target = 0, .duration = bad}, mission),
                 std::invalid_argument);
    EXPECT_THROW(GpsSpoofer(SpoofingPlan{.target = 0, .distance = bad}, mission),
                 std::invalid_argument);
  }
}

TEST(Spoofer, RightSpoofingIsNegativeYForXAxisMission) {
  // Mission axis +x, left = +y, so spoofing right = -y.
  const SpoofingPlan plan{.target = 1,
                          .direction = SpoofDirection::kRight,
                          .start_time = 0.0,
                          .duration = 10.0,
                          .distance = 10.0};
  const GpsSpoofer spoofer(plan, mission_along_x());
  const Vec3 offset = spoofer.offset(1, 5.0);
  EXPECT_NEAR(offset.y, -10.0, 1e-9);
  EXPECT_NEAR(offset.x, 0.0, 1e-9);
  EXPECT_NEAR(offset.z, 0.0, 1e-9);
}

TEST(Spoofer, LeftSpoofingIsOpposite) {
  const SpoofingPlan plan{.target = 1,
                          .direction = SpoofDirection::kLeft,
                          .start_time = 0.0,
                          .duration = 10.0,
                          .distance = 10.0};
  const GpsSpoofer spoofer(plan, mission_along_x());
  EXPECT_NEAR(spoofer.offset(1, 5.0).y, 10.0, 1e-9);
}

TEST(Spoofer, OffsetOnlyForTargetAndWindow) {
  const SpoofingPlan plan{.target = 1,
                          .direction = SpoofDirection::kRight,
                          .start_time = 10.0,
                          .duration = 5.0,
                          .distance = 10.0};
  const GpsSpoofer spoofer(plan, mission_along_x());
  EXPECT_EQ(spoofer.offset(0, 12.0), Vec3{});   // wrong drone
  EXPECT_EQ(spoofer.offset(1, 9.0), Vec3{});    // before window
  EXPECT_EQ(spoofer.offset(1, 15.0), Vec3{});   // after window
  EXPECT_NE(spoofer.offset(1, 12.0), Vec3{});   // active
}

TEST(Spoofer, OffsetMagnitudeEqualsDistance) {
  const SpoofingPlan plan{.target = 0,
                          .direction = SpoofDirection::kRight,
                          .start_time = 0.0,
                          .duration = 1.0,
                          .distance = 5.0};
  const GpsSpoofer spoofer(plan, mission_along_x());
  EXPECT_NEAR(spoofer.active_offset().norm(), 5.0, 1e-9);
}

TEST(Spoofer, HorizontalConstantSpoofing) {
  // The offset is horizontal (no z component), the paper's horizontal
  // constant spoofing model.
  sim::MissionSpec mission = mission_along_x();
  mission.destination = {150, 80, 10};  // diagonal mission axis
  const SpoofingPlan plan{.target = 0,
                          .direction = SpoofDirection::kRight,
                          .start_time = 0.0,
                          .duration = 1.0,
                          .distance = 10.0};
  const GpsSpoofer spoofer(plan, mission);
  const Vec3 offset = spoofer.active_offset();
  EXPECT_DOUBLE_EQ(offset.z, 0.0);
  EXPECT_NEAR(offset.norm(), 10.0, 1e-9);
  // Perpendicular to the mission axis.
  EXPECT_NEAR(offset.dot(sim::mission_axis(mission)), 0.0, 1e-9);
}

}  // namespace
}  // namespace swarmfuzz::attack
