// The collision check's pair-distance bound (DESIGN.md §9) must never change
// a result: on every tick of randomized multi-tick trajectories, a check that
// carries a PairDistanceBound returns exactly the event a fresh stateless
// check() returns, on the dense path (10 drones) and the grid path (64
// drones). Whole simulator runs at sim_threads 1, 2 and 3 must agree bit for
// bit.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "math/rng.h"
#include "sim/collision.h"
#include "sim/simulator.h"
#include "swarm/flocking_system.h"
#include "swarm/spatial_grid.h"
#include "swarm/vasarhelyi.h"

namespace swarmfuzz::sim {
namespace {

constexpr double kDt = 0.05;
constexpr double kRadius = 0.3;

// Drives one trajectory through a stateless check and a tracked check (one
// carried bound) tick by tick.
class PairBoundHarness {
 public:
  explicit PairBoundHarness(std::vector<Vec3> start, ObstacleField obstacles = {})
      : obstacles_(std::move(obstacles)) {
    for (const Vec3& p : start) states_.push_back(DroneState{p, Vec3{}});
  }

  [[nodiscard]] std::vector<DroneState>& states() { return states_; }
  [[nodiscard]] const PairDistanceBound& bound() const { return bound_; }
  [[nodiscard]] int events() const { return events_; }
  [[nodiscard]] int skipped() const { return skipped_; }

  // Moves every drone by `step(i)` and checks the resulting tick swept from
  // the previous positions; returns the stateless check's event.
  template <typename Step>
  std::optional<CollisionEvent> advance(Step&& step) {
    prev_.clear();
    for (const DroneState& s : states_) prev_.push_back(s.position);
    for (size_t i = 0; i < states_.size(); ++i) {
      states_[i].position += step(static_cast<int>(i));
    }
    return check(prev_);
  }

  // Moves drone `drone` to `position` and checks the tick swept.
  std::optional<CollisionEvent> teleport(int drone, const Vec3& position) {
    prev_.clear();
    for (const DroneState& s : states_) prev_.push_back(s.position);
    states_[static_cast<size_t>(drone)].position = position;
    return check(prev_);
  }

  // Checks the current positions without previous positions (point checks).
  std::optional<CollisionEvent> check_unswept() { return check({}); }

 private:
  std::optional<CollisionEvent> check(std::span<const Vec3> prev) {
    time_ += kDt;
    const std::optional<CollisionEvent> want =
        monitor_.check(states_, prev, obstacles_, time_);
    // A tick whose carried slack exceeds twice its largest displacement
    // (plus far more than the pads) is one the tracked check skips.
    double max_step = 0.0;
    if (prev.size() == states_.size()) {
      for (size_t i = 0; i < states_.size(); ++i) {
        max_step = std::max(max_step, (states_[i].position - prev[i]).norm());
      }
      if (bound_.slack > 2.0 * max_step + 1e-6) ++skipped_;
    }
    const std::optional<CollisionEvent> got =
        monitor_.check(states_, prev, obstacles_, time_, &bound_);
    EXPECT_EQ(got.has_value(), want.has_value()) << "t=" << time_;
    if (got && want) {
      EXPECT_EQ(got->kind, want->kind) << "t=" << time_;
      EXPECT_EQ(got->drone, want->drone) << "t=" << time_;
      EXPECT_EQ(got->other, want->other) << "t=" << time_;
      EXPECT_EQ(got->time, want->time);
    }
    if (got) {
      EXPECT_EQ(bound_.slack, 0.0) << "an event disarms the bound";
    }
    if (want) ++events_;
    return want;
  }

  CollisionMonitor monitor_{kRadius};
  ObstacleField obstacles_;
  std::vector<DroneState> states_;
  std::vector<Vec3> prev_;
  double time_ = 0.0;
  int events_ = 0;
  int skipped_ = 0;
  PairDistanceBound bound_;
};

// n drones on a jittered lattice of pitch `pitch` at cruise altitude.
std::vector<Vec3> lattice(int n, double pitch, math::Rng& rng) {
  const int side = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<Vec3> out;
  for (int i = 0; i < n; ++i) {
    out.emplace_back(pitch * (i % side) + rng.uniform(-0.2, 0.2),
                     pitch * (i / side) + rng.uniform(-0.2, 0.2),
                     10.0 + rng.uniform(-0.5, 0.5));
  }
  return out;
}

class CollisionPairBound : public ::testing::TestWithParam<int> {};

// Drones wander with bounded, randomly turning velocities (up to 4.5 m/s,
// the controller's v_max) in a box that keeps them close: contacts come and
// go, and the run continues past each one, as with stop_on_collision=false.
TEST_P(CollisionPairBound, RandomWalkMatchesStatelessCheck) {
  const int n = GetParam();
  math::Rng rng(1234 + static_cast<std::uint64_t>(n));
  PairBoundHarness h(lattice(n, 3.0, rng));
  std::vector<Vec3> velocity(static_cast<size_t>(n));
  const double box = 3.0 * std::ceil(std::sqrt(static_cast<double>(n)));
  for (int tick = 0; tick < 600; ++tick) {
    h.advance([&](int i) {
      Vec3& v = velocity[static_cast<size_t>(i)];
      v = (v + Vec3{rng.normal(0.0, 0.8), rng.normal(0.0, 0.8), rng.normal(0.0, 0.1)})
              .clamped(4.5);
      const Vec3& p = h.states()[static_cast<size_t>(i)].position;
      if ((p.x < 0.0 && v.x < 0.0) || (p.x > box && v.x > 0.0)) v.x = -v.x;
      if ((p.y < 0.0 && v.y < 0.0) || (p.y > box && v.y > 0.0)) v.y = -v.y;
      return v * kDt;
    });
  }
  EXPECT_GT(h.events(), 0) << "the walk must produce contacts";
  EXPECT_GT(h.skipped(), 100) << "the walk must exercise skipped pair scans";
}

// Pairs of drones fly head-on toward each other at different closing
// speeds, touch, pass through each other and separate.
TEST_P(CollisionPairBound, DronesClosingToContact) {
  const int n = GetParam();
  math::Rng rng(77 + static_cast<std::uint64_t>(n));
  PairBoundHarness h(lattice(n, 6.0, rng));
  const int side = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  int first_event_tick = -1;
  for (int tick = 0; tick < 200; ++tick) {
    const auto event = h.advance([&](int i) {
      // Neighbours in a row close on each other at 0.5 + 0.3 k m/s.
      if (i + 1 >= n || (i % side) % 2 == 1 || (i % side) + 1 >= side) {
        return (i % side) % 2 == 1 ? Vec3{-(0.5 + 0.3 * (i % 5)) * kDt, 0.0, 0.0}
                                   : Vec3{};
      }
      return Vec3{(0.5 + 0.3 * ((i + 1) % 5)) * kDt, 0.0, 0.0};
    });
    if (event && first_event_tick < 0) first_event_tick = tick;
  }
  EXPECT_GE(first_event_tick, 0);
  EXPECT_GT(h.skipped(), 10);
}

// A drone flies into an obstacle while the rest of the swarm cruises; the
// obstacle sweep runs every tick, including the ticks whose pair scan the
// bound skips.
TEST_P(CollisionPairBound, ObstacleHitFirst) {
  const int n = GetParam();
  math::Rng rng(5 + static_cast<std::uint64_t>(n));
  const std::vector<Vec3> start = lattice(n, 5.0, rng);
  // An obstacle just ahead of drone 0 on the -y side of the lattice, and a
  // pair of drones closing at the same time so both kinds are pending.
  PairBoundHarness h(start, ObstacleField({{Vec3{start[0].x, -3.0, 0.0}, 1.0}}));
  int obstacle_events = 0;
  for (int tick = 0; tick < 80; ++tick) {
    const auto event = h.advance([&](int i) {
      if (i == 0) return Vec3{0.0, -2.0 * kDt, 0.0};
      if (i == 1) return Vec3{-3.0 * kDt, 0.0, 0.0};
      return Vec3{1.0 * kDt, 0.5 * kDt, 0.0};
    });
    if (event && event->kind == CollisionKind::kDroneObstacle) ++obstacle_events;
  }
  EXPECT_GT(obstacle_events, 0);
  EXPECT_GT(h.skipped(), 5);
}

// After quiet ticks have armed the bound, one drone jumps further in a
// single tick than the slack allows, straight onto a neighbour.
TEST_P(CollisionPairBound, JumpLargerThanTheBound) {
  const int n = GetParam();
  math::Rng rng(99 + static_cast<std::uint64_t>(n));
  PairBoundHarness h(lattice(n, 6.0, rng));
  for (int tick = 0; tick < 5; ++tick) {
    EXPECT_FALSE(h.advance([](int) { return Vec3{0.1, 0.0, 0.0}; }));
  }
  ASSERT_GT(h.bound().slack, 1.0) << "quiet ticks arm the bound";
  const Vec3 target = h.states()[1].position + Vec3{0.2, 0.1, 0.0};
  const Vec3 jump = target - h.states()[0].position;
  const auto event = h.advance([&](int i) { return i == 0 ? jump : Vec3{}; });
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, CollisionKind::kDroneDrone);
  EXPECT_EQ(event->drone, 0);
  EXPECT_EQ(event->other, 1);
}

// The first tick has no previous positions: the tracked check must treat
// it as a full scan, with or without a contact, and carry on from there.
TEST_P(CollisionPairBound, FirstTickWithoutPreviousPositions) {
  const int n = GetParam();
  math::Rng rng(3 + static_cast<std::uint64_t>(n));
  std::vector<Vec3> start = lattice(n, 6.0, rng);
  PairBoundHarness clear_start(start);
  EXPECT_FALSE(clear_start.check_unswept());
  EXPECT_GT(clear_start.bound().slack, 0.0);
  start[n - 1] = start[n - 2] + Vec3{0.0, 0.5, 0.0};
  PairBoundHarness touching(start);
  const auto event = touching.check_unswept();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->drone, n - 2);
  for (PairBoundHarness* h : {&clear_start, &touching}) {
    for (int tick = 0; tick < 20; ++tick) {
      h->advance([&](int i) { return Vec3{0.0, i == n - 2 ? 0.2 : 0.0, 0.0}; });
    }
    // An unswept tick in mid-run scans in full and replaces the bound.
    h->check_unswept();
  }
}

// A non-finite displacement disarms the bound. A drone that goes NaN for a
// tick and then reappears on top of a neighbour has a NaN displacement on
// the tick it reappears; a bound that let the NaN drop out of the largest
// displacement would skip that tick's scan and miss the contact.
TEST_P(CollisionPairBound, NonFiniteDisplacementDisarms) {
  const int n = GetParam();
  math::Rng rng(8 + static_cast<std::uint64_t>(n));
  PairBoundHarness h(lattice(n, 6.0, rng));
  for (int tick = 0; tick < 3; ++tick) h.advance([](int) { return Vec3{0.1, 0.0, 0.0}; });
  ASSERT_GT(h.bound().slack, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(h.teleport(2, Vec3{nan, 0.0, 0.0}));
  const auto event = h.teleport(2, h.states()[3].position + Vec3{0.0, 0.3, 0.0});
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, CollisionKind::kDroneDrone);
  EXPECT_EQ(event->drone, 2);
  EXPECT_EQ(event->other, 3);
}

INSTANTIATE_TEST_SUITE_P(DenseAndGrid, CollisionPairBound, ::testing::Values(10, 64),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param < swarm::SpatialGridPolicy{}.min_drones
                                      ? "Dense"
                                      : "Grid";
                         });

// Whole missions on the grid path with the tick pool engaged: the carried
// bound must leave every sample and event bit-identical at 1, 2 and 3 sim
// threads, both for a run that stops at its first collision and for one
// that flies on through contacts.
void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.collided, b.collided);
  EXPECT_EQ(a.reached_destination, b.reached_destination);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.steps_executed, b.steps_executed);
  ASSERT_EQ(a.first_collision.has_value(), b.first_collision.has_value());
  if (a.first_collision) {
    EXPECT_EQ(a.first_collision->kind, b.first_collision->kind);
    EXPECT_EQ(a.first_collision->time, b.first_collision->time);
    EXPECT_EQ(a.first_collision->drone, b.first_collision->drone);
    EXPECT_EQ(a.first_collision->other, b.first_collision->other);
  }
  ASSERT_EQ(a.recorder.num_samples(), b.recorder.num_samples());
  for (int s = 0; s < a.recorder.num_samples(); ++s) {
    const auto sa = a.recorder.sample(s);
    const auto sb = b.recorder.sample(s);
    for (size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i].position, sb[i].position) << "sample " << s << " drone " << i;
      ASSERT_EQ(sa[i].velocity, sb[i].velocity) << "sample " << s << " drone " << i;
    }
  }
}

// Spoofs every drone's GPS with a lateral offset that swings in opposite
// directions for odd and even drones, which drives real drones into each
// other.
class SwingingSpoofer : public GpsOffsetProvider {
 public:
  [[nodiscard]] Vec3 offset(int drone, double time) const override {
    const double swing = time < 1.0 ? 0.0 : 6.0 * std::sin(0.8 * time);
    return Vec3{0.0, drone % 2 == 0 ? swing : -swing, 0.0};
  }
};

TEST(CollisionPairBound, WholeRunsAgreeAcrossSimThreads) {
  MissionConfig mission_config;
  mission_config.num_drones = 64;
  mission_config.spawn_range = 30.0;
  mission_config.min_spawn_separation = 3.0;
  mission_config.max_time = 12.0;
  const MissionSpec mission = generate_mission(mission_config, 4242);
  for (const bool stop_on_collision : {true, false}) {
    std::optional<RunResult> serial;
    for (int threads = 1; threads <= 3; ++threads) {
      SimulationConfig config;
      config.sim_threads = threads;
      config.stop_on_collision = stop_on_collision;
      const Simulator simulator(config);
      swarm::FlockingControlSystem system(std::make_shared<swarm::VasarhelyiController>());
      const SwingingSpoofer spoofer;
      RunResult run = simulator.run(mission, system, &spoofer);
      if (!serial) {
        EXPECT_TRUE(run.collided) << "the mission must exercise contacts";
        serial = std::move(run);
        continue;
      }
      SCOPED_TRACE(testing::Message() << "threads " << threads << " stop "
                                      << stop_on_collision);
      expect_same_run(run, *serial);
    }
  }
}

}  // namespace
}  // namespace swarmfuzz::sim
