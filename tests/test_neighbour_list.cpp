// The Vásárhelyi grid path's neighbour lists (DESIGN.md §14, "Neighbour
// lists") carry each drone's candidate list from tick to tick and rebuild
// only when the geometry says a list might be stale. They must never change
// a result: every scenario here is checked bit for bit against the dense
// pair scan (spatial_grid_policy().enabled = false) at 1, 2 and 3 lanes,
// both through whole simulator runs (missions back to back on one control
// system, a checkpoint resume, a probe_influence_radius call before every
// tick on the same thread, a spoofing offset opening) and through crafted
// ticks that put a list right at its limits (a straggler's re-gather on a
// reuse tick, a displacement just under and just over the rebuild rule).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "sim/simulator.h"
#include "swarm/flocking_system.h"
#include "swarm/spatial_grid.h"
#include "swarm/tick_context.h"
#include "swarm/vasarhelyi.h"
#include "util/worker_pool.h"

namespace swarmfuzz::swarm {
namespace {

// RAII save/restore for the process-wide grid policy.
class GridPolicyScope {
 public:
  GridPolicyScope(bool enabled, int min_drones) : saved_(spatial_grid_policy()) {
    spatial_grid_policy() = {enabled, min_drones};
  }
  ~GridPolicyScope() { spatial_grid_policy() = saved_; }
  GridPolicyScope(const GridPolicyScope&) = delete;
  GridPolicyScope& operator=(const GridPolicyScope&) = delete;

 private:
  SpatialGridPolicy saved_;
};

// --------------------------------------------------------- whole runs --

sim::MissionSpec swarm_mission(std::uint64_t seed, int drones = 64) {
  sim::MissionConfig config;
  config.num_drones = drones;
  config.max_time = 10.0;
  config.spawn_range =
      2.2 * config.min_spawn_separation * std::sqrt(static_cast<double>(drones));
  return sim::generate_mission(config, seed);
}

sim::Simulator simulator(int threads, bool stop_on_collision = true) {
  sim::SimulationConfig config;
  config.sim_threads = threads;
  config.stop_on_collision = stop_on_collision;
  return sim::Simulator(config);
}

void expect_same_run(const sim::RunResult& got, const sim::RunResult& want) {
  EXPECT_EQ(got.collided, want.collided);
  EXPECT_EQ(got.reached_destination, want.reached_destination);
  EXPECT_EQ(got.end_time, want.end_time);
  ASSERT_EQ(got.first_collision.has_value(), want.first_collision.has_value());
  if (got.first_collision) {
    EXPECT_EQ(got.first_collision->time, want.first_collision->time);
    EXPECT_EQ(got.first_collision->drone, want.first_collision->drone);
    EXPECT_EQ(got.first_collision->other, want.first_collision->other);
  }
  ASSERT_EQ(got.recorder.num_samples(), want.recorder.num_samples());
  for (int s = 0; s < got.recorder.num_samples(); ++s) {
    const std::span<const sim::DroneState> a = got.recorder.sample(s);
    const std::span<const sim::DroneState> b = want.recorder.sample(s);
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].position, b[i].position) << "sample " << s << " drone " << i;
      ASSERT_EQ(a[i].velocity, b[i].velocity) << "sample " << s << " drone " << i;
    }
  }
}

// The dense reference: grid off, serial, a fresh control system.
sim::RunResult dense_run(const sim::MissionSpec& mission,
                         const sim::GpsOffsetProvider* spoofer = nullptr,
                         bool stop_on_collision = true) {
  const GridPolicyScope dense(false, SpatialGridPolicy{}.min_drones);
  FlockingControlSystem system(std::make_shared<VasarhelyiController>());
  return simulator(1, stop_on_collision).run(mission, system, spoofer);
}

// A Vásárhelyi controller that counts the batch ticks which reused the
// neighbour lists (their build positions differ from the tick's), so a test
// can show its runs exercise both reuse and rebuild ticks.
class ReuseCounter final : public SwarmController {
 public:
  using SwarmController::desired_velocity;
  using SwarmController::desired_velocity_all;
  [[nodiscard]] Vec3 desired_velocity(const NeighborView& view,
                                      const MissionSpec& mission) const override {
    return inner_.desired_velocity(view, mission);
  }
  void desired_velocity_all(const WorldSnapshot& snapshot, const MissionSpec& mission,
                            std::span<Vec3> desired,
                            const TickExecutor& exec) const override {
    inner_.desired_velocity_all(snapshot, mission, desired, exec);
    TickContext& ctx = exec.context != nullptr ? *exec.context : thread_tick_context();
    reused_.push_back(ctx.neighbour_lists().pos0 != snapshot.gps_position);
  }
  [[nodiscard]] std::string_view name() const noexcept override { return inner_.name(); }

  [[nodiscard]] int ticks() const { return static_cast<int>(reused_.size()); }
  [[nodiscard]] int reuses() const {
    return static_cast<int>(std::count(reused_.begin(), reused_.end(), true));
  }
  [[nodiscard]] int rebuilds() const { return ticks() - reuses(); }
  // Whether batch tick `tick` (counted from the first) reused the lists.
  [[nodiscard]] bool reused(int tick) const {
    return reused_.at(static_cast<size_t>(tick));
  }

 private:
  VasarhelyiController inner_;
  mutable std::vector<bool> reused_;
};

// Grid-on runs of one control system, whose controller counts list reuse.
struct CountedSystem {
  std::shared_ptr<ReuseCounter> counter = std::make_shared<ReuseCounter>();
  FlockingControlSystem system{counter};

  void expect_reuse_and_rebuild() const {
    EXPECT_GT(counter->reuses(), 0);
    EXPECT_GT(counter->rebuilds(), 0);
  }
};

TEST(NeighbourList, BackToBackMissionsMatchDense) {
  const sim::MissionSpec first = swarm_mission(71);
  const sim::MissionSpec second = swarm_mission(72);
  const sim::RunResult want_first = dense_run(first);
  const sim::RunResult want_second = dense_run(second);
  for (int threads = 1; threads <= 3; ++threads) {
    SCOPED_TRACE(testing::Message() << "sim_threads " << threads);
    const sim::Simulator sim = simulator(threads);
    CountedSystem counted;
    // The second and third flights start with the lists another flight left.
    expect_same_run(sim.run(first, counted.system), want_first);
    expect_same_run(sim.run(second, counted.system), want_second);
    expect_same_run(sim.run(second, counted.system), want_second);
    counted.expect_reuse_and_rebuild();
  }
}

class VectorSink final : public sim::CheckpointSink {
 public:
  void on_checkpoint(sim::SimulationCheckpoint&& checkpoint) override {
    checkpoints.push_back(std::move(checkpoint));
  }
  std::vector<sim::SimulationCheckpoint> checkpoints;
};

TEST(NeighbourList, CheckpointResumeMatchesDense) {
  const sim::MissionSpec mission = swarm_mission(73);
  const sim::RunResult want = dense_run(mission);

  for (int threads = 1; threads <= 3; ++threads) {
    SCOPED_TRACE(testing::Message() << "sim_threads " << threads);
    const sim::Simulator sim = simulator(threads);
    CountedSystem counted;
    FlockingControlSystem& system = counted.system;
    VectorSink sink;
    sim::RunHooks hooks;
    hooks.checkpoints = &sink;
    hooks.checkpoint_period = 2.0;
    const sim::RunResult full = sim.run(mission, system, hooks);
    expect_same_run(full, want);
    ASSERT_GE(sink.checkpoints.size(), 3u);
    const sim::SimulationCheckpoint& mid = sink.checkpoints[sink.checkpoints.size() / 2];

    // From the lists the full flight left at its end (a rebuild), and from
    // lists a prefix flight left right at the checkpoint (reused across the
    // restore).
    expect_same_run(sim.run_from(mid, full.recorder, mission, system), want);
    sim::MissionSpec prefix = mission;
    prefix.max_time = mid.time;
    (void)sim.run(prefix, system);
    const int reuses = counted.counter->reuses();
    expect_same_run(sim.run_from(mid, full.recorder, mission, system), want);
    counted.expect_reuse_and_rebuild();
    EXPECT_GT(counted.counter->reuses(), reuses);
  }
}

// A threaded prefix flight to a checkpoint leaves the lists at the
// checkpoint's positions; unbinding the pool at the end of that run must
// keep them, so the run_from that checkpoint reuses them on its first batch
// tick.
TEST(NeighbourList, ResumeAfterThreadedPrefixReusesLists) {
  const sim::MissionSpec mission = swarm_mission(77);
  const sim::RunResult want = dense_run(mission);
  for (int threads = 1; threads <= 3; ++threads) {
    SCOPED_TRACE(testing::Message() << "sim_threads " << threads);
    const sim::Simulator sim = simulator(threads);
    CountedSystem counted;
    VectorSink sink;
    sim::RunHooks hooks;
    hooks.checkpoints = &sink;
    hooks.checkpoint_period = 2.0;
    const sim::RunResult full = sim.run(mission, counted.system, hooks);
    ASSERT_GE(sink.checkpoints.size(), 2u);
    const sim::SimulationCheckpoint& mid = sink.checkpoints[sink.checkpoints.size() / 2];

    sim::MissionSpec prefix = mission;
    prefix.max_time = mid.time;
    (void)sim.run(prefix, counted.system);
    const int first = counted.counter->ticks();
    expect_same_run(sim.run_from(mid, full.recorder, mission, counted.system), want);
    ASSERT_GT(counted.counter->ticks(), first);
    EXPECT_TRUE(counted.counter->reused(first));
  }
}

// Calls probe_influence_radius, which rebuilds the thread's tick-context
// grid from other positions, before every batch evaluation, and runs the
// batch on that same thread-local context.
class ProbingSystem final : public sim::ControlSystem {
 public:
  void reset(const sim::MissionSpec& /*mission*/, std::uint64_t /*seed*/) override {}
  void set_tick_pool(util::WorkerPool* pool) override {
    pool_ = pool;
    thread_tick_context().resize_lanes(pool != nullptr ? pool->threads() : 1);
  }
  void compute(const sim::WorldSnapshot& snapshot, const sim::MissionSpec& mission,
               std::span<Vec3> desired) override {
    radius_sum_ += controller_.probe_influence_radius(snapshot, mission);
    controller_.desired_velocity_all(snapshot, mission, desired,
                                     TickExecutor{pool_, &thread_tick_context()});
    if (thread_tick_context().neighbour_lists().pos0 != snapshot.gps_position) ++reuses_;
  }
  [[nodiscard]] double radius_sum() const { return radius_sum_; }
  [[nodiscard]] int reuses() const { return reuses_; }

 private:
  VasarhelyiController controller_;
  util::WorkerPool* pool_ = nullptr;
  double radius_sum_ = 0.0;
  int reuses_ = 0;
};

TEST(NeighbourList, ProbeInfluenceRadiusInterleavedOnTheSameThread) {
  const sim::MissionSpec mission = swarm_mission(74);
  const sim::RunResult want = dense_run(mission);
  for (int threads = 1; threads <= 3; ++threads) {
    SCOPED_TRACE(testing::Message() << "sim_threads " << threads);
    ProbingSystem system;
    expect_same_run(simulator(threads).run(mission, system), want);
    EXPECT_GT(system.radius_sum(), 0.0);
    EXPECT_GT(system.reuses(), 0);
  }
}

// Drones 0, 4, 8, ... get a GPS offset that opens from 0 to 10 m across
// one second, starting at t = 3 s.
class OpeningSpoofer final : public sim::GpsOffsetProvider {
 public:
  [[nodiscard]] Vec3 offset(int drone, double time) const override {
    if (drone % 4 != 0 || time < 3.0) return {};
    return Vec3{10.0 * std::min(time - 3.0, 1.0), 0.0, 0.0};
  }
};

TEST(NeighbourList, SpoofingOffsetOpeningMatchesDense) {
  const sim::MissionSpec mission = swarm_mission(75);
  const OpeningSpoofer spoofer;
  const sim::RunResult want = dense_run(mission, &spoofer, false);
  for (int threads = 1; threads <= 3; ++threads) {
    SCOPED_TRACE(testing::Message() << "sim_threads " << threads);
    CountedSystem counted;
    expect_same_run(simulator(threads, false).run(mission, counted.system, &spoofer),
                    want);
    counted.expect_reuse_and_rebuild();
  }
}

// ------------------------------------------------------- crafted ticks --

// One controller evaluated tick by tick over a crafted swarm, on the
// thread's own tick context widened to `lanes` lanes (with a pool of that
// width when lanes > 1), the context every serial caller shares; every tick
// is compared bit for bit with the dense scan.
class CraftedTicks {
 public:
  explicit CraftedTicks(int lanes) : pool_(lanes) {
    thread_tick_context().resize_lanes(lanes);
  }
  ~CraftedTicks() { thread_tick_context().resize_lanes(1); }
  CraftedTicks(const CraftedTicks&) = delete;
  CraftedTicks& operator=(const CraftedTicks&) = delete;

  // Evaluates `snapshot` on the grid path and checks it against the dense
  // path; returns whether the tick rebuilt the lists.
  bool tick(const sim::WorldSnapshot& snapshot) {
    const int n = snapshot.size();
    std::vector<Vec3> want(static_cast<size_t>(n));
    {
      const GridPolicyScope dense(false, SpatialGridPolicy{}.min_drones);
      controller_.desired_velocity_all(snapshot, mission_, want, {});
    }
    std::vector<Vec3> got(static_cast<size_t>(n));
    controller_.desired_velocity_all(
        snapshot, mission_, got,
        TickExecutor{pool_.threads() > 1 ? &pool_ : nullptr, &thread_tick_context()});
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(got[static_cast<size_t>(i)], want[static_cast<size_t>(i)])
          << "drone " << i;
    }
    return lists().pos0 == snapshot.gps_position;
  }

  // A spoof probe on a counterfactual snapshot: rebuilds the context's
  // shared grid from those positions.
  void probe(const sim::WorldSnapshot& snapshot) {
    EXPECT_GT(controller_.probe_influence_radius(snapshot, mission_), 0.0);
  }

  [[nodiscard]] const NeighbourLists& lists() {
    return thread_tick_context().neighbour_lists();
  }

 private:
  const GridPolicyScope grid_{true, 2};
  VasarhelyiController controller_;
  sim::MissionSpec mission_ = swarm_mission(76, 2);
  util::WorkerPool pool_;
};

sim::WorldSnapshot snapshot_of(const std::vector<Vec3>& positions,
                               const std::vector<Vec3>& velocities) {
  sim::WorldSnapshot snapshot;
  snapshot.resize(static_cast<int>(positions.size()));
  for (size_t i = 0; i < positions.size(); ++i) {
    snapshot.id[i] = static_cast<int>(i);
    snapshot.gps_position[i] = positions[i];
    snapshot.velocity[i] = velocities[i];
  }
  return snapshot;
}

Vec3 polar(double radius, double degrees) {
  const double a = degrees * std::acos(-1.0) / 180.0;
  return Vec3{radius * std::cos(a), radius * std::sin(a), 10.0};
}

// A straggler S (drone 0) has no neighbour within r_pair, so it re-gathers
// at 2 r_pair from the lists' grid. On the reuse tick drone 1 has moved
// from just beyond 2 r_pair of S to just within it, nearer than drones 2-4,
// which sit still just within 2 r_pair: S's re-gather must widen by D to
// find drone 1 among the build-time positions, or it certifies the wrong
// k_att nearest. A spoof probe between the ticks rebuilds the thread
// context's shared grid with drone 1 pushed away; the re-gather must not
// read that grid either.
TEST(NeighbourList, StragglerRegatherOnAReuseTick) {
  for (int lanes = 1; lanes <= 3; ++lanes) {
    SCOPED_TRACE(testing::Message() << "lanes " << lanes);
    CraftedTicks ticks(lanes);
    const std::vector<Vec3> velocities(5, Vec3{1.0, 0.0, 0.0});
    std::vector<Vec3> positions = {polar(0.0, 0.0), polar(500.0, 0.0),
                                   polar(500.0, 90.0), polar(500.0, 180.0),
                                   polar(500.0, 270.0)};
    ASSERT_TRUE(ticks.tick(snapshot_of(positions, velocities)));
    const double r_pair = ticks.lists().radius - kNeighbourListSkin;

    positions = {polar(0.0, 0.0), polar(2.0 * r_pair + 0.1, 0.0),
                 polar(2.0 * r_pair - 0.1, 90.0), polar(2.0 * r_pair - 0.1, 180.0),
                 polar(2.0 * r_pair - 0.1, 270.0)};
    ASSERT_TRUE(ticks.tick(snapshot_of(positions, velocities)));
    std::vector<Vec3> spoofed = positions;
    spoofed[1] = polar(2.0 * r_pair + 50.0, 0.0);
    ticks.probe(snapshot_of(spoofed, velocities));
    positions[1] = polar(2.0 * r_pair - 0.2, 0.0);
    EXPECT_FALSE(ticks.tick(snapshot_of(positions, velocities)))
        << "a 0.3 m move stays inside the skin";
  }
}

// Drone 0 (A) has three neighbours 2-4 (C) just within r_pair; drone 1 (B)
// starts `b0_minus_radius` beyond the lists' radius from A, on the other
// side. On the next tick A and the Cs
// move `step` toward B and B moves `step` toward A: every pair distance
// within the group is unchanged, A-B shrinks by 2 step and B becomes A's
// nearest neighbour. Drone 5 idles far away with a velocity that lifts
// r_pair above r0_att, so the attraction term sees every selection.
// Returns whether the second tick rebuilt.
bool move_pair_across(int lanes, double b0_minus_radius, double step) {
  CraftedTicks ticks(lanes);
  const std::vector<Vec3> velocities = {
      Vec3{1.0, 0.0, 0.0}, Vec3{1.0, 0.0, 0.0}, Vec3{1.0, 0.0, 0.0},
      Vec3{1.0, 0.0, 0.0}, Vec3{1.0, 0.0, 0.0}, Vec3{1.0, 3.0, 0.0}};
  const Vec3 far = polar(1000.0, 45.0);
  std::vector<Vec3> positions = {polar(0.0, 0.0),    polar(300.0, 0.0),
                                 polar(300.0, 120.0), polar(300.0, 180.0),
                                 polar(300.0, 240.0), far};
  EXPECT_TRUE(ticks.tick(snapshot_of(positions, velocities)));
  const double radius = ticks.lists().radius;
  const double r_pair = radius - kNeighbourListSkin;
  EXPECT_GT(r_pair, VasarhelyiParams{}.r0_att);

  const double c = r_pair - 5e-4;
  positions = {polar(0.0, 0.0),   polar(radius + b0_minus_radius, 0.0),
               polar(c, 120.0),   polar(c, 180.0),
               polar(c, 240.0),   far};
  EXPECT_TRUE(ticks.tick(snapshot_of(positions, velocities)));
  for (size_t i = 0; i < 5; ++i) positions[i].x += i == 1 ? -step : step;
  EXPECT_LT((positions[0] - positions[1]).norm_xy(), c) << "B is A's nearest";
  return ticks.tick(snapshot_of(positions, velocities));
}

TEST(NeighbourList, DisplacementJustUnderTheRebuildThresholdReuses) {
  // B starts inside the lists' radius and ends within r_pair.
  for (int lanes = 1; lanes <= 3; ++lanes) {
    SCOPED_TRACE(testing::Message() << "lanes " << lanes);
    EXPECT_FALSE(move_pair_across(lanes, -4e-3, 0.5 * kNeighbourListSkin - 1e-3));
  }
}

TEST(NeighbourList, DisplacementJustOverTheRebuildThresholdRebuilds) {
  // B starts outside the lists' radius, so A's list lacks it: only a
  // rebuild finds it within r_pair.
  for (int lanes = 1; lanes <= 3; ++lanes) {
    SCOPED_TRACE(testing::Message() << "lanes " << lanes);
    EXPECT_TRUE(move_pair_across(lanes, 1e-3, 0.5 * kNeighbourListSkin + 1e-3));
  }
}

}  // namespace
}  // namespace swarmfuzz::swarm
