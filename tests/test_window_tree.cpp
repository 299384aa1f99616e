// Window-tree reuse (DESIGN.md §10): spoofing windows that share t_s fly
// identical offsets until the shortest of them closes at T = t_s + min Δt,
// so a checkpoint captured there by one member (RunHooks::branch_sink) is a
// valid resume point for every other. Pins that at the simulator (bit for
// bit against full flights, over vehicle models, lossy comm, the navigation
// filter, GPS hold-last-fix, both directions, T on and off a tick), at the
// objective (a batched stencil equals pointwise evaluation in fewer steps;
// a head that ends before T hands nothing over) and across the serial and
// pooled evaluate_groups paths (identical counters and memo contents).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "attack/spoofing.h"
#include "fuzz/campaign.h"
#include "fuzz/eval_pool.h"
#include "fuzz/objective.h"
#include "fuzz/seeds.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"
#include "swarm/flocking_system.h"
#include "swarm/vasarhelyi.h"

namespace swarmfuzz {
namespace {

class CheckpointLog final : public sim::CheckpointSink {
 public:
  void on_checkpoint(sim::SimulationCheckpoint&& checkpoint) override {
    log.push_back(std::move(checkpoint));
  }
  std::vector<sim::SimulationCheckpoint> log;
};

// Records every loop-top time of a run.
class TickTimes final : public sim::StepObserver {
 public:
  void on_step(double time, const sim::WorldSnapshot&,
               std::span<const sim::DroneState>) override {
    times.push_back(time);
  }
  std::vector<double> times;
};

void expect_bit_identical(const sim::RunResult& got, const sim::RunResult& want) {
  EXPECT_EQ(got.collided, want.collided);
  EXPECT_EQ(got.reached_destination, want.reached_destination);
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.steps_executed + got.steps_resumed,
            want.steps_executed + want.steps_resumed);
  ASSERT_EQ(got.first_collision.has_value(), want.first_collision.has_value());
  if (got.first_collision) {
    EXPECT_EQ(got.first_collision->kind, want.first_collision->kind);
    EXPECT_EQ(got.first_collision->time, want.first_collision->time);
    EXPECT_EQ(got.first_collision->drone, want.first_collision->drone);
    EXPECT_EQ(got.first_collision->other, want.first_collision->other);
  }
  const sim::Recorder& a = got.recorder;
  const sim::Recorder& b = want.recorder;
  EXPECT_EQ(a.closest_time(), b.closest_time());
  ASSERT_EQ(a.num_samples(), b.num_samples());
  for (int i = 0; i < a.num_drones(); ++i) {
    EXPECT_EQ(a.min_obstacle_distance(i), b.min_obstacle_distance(i)) << "drone " << i;
    EXPECT_EQ(a.time_of_min_obstacle_distance(i), b.time_of_min_obstacle_distance(i))
        << "drone " << i;
  }
  for (int s = 0; s < a.num_samples(); ++s) {
    ASSERT_EQ(a.times()[static_cast<size_t>(s)], b.times()[static_cast<size_t>(s)]);
    for (int i = 0; i < a.num_drones(); ++i) {
      const sim::DroneState& da = a.sample(s)[static_cast<size_t>(i)];
      const sim::DroneState& db = b.sample(s)[static_cast<size_t>(i)];
      ASSERT_EQ(da.position.x, db.position.x) << "sample " << s << " drone " << i;
      ASSERT_EQ(da.position.y, db.position.y) << "sample " << s << " drone " << i;
      ASSERT_EQ(da.velocity.x, db.velocity.x) << "sample " << s << " drone " << i;
      ASSERT_EQ(da.velocity.y, db.velocity.y) << "sample " << s << " drone " << i;
    }
  }
}

struct TreeCase {
  std::string name;
  sim::VehicleType vehicle = sim::VehicleType::kPointMass;
  swarm::CommConfig comm{};
  bool nav_filter = false;
  double gps_rate_hz = 20.0;
};

void PrintTo(const TreeCase& c, std::ostream* os) { *os << c.name; }

class WindowTreeResume : public ::testing::TestWithParam<TreeCase> {};

// A head window (t_s, Δt + 1) captures at T = t_s + Δt; the siblings
// (t_s, Δt) and (t_s, Δt + 2), resumed from that checkpoint with the head's
// recorder, equal their own full flights.
TEST_P(WindowTreeResume, SiblingsResumedFromTheBranchEqualFullFlights) {
  const TreeCase& c = GetParam();
  sim::MissionConfig mission_config;
  mission_config.num_drones = 10;
  const sim::MissionSpec mission = sim::generate_mission(mission_config, 77);
  sim::SimulationConfig config;
  config.vehicle = c.vehicle;
  config.gps.noise_stddev = 0.4;  // so the GPS RNG stream matters
  config.gps.rate_hz = c.gps_rate_hz;
  config.use_navigation_filter = c.nav_filter;
  const sim::Simulator simulator(config);
  auto system = swarm::make_vasarhelyi_system(c.comm);

  TickTimes ticks;
  (void)simulator.run(mission, *system, nullptr, &ticks);
  ASSERT_GT(ticks.times.size(), 700u);

  for (const attack::SpoofDirection direction :
       {attack::SpoofDirection::kLeft, attack::SpoofDirection::kRight}) {
    for (const bool on_tick : {true, false}) {
      // On a tick: t_s and T are loop-top times, and t_s + Δt reproduces T
      // exactly (Sterbenz: T/2 <= t_s <= T). Off a tick: T falls between
      // two loop-tops.
      const double t_start = on_tick ? ticks.times[400] : 20.0;
      const double shortest = on_tick ? ticks.times[600] - t_start : 10.02;
      const double branch_time = t_start + shortest;
      if (on_tick) {
        ASSERT_EQ(branch_time, ticks.times[600]);
      }
      SCOPED_TRACE(c.name + (direction == attack::SpoofDirection::kLeft ? " left" : " right") +
                   (on_tick ? " on-tick" : " off-tick"));

      const auto plan = [&](double duration) {
        return attack::SpoofingPlan{.target = 2, .direction = direction,
                                    .start_time = t_start, .duration = duration,
                                    .distance = 10.0};
      };
      const attack::GpsSpoofer head_spoofer(plan(shortest + 1.0), mission);
      CheckpointLog branch;
      const sim::RunResult head = simulator.run(
          mission, *system,
          sim::RunHooks{.spoofer = &head_spoofer, .branch_sink = &branch,
                        .branch_time = branch_time});
      ASSERT_EQ(branch.log.size(), 1u);
      const sim::SimulationCheckpoint& cp = branch.log.front();
      EXPECT_LE(cp.time, branch_time);
      EXPECT_GT(cp.time + config.dt, branch_time);
      if (on_tick) {
        EXPECT_EQ(cp.time, branch_time);
      }

      // Capturing does not perturb the capturing run.
      expect_bit_identical(head, simulator.run(mission, *system, &head_spoofer));

      std::vector<sim::RunResult> fulls;
      for (const double duration : {shortest, shortest + 2.0}) {
        const attack::GpsSpoofer spoofer(plan(duration), mission);
        sim::RunResult full = simulator.run(mission, *system, &spoofer);
        const sim::RunResult resumed = simulator.run(
            mission, *system,
            sim::RunHooks{.spoofer = &spoofer, .resume_from = &cp,
                          .resume_recorder = &head.recorder});
        expect_bit_identical(resumed, full);
        EXPECT_EQ(resumed.steps_resumed, cp.steps);
        fulls.push_back(std::move(full));
      }
      // The windows really differ after T, so the resumes prove something.
      const int late = fulls[0].recorder.sample_index_at(branch_time + 3.0);
      EXPECT_NE(fulls[0].recorder.sample(late)[2].position.y,
                fulls[1].recorder.sample(late)[2].position.y);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowTree, WindowTreeResume,
    ::testing::Values(
        TreeCase{.name = "PointMass"},
        TreeCase{.name = "Quadrotor", .vehicle = sim::VehicleType::kQuadrotor},
        TreeCase{.name = "RangeLimitedPacketDrop",
                 .comm = {.range = 40.0, .drop_probability = 0.15}},
        TreeCase{.name = "NavFilter", .nav_filter = true},
        TreeCase{.name = "GpsHoldLastFix", .gps_rate_hz = 5.0}),
    [](const ::testing::TestParamInfo<TreeCase>& info) { return info.param.name; });

sim::MissionSpec table1_mission(int index) {
  sim::MissionConfig config;
  config.num_drones = 10;
  return sim::generate_mission(config, fuzz::mission_seed(1000, index, 0));
}

// A Table I mission with its clean run's prefix cache.
struct Fixture {
  explicit Fixture(int index)
      : mission(table1_mission(index)),
        clean(simulator.run(mission, *system, sim::RunHooks{.checkpoints = &prefix})) {
    prefix.set_source(clean.recorder);
  }
  [[nodiscard]] fuzz::Objective objective(const fuzz::Seed& seed,
                                          fuzz::EvalPool* pool = nullptr) {
    return fuzz::Objective(mission, simulator, *system, seed, 10.0, clean.end_time,
                           &prefix, nullptr, pool);
  }

  sim::MissionSpec mission;
  sim::Simulator simulator{sim::SimulationConfig{}};
  std::unique_ptr<swarm::FlockingControlSystem> system =
      swarm::make_vasarhelyi_system();
  fuzz::PrefixCache prefix;
  sim::RunResult clean;
};

void expect_same_eval(const fuzz::ObjectiveEval& a, const fuzz::ObjectiveEval& b) {
  EXPECT_EQ(a.f, b.f);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.crashed_drone, b.crashed_drone);
  EXPECT_EQ(a.target_caused, b.target_caused);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.drone_clearance, b.drone_clearance);
  EXPECT_EQ(a.min_clearance_time, b.min_clearance_time);
  EXPECT_EQ(a.min_avg_separation, b.min_avg_separation);
}

// The optimizer's gradient batch: the centre and the four-point stencil.
std::vector<fuzz::EvalRequest> stencil(double t_start, double duration) {
  return {{t_start, duration},
          {t_start + 1.0, duration},
          {t_start - 1.0, duration},
          {t_start, duration + 1.0},
          {t_start, duration - 1.0}};
}

TEST(WindowTree, StencilBatchMatchesPointwiseEvaluationInFewerSteps) {
  std::int64_t batched_steps = 0;
  std::int64_t pointwise_steps = 0;
  for (const int index : {0, 1}) {
    Fixture f(index);
    const std::vector<fuzz::Seed> seeds =
        fuzz::schedule_seeds(f.clean, f.mission, *f.system, 10.0);
    ASSERT_GE(seeds.size(), 2u);
    for (size_t s = 0; s < 2; ++s) {
      const double t_ca = f.clean.recorder.time_of_min_obstacle_distance(seeds[s].victim);
      const std::vector<fuzz::EvalRequest> batch = stencil(t_ca - 8.0, 12.0);
      fuzz::Objective batched = f.objective(seeds[s]);
      fuzz::Objective pointwise = f.objective(seeds[s]);
      std::vector<fuzz::ObjectiveEval> got;
      batched.evaluate_batch(batch, [&](std::size_t, const fuzz::ObjectiveEval& e) {
        got.push_back(e);
        return true;
      });
      ASSERT_EQ(got.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE("mission " + std::to_string(index) + " point " + std::to_string(i));
        expect_same_eval(got[i], pointwise.evaluate(batch[i].t_start, batch[i].duration));
      }
      EXPECT_EQ(batched.evaluations(), pointwise.evaluations());
      EXPECT_EQ(batched.memo_hits(), pointwise.memo_hits());
      // Same logical missions, fewer ticks actually flown.
      EXPECT_EQ(batched.sim_steps_executed() + batched.prefix_steps_reused(),
                pointwise.sim_steps_executed() + pointwise.prefix_steps_reused());
      EXPECT_LT(batched.sim_steps_executed(), pointwise.sim_steps_executed());
      batched_steps += batched.sim_steps_executed();
      pointwise_steps += pointwise.sim_steps_executed();
    }
  }
  EXPECT_LT(batched_steps, pointwise_steps);
}

// Mission 1 of the Table I set: this window makes victim 3 hit the
// obstacle at t = 62.1 s, inside the spoofing window, so every member of
// the family {20, 22, 24} s collides before T = 64 s.
constexpr fuzz::Seed kCollidingSeed{.target = 4, .victim = 3,
                                    .direction = attack::SpoofDirection::kLeft};
constexpr double kCollidingStart = 44.0;

TEST(WindowTree, HeadEndingBeforeTheBranchCapturesNothing) {
  Fixture f(1);
  const sim::SimulationCheckpoint* prefix_cp = f.prefix.latest_at_or_before(kCollidingStart);
  ASSERT_NE(prefix_cp, nullptr);

  fuzz::WindowBranch branch{.time = kCollidingStart + 20.0};
  const fuzz::AttackEvalOutcome head =
      fuzz::evaluate_attack(f.mission, f.simulator, *f.system, kCollidingSeed, 10.0,
                            &f.prefix, nullptr, kCollidingStart, 22.0, &branch);
  ASSERT_TRUE(head.eval.success);
  ASSERT_LT(head.eval.end_time, branch.time);
  EXPECT_FALSE(branch.checkpoint);
  EXPECT_FALSE(branch.recorder);

  for (const double duration : {20.0, 24.0}) {
    const fuzz::AttackEvalOutcome sibling =
        fuzz::evaluate_attack(f.mission, f.simulator, *f.system, kCollidingSeed, 10.0,
                              &f.prefix, nullptr, kCollidingStart, duration, &branch);
    EXPECT_EQ(sibling.steps_resumed, prefix_cp->steps);  // from the PrefixCache
    expect_same_eval(sibling.eval,
                     fuzz::evaluate_attack(f.mission, f.simulator, *f.system,
                                           kCollidingSeed, 10.0, &f.prefix, nullptr,
                                           kCollidingStart, duration)
                         .eval);
  }

  // Through the objective: the whole family flies from the PrefixCache.
  fuzz::Objective objective = f.objective(kCollidingSeed);
  const std::vector<fuzz::EvalRequest> family{
      {kCollidingStart, 22.0}, {kCollidingStart, 20.0}, {kCollidingStart, 24.0}};
  objective.evaluate_batch(family, [](std::size_t, const fuzz::ObjectiveEval& e) {
    EXPECT_TRUE(e.success);
    return true;
  });
  EXPECT_EQ(objective.evaluations(), 3);
  EXPECT_EQ(objective.prefix_steps_reused(), 3 * prefix_cp->steps);
}

// Runs `requests` (two groups, one per seed) through evaluate_groups,
// stopping after `stop_after` consumed entries.
struct GroupsRun {
  std::vector<fuzz::ObjectiveEval> consumed;
  std::vector<int> evaluations, memo_hits, batches;
  std::vector<std::int64_t> executed, reused;
  // Per objective and requested key: the memoised result, if any.
  std::vector<std::vector<std::optional<fuzz::ObjectiveEval>>> memo;
};

GroupsRun run_groups(Fixture& f, fuzz::EvalPool* pool, const std::vector<fuzz::Seed>& seeds,
                     const std::vector<std::vector<fuzz::EvalRequest>>& requests,
                     std::size_t stop_after) {
  std::vector<fuzz::Objective> objectives;
  for (const fuzz::Seed& seed : seeds) objectives.push_back(f.objective(seed, pool));
  // A memoised entry, so families must skip memo hits.
  (void)objectives[0].evaluate(requests[0][3].t_start, requests[0][3].duration);
  std::vector<fuzz::ObjectiveBatch> groups;
  for (size_t g = 0; g < objectives.size(); ++g) {
    groups.push_back({.objective = &objectives[g], .requests = requests[g]});
  }
  GroupsRun run;
  fuzz::Objective::evaluate_groups(
      groups, [&](std::size_t, std::size_t, const fuzz::ObjectiveEval& e) {
        run.consumed.push_back(e);
        return run.consumed.size() < stop_after;
      });
  for (size_t g = 0; g < objectives.size(); ++g) {
    fuzz::Objective& o = objectives[g];
    run.evaluations.push_back(o.evaluations());
    run.memo_hits.push_back(o.memo_hits());
    run.batches.push_back(o.eval_batches());
    run.executed.push_back(o.sim_steps_executed());
    run.reused.push_back(o.prefix_steps_reused());
    // Memo contents: a key is memoised iff evaluate() then runs no
    // simulation.
    auto& memo = run.memo.emplace_back();
    for (const fuzz::EvalRequest& r : requests[g]) {
      const int before = o.evaluations();
      const fuzz::ObjectiveEval e = o.evaluate(r.t_start, r.duration);
      memo.push_back(o.evaluations() == before ? std::optional{e} : std::nullopt);
    }
  }
  return run;
}

TEST(WindowTree, SerialAndPooledGroupsAgreeOnCountersAndMemo) {
  Fixture f(0);
  const std::vector<fuzz::Seed> seeds =
      fuzz::schedule_seeds(f.clean, f.mission, *f.system, 10.0);
  ASSERT_GE(seeds.size(), 2u);
  std::vector<std::vector<fuzz::EvalRequest>> requests;
  for (size_t s = 0; s < 2; ++s) {
    const double t_ca = f.clean.recorder.time_of_min_obstacle_distance(seeds[s].victim);
    std::vector<fuzz::EvalRequest> batch = stencil(t_ca - 8.0, 12.0);
    batch.push_back(batch[4]);  // a duplicate key: simulated once
    batch.push_back({t_ca - 8.0, 14.0});
    requests.push_back(std::move(batch));
  }
  const std::vector<fuzz::Seed> pair{seeds[0], seeds[1]};
  fuzz::EvalPool pool(f.simulator.config(), std::make_shared<swarm::VasarhelyiController>(),
                      {}, 2);
  for (const std::size_t stop_after : {std::size_t{1}, std::size_t{4}, std::size_t{100}}) {
    SCOPED_TRACE("stop after " + std::to_string(stop_after));
    const GroupsRun serial = run_groups(f, nullptr, pair, requests, stop_after);
    const GroupsRun pooled = run_groups(f, &pool, pair, requests, stop_after);
    ASSERT_EQ(serial.consumed.size(), pooled.consumed.size());
    for (size_t i = 0; i < serial.consumed.size(); ++i) {
      expect_same_eval(serial.consumed[i], pooled.consumed[i]);
    }
    EXPECT_EQ(serial.evaluations, pooled.evaluations);
    EXPECT_EQ(serial.memo_hits, pooled.memo_hits);
    EXPECT_EQ(serial.batches, pooled.batches);
    EXPECT_EQ(serial.executed, pooled.executed);
    EXPECT_EQ(serial.reused, pooled.reused);
    for (size_t g = 0; g < serial.memo.size(); ++g) {
      ASSERT_EQ(serial.memo[g].size(), pooled.memo[g].size());
      for (size_t i = 0; i < serial.memo[g].size(); ++i) {
        ASSERT_EQ(serial.memo[g][i].has_value(), pooled.memo[g][i].has_value());
        if (serial.memo[g][i]) expect_same_eval(*serial.memo[g][i], *pooled.memo[g][i]);
      }
    }
  }
}

// Families are a prefix-reuse mechanism: without a PrefixCache nothing is
// resumed, branch points included.
TEST(WindowTree, NoPrefixCacheMeansNoBranches) {
  Fixture f(0);
  const std::vector<fuzz::Seed> seeds =
      fuzz::schedule_seeds(f.clean, f.mission, *f.system, 10.0);
  ASSERT_FALSE(seeds.empty());
  fuzz::Objective objective(f.mission, f.simulator, *f.system, seeds[0], 10.0,
                            f.clean.end_time);
  const double t_ca = f.clean.recorder.time_of_min_obstacle_distance(seeds[0].victim);
  objective.evaluate_batch(stencil(t_ca - 8.0, 12.0),
                           [](std::size_t, const fuzz::ObjectiveEval&) { return true; });
  EXPECT_EQ(objective.evaluations(), 5);
  EXPECT_EQ(objective.prefix_steps_reused(), 0);
}

}  // namespace
}  // namespace swarmfuzz
