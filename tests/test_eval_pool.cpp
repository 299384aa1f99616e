#include "fuzz/eval_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "swarm/flocking_system.h"
#include "swarm/vasarhelyi.h"

namespace swarmfuzz::fuzz {
namespace {

// ---------------------------------------------------------------------------
// hardware_threads and split_thread_budget: the three-way workers x eval x
// sim budget.

TEST(EvalPool, HardwareThreadsNeverReportsZero) {
  // The standard allows hardware_concurrency() to return 0; every
  // worker-count division in the fuzzing layer relies on this floor.
  EXPECT_GE(hardware_threads(), 1);
}

TEST(SplitThreadBudget, BothAutoKeepsHistoricalSplit) {
  // Auto-auto = all eval threads, serial ticks (the pre-sim-threads split).
  EXPECT_EQ(split_thread_budget(1, 0, 0, 8).eval_threads, 8);
  EXPECT_EQ(split_thread_budget(1, 0, 0, 8).sim_threads, 1);
  EXPECT_EQ(split_thread_budget(2, 0, 0, 8).eval_threads, 4);
  EXPECT_EQ(split_thread_budget(2, 0, 0, 8).sim_threads, 1);
  EXPECT_EQ(split_thread_budget(16, 0, 0, 8).eval_threads, 1);
  EXPECT_EQ(split_thread_budget(16, 0, 0, 8).sim_threads, 1);
}

TEST(SplitThreadBudget, ExplicitEvalLeavesRemainderToSim) {
  const ThreadBudget b = split_thread_budget(1, 2, 0, 8);
  EXPECT_EQ(b.eval_threads, 2);
  EXPECT_EQ(b.sim_threads, 4);  // 8 / 2 left for intra-tick parallelism
}

TEST(SplitThreadBudget, ExplicitSimLeavesRemainderToEval) {
  const ThreadBudget b = split_thread_budget(1, 0, 2, 8);
  EXPECT_EQ(b.sim_threads, 2);
  EXPECT_EQ(b.eval_threads, 4);
}

TEST(SplitThreadBudget, BothExplicitClampedToWorkerShare) {
  // workers = 2 on 8 cores -> per-worker share of 4; eval = 3 fits, but
  // sim = 5 must clamp so eval x sim stays within the share.
  const ThreadBudget b = split_thread_budget(2, 3, 5, 8);
  EXPECT_EQ(b.eval_threads, 3);
  EXPECT_EQ(b.sim_threads, 1);
}

TEST(SplitThreadBudget, FullyOversubscribedDegenerateClampsToOne) {
  // workers = eval = sim = hardware would be hw^3 threads; every dimension
  // must clamp back to >= 1 and the product must respect the worker share.
  const ThreadBudget b = split_thread_budget(8, 8, 8, 8);
  EXPECT_EQ(b.eval_threads, 1);
  EXPECT_EQ(b.sim_threads, 1);
}

TEST(SplitThreadBudget, DegenerateInputsStaySane) {
  EXPECT_EQ(split_thread_budget(0, 0, 0, 0).eval_threads, 1);
  EXPECT_EQ(split_thread_budget(0, 0, 0, 0).sim_threads, 1);
  EXPECT_EQ(split_thread_budget(-3, -1, -2, -4).eval_threads, 1);
  EXPECT_EQ(split_thread_budget(-3, -1, -2, -4).sim_threads, 1);
  // Unknown hardware concurrency (0) never yields a zero-thread budget.
  EXPECT_EQ(split_thread_budget(4, 8, 8, 0).eval_threads, 1);
  EXPECT_EQ(split_thread_budget(4, 8, 8, 0).sim_threads, 1);
}

// ---------------------------------------------------------------------------
// ThreadResolution: what every `0 = auto` resolves to on this host, for the
// campaign's per-worker split, FuzzerBase and a plain Simulator. Hardware is
// the real hardware_threads(), so expectations are written in terms of it.

// Wraps the Vásárhelyi controller and records the intra-tick pool width the
// simulator hands the batch entry point (1 when the tick runs serially).
class PoolWidthProbe final : public swarm::SwarmController {
 public:
  using SwarmController::desired_velocity;
  using SwarmController::desired_velocity_all;

  swarm::Vec3 desired_velocity(const swarm::NeighborView& view,
                               const swarm::MissionSpec& mission) const override {
    return inner_.desired_velocity(view, mission);
  }
  void desired_velocity_all(const swarm::WorldSnapshot& snapshot,
                            const swarm::MissionSpec& mission,
                            std::span<swarm::Vec3> desired,
                            const swarm::TickExecutor& exec) const override {
    width = exec.pool != nullptr ? exec.pool->threads() : 1;
    inner_.desired_velocity_all(snapshot, mission, desired, exec);
  }
  std::string_view name() const noexcept override { return "probe"; }

  mutable int width = 0;

 private:
  swarm::VasarhelyiController inner_;
};

// 40 drones (above the serial-tick threshold, so a resolved sim width > 1
// engages the pool) flown for a few ticks only.
sim::MissionSpec pool_width_mission() {
  sim::MissionConfig config;
  config.num_drones = 40;
  config.spawn_range = 120.0;
  config.max_time = 0.5;
  return sim::generate_mission(config, 91);
}

TEST(ThreadResolution, TableOverWorkersEvalSimAndHardware) {
  const int hw = hardware_threads();
  const auto share = [](int threads, int ways) {
    return std::max(threads / std::max(ways, 1), 1);
  };
  struct Row {
    int workers, eval, sim;
    ThreadBudget campaign;  // worker_fuzzer_config(config, workers)
    ThreadBudget fuzzer;    // FuzzerBase with config.fuzzer (workers unused)
  };
  const std::vector<Row> rows{
      {1, 0, 0, {hw, 1}, {hw, 1}},
      {2, 0, 0, {share(hw, 2), 1}, {hw, 1}},
      {1, 2, 0,
       {std::min(2, hw), share(hw, std::min(2, hw))},
       {2, share(hw, 2)}},
      {1, 0, 2,
       {share(hw, std::min(2, hw)), std::min(2, hw)},
       {share(hw, 2), 2}},
      {1, 3, 5,
       {std::min(3, hw), std::min(5, share(hw, std::min(3, hw)))},
       {3, 5}},
      {hw, hw, hw, {1, 1}, {hw, hw}},
  };
  const sim::MissionSpec mission = pool_width_mission();
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message() << "workers " << row.workers << " eval "
                                      << row.eval << " sim " << row.sim
                                      << " hardware " << hw);
    CampaignConfig config;
    config.fuzzer.eval_threads = row.eval;
    config.fuzzer.sim.sim_threads = row.sim;
    const FuzzerConfig worker = worker_fuzzer_config(config, row.workers);
    EXPECT_EQ(worker.eval_threads, row.campaign.eval_threads);
    EXPECT_EQ(worker.sim.sim_threads, row.campaign.sim_threads);

    FuzzerConfig fuzzer = config.fuzzer;
    fuzzer.mission_budget = 0;  // clean run only: no search, no pool batch
    const auto probe = std::make_shared<PoolWidthProbe>();
    const FuzzResult result =
        make_fuzzer(FuzzerKind::kRandom, fuzzer, probe)->fuzz(mission);
    EXPECT_EQ(result.eval_parallelism, row.fuzzer.eval_threads);
    EXPECT_EQ(probe->width, row.fuzzer.sim_threads);
  }

  // A plain Simulator's auto is the whole machine.
  sim::SimulationConfig sim_config;
  sim_config.sim_threads = 0;
  const auto probe = std::make_shared<PoolWidthProbe>();
  swarm::FlockingControlSystem system(probe);
  (void)sim::Simulator(sim_config).run(mission, system);
  EXPECT_EQ(probe->width, hw);
}

// ---------------------------------------------------------------------------
// EvalPool: batch outcomes must match direct serial evaluation bit for bit.

struct PoolFixture {
  PoolFixture() {
    sim_config.dt = 0.05;
    sim_config.gps.rate_hz = 20.0;
    sim::MissionConfig mc;
    mc.num_drones = 5;
    mission = sim::generate_mission(mc, 1005);
    controller = std::make_shared<swarm::VasarhelyiController>();
  }

  sim::SimulationConfig sim_config;
  sim::MissionSpec mission;
  std::shared_ptr<const swarm::VasarhelyiController> controller;
  Seed seed{.target = 0, .victim = 1,
            .direction = attack::SpoofDirection::kRight};
};

TEST(EvalPool, BatchResultsMatchSerialEvaluation) {
  PoolFixture f;
  EvalPool pool(f.sim_config, f.controller, {}, 3);
  EXPECT_EQ(pool.threads(), 3);

  const std::vector<EvalPool::Job> jobs{{10.0, 20.0, f.seed},
                                        {30.0, 15.0, f.seed},
                                        {5.0, 5.0, f.seed},
                                        {18.0, 12.0, f.seed}};
  const EvalPool::BatchContext context{.mission = &f.mission,
                                       .spoof_distance = 10.0};
  const std::vector<EvalPool::JobResult> results = pool.evaluate(context, jobs);
  ASSERT_EQ(results.size(), jobs.size());

  // Serial reference: a fresh simulator/system clone, like each worker owns.
  const sim::Simulator simulator(f.sim_config);
  swarm::FlockingControlSystem system(f.controller, {});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_FALSE(results[i].error) << "job " << i;
    const AttackEvalOutcome serial =
        evaluate_attack(f.mission, simulator, system, f.seed, 10.0, nullptr,
                        nullptr, jobs[i].t_start, jobs[i].duration);
    EXPECT_EQ(results[i].eval.f, serial.eval.f) << "job " << i;
    EXPECT_EQ(results[i].eval.success, serial.eval.success);
    EXPECT_EQ(results[i].eval.crashed_drone, serial.eval.crashed_drone);
    EXPECT_EQ(results[i].eval.end_time, serial.eval.end_time);
    EXPECT_EQ(results[i].steps_executed, serial.steps_executed);
    EXPECT_EQ(results[i].steps_resumed, serial.steps_resumed);
  }
}

TEST(EvalPool, MixedSeedBatchMatchesPerJobSerialEvaluation) {
  // One batch carrying several target-victim pairs (E_Fuzz's round): each
  // job is evaluated under its own seed.
  PoolFixture f;
  EvalPool pool(f.sim_config, f.controller, {}, 3);
  const Seed other{.target = 2, .victim = 3,
                   .direction = attack::SpoofDirection::kLeft};
  const Seed third{.target = 4, .victim = 0,
                   .direction = attack::SpoofDirection::kRight};
  const std::vector<EvalPool::Job> jobs{
      {.t_start = 10.0, .duration = 20.0, .seed = other},
      {.t_start = 10.0, .duration = 20.0, .seed = f.seed},
      {.t_start = 30.0, .duration = 15.0, .seed = third},
      {.t_start = 10.0, .duration = 20.0, .seed = f.seed},
      {.t_start = 5.0, .duration = 5.0, .seed = other}};
  const EvalPool::BatchContext context{.mission = &f.mission,
                                       .spoof_distance = 10.0};
  const std::vector<EvalPool::JobResult> results = pool.evaluate(context, jobs);
  ASSERT_EQ(results.size(), jobs.size());

  const sim::Simulator simulator(f.sim_config);
  swarm::FlockingControlSystem system(f.controller, {});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_FALSE(results[i].error) << "job " << i;
    const AttackEvalOutcome serial =
        evaluate_attack(f.mission, simulator, system, jobs[i].seed, 10.0, nullptr,
                        nullptr, jobs[i].t_start, jobs[i].duration);
    EXPECT_EQ(results[i].eval.f, serial.eval.f) << "job " << i;
    EXPECT_EQ(results[i].eval.success, serial.eval.success) << "job " << i;
    EXPECT_EQ(results[i].eval.crashed_drone, serial.eval.crashed_drone);
    EXPECT_EQ(results[i].eval.target_caused, serial.eval.target_caused);
    EXPECT_EQ(results[i].eval.end_time, serial.eval.end_time);
    EXPECT_EQ(results[i].eval.drone_clearance, serial.eval.drone_clearance);
    EXPECT_EQ(results[i].eval.min_clearance_time,
              serial.eval.min_clearance_time);
    EXPECT_EQ(results[i].eval.min_avg_separation,
              serial.eval.min_avg_separation);
    EXPECT_EQ(results[i].steps_executed, serial.steps_executed);
    EXPECT_EQ(results[i].steps_resumed, serial.steps_resumed);
  }
  // Same window, different pairs: the seed really reached the simulation.
  EXPECT_NE(results[0].eval.f, results[1].eval.f);
  EXPECT_EQ(results[1].eval.f, results[3].eval.f);
}

TEST(EvalPool, SingleThreadRunsInlineWithoutWorkers) {
  PoolFixture f;
  EvalPool pool(f.sim_config, f.controller, {}, 1);
  EXPECT_EQ(pool.threads(), 1);
  const std::vector<EvalPool::Job> jobs{{10.0, 20.0, f.seed}};
  const EvalPool::BatchContext context{.mission = &f.mission,
                                       .spoof_distance = 10.0};
  const auto results = pool.evaluate(context, jobs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].error);
  EXPECT_GT(results[0].steps_executed, 0);
}

TEST(EvalPool, EmptyBatchReturnsEmpty) {
  PoolFixture f;
  EvalPool pool(f.sim_config, f.controller, {}, 2);
  const EvalPool::BatchContext context{.mission = &f.mission,
                                       .spoof_distance = 10.0};
  EXPECT_TRUE(pool.evaluate(context, {}).empty());
}

TEST(EvalPool, CapturesGuardTripsPerJob) {
  // A one-step watchdog trips every simulation; the pool must capture the
  // RunFaultError in each job's slot instead of tearing down a worker.
  PoolFixture f;
  EvalPool pool(f.sim_config, f.controller, {}, 2);
  EvalGuards guards;
  guards.watchdog.max_steps = 1;
  const std::vector<EvalPool::Job> jobs{{10.0, 20.0, f.seed},
                                        {30.0, 15.0, f.seed}};
  const EvalPool::BatchContext context{.mission = &f.mission,
                                       .spoof_distance = 10.0,
                                       .guards = &guards};
  const auto results = pool.evaluate(context, jobs);
  ASSERT_EQ(results.size(), 2u);
  for (const EvalPool::JobResult& r : results) {
    ASSERT_TRUE(r.error);
    EXPECT_THROW(std::rethrow_exception(r.error), sim::RunFaultError);
  }

  // The pool stays usable after a faulted batch.
  const auto ok = pool.evaluate(
      EvalPool::BatchContext{.mission = &f.mission, .spoof_distance = 10.0},
      jobs);
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_FALSE(ok[0].error);
  EXPECT_FALSE(ok[1].error);
}

// ---------------------------------------------------------------------------
// Objective::evaluate_groups: several pairs' candidates in one call, as in an
// E_Fuzz round. With a pool every group is simulated in one fan-out; the
// replay must leave exactly the serial path's observable state.

struct GroupFixture : PoolFixture {
  sim::RunResult record_clean() {
    sim::RunHooks hooks;
    hooks.checkpoints = &prefix;
    sim::RunResult run = simulator.run(mission, system, hooks);
    prefix.set_source(run.recorder);
    return run;
  }

  // One objective per pair, sharing mission, prefix cache, guards and pool.
  std::vector<std::unique_ptr<Objective>> objectives(EvalPool* pool) {
    std::vector<std::unique_ptr<Objective>> out;
    for (const Seed& s : seeds) {
      out.push_back(std::make_unique<Objective>(mission, simulator, system, s,
                                                10.0, clean.end_time, &prefix,
                                                &guards, pool));
    }
    return out;
  }

  const sim::Simulator simulator{sim_config};
  swarm::FlockingControlSystem system{controller, {}};
  PrefixCache prefix;
  const sim::RunResult clean = record_clean();
  EvalGuards guards;
  std::vector<Seed> seeds{
      {.target = 0, .victim = 1, .direction = attack::SpoofDirection::kRight},
      {.target = 2, .victim = 3, .direction = attack::SpoofDirection::kLeft},
      {.target = 4, .victim = 0, .direction = attack::SpoofDirection::kRight}};
};

struct GroupRun {
  std::vector<std::tuple<std::size_t, std::size_t, double>> consumed;
  std::vector<std::array<std::int64_t, 5>> counters;  // per objective
};

GroupRun run_groups(GroupFixture& f, int threads, std::size_t stop_after,
                    const std::vector<std::vector<EvalRequest>>& requests) {
  std::unique_ptr<EvalPool> pool;
  if (threads > 1) {
    pool = std::make_unique<EvalPool>(f.sim_config, f.controller,
                                      swarm::CommConfig{}, threads);
  }
  auto objectives = f.objectives(pool.get());
  std::vector<ObjectiveBatch> groups;
  for (std::size_t g = 0; g < requests.size(); ++g) {
    groups.push_back({.objective = objectives[g].get(), .requests = requests[g]});
  }
  GroupRun run;
  Objective::evaluate_groups(
      groups, [&](std::size_t g, std::size_t i, const ObjectiveEval& eval) {
        run.consumed.emplace_back(g, i, eval.f);
        return run.consumed.size() < stop_after;
      });
  for (const auto& o : objectives) {
    run.counters.push_back({o->evaluations(), o->memo_hits(), o->eval_batches(),
                            o->sim_steps_executed(), o->prefix_steps_reused()});
  }
  return run;
}

TEST(EvalPool, GroupedRoundMatchesSerialAtEveryStop) {
  GroupFixture f;
  // Group 1 repeats a window: simulated once, the repeat is a memo hit.
  const std::vector<std::vector<EvalRequest>> requests{
      {{10.0, 20.0}, {30.0, 10.0}}, {{12.0, 8.0}, {12.0, 8.0}}, {{5.0, 5.0}}};
  for (std::size_t stop_after = 1; stop_after <= 6; ++stop_after) {
    const GroupRun serial = run_groups(f, 1, stop_after, requests);
    const GroupRun pooled = run_groups(f, 4, stop_after, requests);
    EXPECT_EQ(serial.consumed, pooled.consumed) << "stop after " << stop_after;
    EXPECT_EQ(serial.counters, pooled.counters) << "stop after " << stop_after;
  }
  // A stop in the first group leaves the later groups untouched: no batch,
  // no evaluation, although the pool simulated their candidates.
  const GroupRun early = run_groups(f, 4, 1, requests);
  EXPECT_EQ(early.consumed.size(), 1u);
  EXPECT_EQ(early.counters[1], (std::array<std::int64_t, 5>{}));
  EXPECT_EQ(early.counters[2], (std::array<std::int64_t, 5>{}));
  const GroupRun full = run_groups(f, 4, 99, requests);
  EXPECT_EQ(full.consumed.size(), 5u);
  EXPECT_EQ(full.counters[1][0], 1);  // evaluations
  EXPECT_EQ(full.counters[1][1], 1);  // memo hits
  EXPECT_EQ(full.counters[1][2], 1);  // one batch per group
}

TEST(EvalPool, GroupedRoundRejectsObjectivesWithDifferentContext) {
  // The pool call takes mission, prefix, guards and pool from the first
  // group; a group that differs in any of them cannot ride along.
  GroupFixture f;
  auto objectives = f.objectives(nullptr);
  EvalGuards other_guards;
  Objective stray(f.mission, f.simulator, f.system, f.seeds[1], 10.0,
                  f.clean.end_time, &f.prefix, &other_guards);
  const std::vector<EvalRequest> requests{{10.0, 20.0}};
  const std::vector<ObjectiveBatch> groups{
      {.objective = objectives[0].get(), .requests = requests},
      {.objective = &stray, .requests = requests}};
  EXPECT_THROW(Objective::evaluate_groups(
                   groups, [](std::size_t, std::size_t,
                              const ObjectiveEval&) { return true; }),
               std::invalid_argument);
  EXPECT_EQ(objectives[0]->evaluations(), 0);
}

std::string first_fault(GroupFixture& f, int threads,
                        const std::vector<std::vector<EvalRequest>>& requests) {
  try {
    (void)run_groups(f, threads, 99, requests);
  } catch (const sim::RunFaultError& e) {
    return e.what();
  }
  return {};
}

TEST(EvalPool, GroupedRoundRethrowsFirstFaultInReplayOrder) {
  // A step budget that only long tails exhaust: group 0's late window
  // passes; groups 1 and 2 both trip, at different sim times (each run
  // resumes from its own checkpoint). The pool simulates all three, but the
  // fault raised must be group 1's, as on the serial path.
  GroupFixture f;
  ASSERT_GT(f.clean.end_time, 45.0);
  f.guards.watchdog.max_steps =
      static_cast<std::int64_t>(12.0 / f.sim_config.dt);
  const std::vector<std::vector<EvalRequest>> requests{
      {{f.clean.end_time - 6.0, 3.0}}, {{20.0, 10.0}}, {{5.0, 10.0}}};
  ASSERT_TRUE(first_fault(f, 1, {requests[0]}).empty());
  const std::string serial = first_fault(f, 1, requests);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(first_fault(f, 4, requests), serial);
  // Group 2 alone raises a different fault, so the check above can tell
  // which job's exception was rethrown.
  const std::string later = first_fault(f, 1, {{}, {}, requests[2]});
  ASSERT_FALSE(later.empty());
  EXPECT_NE(later, serial);
}

// ---------------------------------------------------------------------------
// Golden parallel-vs-serial: a search run with --eval-threads N must be
// bit-identical (deterministic_equal) to the serial run, across both vehicle
// models and with prefix reuse on and off.

FuzzResult run_search(int eval_threads, sim::VehicleType vehicle,
                      bool prefix_reuse, std::uint64_t mission_seed,
                      int budget) {
  FuzzerConfig config;
  config.spoof_distance = 10.0;
  config.sim.dt = 0.05;
  config.sim.gps.rate_hz = 20.0;
  config.sim.vehicle = vehicle;
  config.prefix_reuse = prefix_reuse;
  config.mission_budget = budget;
  config.eval_threads = eval_threads;
  auto fuzzer = make_fuzzer(FuzzerKind::kSwarmFuzz, config);
  sim::MissionConfig mc;
  mc.num_drones = 5;
  return fuzzer->fuzz(sim::generate_mission(mc, mission_seed));
}

void expect_golden(sim::VehicleType vehicle, bool prefix_reuse,
                   std::uint64_t mission_seed, int budget) {
  const FuzzResult serial =
      run_search(1, vehicle, prefix_reuse, mission_seed, budget);
  const FuzzResult parallel =
      run_search(4, vehicle, prefix_reuse, mission_seed, budget);
  EXPECT_TRUE(deterministic_equal(serial, parallel));
  // The batch *shape* of the search is thread-count independent too; only
  // the parallelism differs.
  EXPECT_EQ(serial.eval_batches, parallel.eval_batches);
  EXPECT_GT(parallel.eval_batches, 0);
  EXPECT_EQ(serial.eval_parallelism, 1);
  EXPECT_EQ(parallel.eval_parallelism, 4);
  EXPECT_FALSE(serial.clean_run_failed);
  EXPECT_GT(serial.attempts_tried, 0);
}

TEST(ParallelSearch, GoldenPointMassPrefixReuse) {
  // Seed 1013 is attackable at 10 m: exercises the success/early-stop path.
  expect_golden(sim::VehicleType::kPointMass, true, 1013, 60);
}

TEST(ParallelSearch, GoldenPointMassNoPrefix) {
  expect_golden(sim::VehicleType::kPointMass, false, 1013, 12);
}

TEST(ParallelSearch, GoldenPointMassStallPath) {
  // Seed 1000 resists 10 m spoofing: exercises stall/abandon replay.
  expect_golden(sim::VehicleType::kPointMass, true, 1000, 20);
}

TEST(ParallelSearch, GoldenQuadrotorPrefixReuse) {
  expect_golden(sim::VehicleType::kQuadrotor, true, 1013, 8);
}

TEST(ParallelSearch, GoldenQuadrotorNoPrefix) {
  expect_golden(sim::VehicleType::kQuadrotor, false, 1013, 6);
}

TEST(ParallelSearch, CampaignIndependentOfEvalThreads) {
  // Campaign results must not depend on the eval-thread split either. On a
  // small machine split_thread_budget may clamp the request back to 1; the
  // invariant holds for whatever split is granted.
  CampaignConfig base;
  base.mission.num_drones = 5;
  base.fuzzer.spoof_distance = 10.0;
  base.fuzzer.sim.dt = 0.05;
  base.fuzzer.sim.gps.rate_hz = 20.0;
  base.fuzzer.mission_budget = 10;
  base.num_missions = 3;
  base.num_threads = 1;
  base.base_seed = 1000;

  CampaignConfig serial = base;
  serial.fuzzer.eval_threads = 1;
  CampaignConfig parallel = base;
  parallel.fuzzer.eval_threads = 2;

  const CampaignResult a = run_campaign(serial);
  const CampaignResult b = run_campaign(parallel);
  EXPECT_TRUE(deterministic_equal(a, b));
}

}  // namespace
}  // namespace swarmfuzz::fuzz
