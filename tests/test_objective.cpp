#include "fuzz/objective.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "fuzz/optimizer.h"

namespace swarmfuzz::fuzz {
namespace {

struct Fixture {
  Fixture()
      : mission(sim::generate_mission(mission_config(), 1005)),
        system(swarm::make_vasarhelyi_system()),
        simulator(sim_config()),
        clean(simulator.run(mission, *system)) {}

  static sim::MissionConfig mission_config() {
    sim::MissionConfig config;
    config.num_drones = 5;
    return config;
  }
  static sim::SimulationConfig sim_config() {
    sim::SimulationConfig config;
    config.dt = 0.05;
    config.gps.rate_hz = 20.0;
    return config;
  }

  Seed seed_for(int target, int victim) const {
    return Seed{.target = target,
                .victim = victim,
                .direction = attack::SpoofDirection::kRight,
                .vdo = clean.recorder.min_obstacle_distance(victim)};
  }

  sim::MissionSpec mission;
  std::unique_ptr<swarm::FlockingControlSystem> system;
  sim::Simulator simulator;
  sim::RunResult clean;
};

TEST(Objective, RejectsInvalidSeeds) {
  Fixture f;
  EXPECT_THROW(Objective(f.mission, f.simulator, *f.system, f.seed_for(0, 0), 10.0,
                         f.clean.end_time),
               std::invalid_argument);
  EXPECT_THROW(Objective(f.mission, f.simulator, *f.system, f.seed_for(-1, 1), 10.0,
                         f.clean.end_time),
               std::invalid_argument);
  EXPECT_THROW(Objective(f.mission, f.simulator, *f.system, f.seed_for(0, 1), 0.0,
                         f.clean.end_time),
               std::invalid_argument);
  EXPECT_THROW(Objective(f.mission, f.simulator, *f.system, f.seed_for(0, 1), 10.0,
                         0.0),
               std::invalid_argument);
}

TEST(Objective, ZeroDurationMatchesCleanRun) {
  Fixture f;
  Objective objective(f.mission, f.simulator, *f.system, f.seed_for(0, 1), 10.0,
                      f.clean.end_time);
  // Duration projects up to one dt; the spoof is then a single-tick blip
  // whose effect is negligible: f should be close to the clean clearance.
  const ObjectiveEval eval = objective.evaluate(5.0, 0.0);
  const double clean_f =
      f.clean.recorder.min_obstacle_distance(1) - f.mission.drone_radius;
  EXPECT_NEAR(eval.f, clean_f, 0.35);
}

TEST(Objective, ProjectionEnforcesTimingConstraints) {
  Fixture f;
  Objective objective(f.mission, f.simulator, *f.system, f.seed_for(0, 1), 10.0,
                      100.0);
  double t_s = -5.0, dt = 500.0;
  objective.project(t_s, dt);
  EXPECT_GE(t_s, 0.0);
  EXPECT_GT(dt, 0.0);
  EXPECT_LE(t_s + dt, 100.0 + 1e-9);

  t_s = 99.0;
  dt = 50.0;
  objective.project(t_s, dt);
  EXPECT_LE(t_s + dt, 100.0 + 1e-9);
}

// project_window is min(max(v, lo), hi) per coordinate: bit-identical to
// std::clamp wherever lo <= hi, and still defined when the remaining window
// t_mission - t_s rounds below dt_min (then the upper bound wins).
TEST(Objective, ProjectWindowMatchesClampAndToleratesRoundedWindow) {
  constexpr double kDtMin = 0.05;
  const double t_mission = 97.35;
  for (const double t_in : {-5.0, 0.0, 3.25, 50.0, 97.2, 97.25}) {
    for (const double dt_in : {-1.0, 0.0, 0.05, 2.5, 40.0}) {
      double t_s = t_in;
      double dt = dt_in;
      project_window(t_s, dt, t_mission, kDtMin);
      const double t_ref = std::clamp(t_in, 0.0, t_mission - kDtMin);
      ASSERT_LE(kDtMin, t_mission - t_ref);  // std::clamp's precondition
      EXPECT_EQ(t_s, t_ref) << t_in << " " << dt_in;
      EXPECT_EQ(dt, std::clamp(dt_in, kDtMin, t_mission - t_ref))
          << t_in << " " << dt_in;
    }
  }

  // t_s pinned to t_mission - dt_min leaves a window that rounds to just
  // below dt_min: dt takes the window, never more.
  double t_s = t_mission + 10.0;
  double dt = 1.0;
  project_window(t_s, dt, t_mission, kDtMin);
  EXPECT_EQ(t_s, t_mission - kDtMin);
  ASSERT_LT(t_mission - t_s, kDtMin);
  EXPECT_EQ(dt, t_mission - t_s);
}

TEST(Objective, CountsEvaluations) {
  Fixture f;
  Objective objective(f.mission, f.simulator, *f.system, f.seed_for(0, 1), 10.0,
                      f.clean.end_time);
  EXPECT_EQ(objective.evaluations(), 0);
  (void)objective.evaluate(10.0, 5.0);
  (void)objective.evaluate(20.0, 5.0);
  EXPECT_EQ(objective.evaluations(), 2);
}

TEST(Objective, MemoAbsorbsDuplicateEvaluations) {
  Fixture f;
  Objective objective(f.mission, f.simulator, *f.system, f.seed_for(0, 1), 10.0,
                      f.clean.end_time);
  const ObjectiveEval first = objective.evaluate(10.0, 5.0);
  const ObjectiveEval repeat = objective.evaluate(10.0, 5.0);
  EXPECT_EQ(objective.evaluations(), 1);  // the repeat cost no simulation
  EXPECT_EQ(objective.memo_hits(), 1);
  EXPECT_EQ(repeat.f, first.f);
  EXPECT_EQ(repeat.success, first.success);
  EXPECT_EQ(repeat.crashed_drone, first.crashed_drone);
  EXPECT_EQ(repeat.end_time, first.end_time);

  // Distinct raw inputs that project to the same feasible point also hit.
  const double over = f.clean.end_time + 100.0;
  (void)objective.evaluate(over, 5.0);
  EXPECT_EQ(objective.evaluations(), 2);
  (void)objective.evaluate(over + 50.0, 5.0);
  EXPECT_EQ(objective.evaluations(), 2);
  EXPECT_EQ(objective.memo_hits(), 2);
}

TEST(Objective, PrefixReuseIsBitIdentical) {
  Fixture f;
  // Record clean-run checkpoints for this mission once.
  PrefixCache prefix;
  const sim::RunResult recording = f.simulator.run(
      f.mission, *f.system,
      sim::RunHooks{.checkpoints = &prefix, .checkpoint_period = 5.0});
  prefix.set_source(recording.recorder);
  ASSERT_GE(prefix.size(), 2u);

  Objective with_prefix(f.mission, f.simulator, *f.system, f.seed_for(2, 1), 10.0,
                        f.clean.end_time, &prefix);
  Objective without(f.mission, f.simulator, *f.system, f.seed_for(2, 1), 10.0,
                    f.clean.end_time);
  for (double t_s = 10.0; t_s <= 40.0; t_s += 10.0) {
    const ObjectiveEval a = with_prefix.evaluate(t_s, 8.0);
    const ObjectiveEval b = without.evaluate(t_s, 8.0);
    EXPECT_EQ(a.f, b.f) << "t_s=" << t_s;
    EXPECT_EQ(a.success, b.success) << "t_s=" << t_s;
    EXPECT_EQ(a.crashed_drone, b.crashed_drone) << "t_s=" << t_s;
    EXPECT_EQ(a.target_caused, b.target_caused) << "t_s=" << t_s;
    EXPECT_EQ(a.end_time, b.end_time) << "t_s=" << t_s;
  }
  EXPECT_GT(with_prefix.prefix_steps_reused(), 0);
  EXPECT_EQ(without.prefix_steps_reused(), 0);
  EXPECT_LT(with_prefix.sim_steps_executed(), without.sim_steps_executed());
}

TEST(Objective, OptimizerDuplicateCostsNoSimulation) {
  // The descent loop's first iteration re-evaluates the multi-start winner;
  // the memo must serve it without a simulation. One start at (5, 2) with
  // fd_step 1 puts the four stencil probes at distinct feasible points, so
  // budget 2 costs exactly 1 (start) + 0 (memoised repeat) + 4 (stencil)
  // simulations.
  Fixture f;
  Objective objective(f.mission, f.simulator, *f.system, f.seed_for(0, 1), 10.0,
                      f.clean.end_time);
  const StartPoint start{5.0, 2.0};
  const OptimizationResult outcome =
      optimize(objective, std::span<const StartPoint>{&start, 1}, 2, {});
  ASSERT_FALSE(outcome.success);  // precondition: no early success return
  EXPECT_EQ(outcome.iterations, 2);
  EXPECT_EQ(objective.evaluations(), 5);
  EXPECT_EQ(objective.memo_hits(), 1);
}

TEST(Objective, DeterministicEvaluation) {
  Fixture f;
  Objective a(f.mission, f.simulator, *f.system, f.seed_for(2, 1), 10.0,
              f.clean.end_time);
  Objective b(f.mission, f.simulator, *f.system, f.seed_for(2, 1), 10.0,
              f.clean.end_time);
  EXPECT_DOUBLE_EQ(a.evaluate(30.0, 15.0).f, b.evaluate(30.0, 15.0).f);
}

TEST(Objective, FIsClearanceAboveCollisionRadius) {
  Fixture f;
  Objective objective(f.mission, f.simulator, *f.system, f.seed_for(0, 1), 10.0,
                      f.clean.end_time);
  const ObjectiveEval eval = objective.evaluate(30.0, 10.0);
  if (!eval.success) {
    EXPECT_GT(eval.f, 0.0);
  } else {
    EXPECT_LE(eval.f, 1e-9);
  }
}

TEST(Objective, SuccessNeverAttributedToTarget) {
  // Sweep a few windows; whenever success is reported the crashed drone must
  // not be the spoofed target (the paper's success metric).
  Fixture f;
  for (int target = 0; target < 3; ++target) {
    Seed seed = f.seed_for(target, target == 1 ? 2 : 1);
    Objective objective(f.mission, f.simulator, *f.system, seed, 10.0,
                        f.clean.end_time);
    for (double t_s = 20.0; t_s <= 50.0; t_s += 10.0) {
      const ObjectiveEval eval = objective.evaluate(t_s, 15.0);
      if (eval.success) {
        EXPECT_NE(eval.crashed_drone, seed.target);
      }
    }
  }
}

}  // namespace
}  // namespace swarmfuzz::fuzz
