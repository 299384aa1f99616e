// The decided horizon: attacked runs end once their outcome is decided
// (sim::RunHooks::stop_when_decided_after). Pins the rule at the simulator
// (tick-for-tick agreement with the uncut run, the exact stopping tick,
// never stopping early), at the objective (identical search-visible fields
// over pinned Table I missions, fewer steps) and for E_Fuzz, which must fly
// to arrival.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "attack/spoofing.h"
#include "fuzz/campaign.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "fuzz/objective.h"
#include "fuzz/seeds.h"
#include "math/vec3.h"
#include "sim/simulator.h"
#include "swarm/flocking_system.h"

namespace swarmfuzz {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Flies every drone at fixed speed toward the destination through its GPS
// fix: straight lines that never turn back along the mission axis.
class StraightLineControl final : public sim::ControlSystem {
 public:
  void reset(const sim::MissionSpec&, std::uint64_t) override {}
  void compute(const sim::WorldSnapshot& snapshot, const sim::MissionSpec& mission,
               std::span<sim::Vec3> desired) override {
    for (size_t i = 0; i < desired.size(); ++i) {
      desired[i] = (mission.destination - snapshot.gps_position[i]).normalized() * 3.0;
    }
  }
};

// One drone flies out along x past the obstacle, turns back to skim it
// from the other side, then heads for the destination again.
class TurnBackControl final : public sim::ControlSystem {
 public:
  void reset(const sim::MissionSpec&, std::uint64_t) override { phase_ = 0; }
  void compute(const sim::WorldSnapshot& snapshot, const sim::MissionSpec& mission,
               std::span<sim::Vec3> desired) override {
    const sim::Vec3 p = snapshot.gps_position[0];
    const sim::Vec3 waypoint{100, 3.5, 10};
    if (phase_ == 0 && p.x >= 130.0) phase_ = 1;
    if (phase_ == 1 && math::distance_xy(p, waypoint) < 0.5) phase_ = 2;
    const sim::Vec3 goal = phase_ == 1 ? waypoint : mission.destination;
    desired[0] = (goal - p).normalized() * 3.0;
  }

 private:
  int phase_ = 0;
};

// Three drones along x; drone 0 flies straight through the first obstacle,
// the second sits off to the side further on.
sim::MissionSpec straight_mission() {
  sim::MissionSpec mission;
  mission.initial_positions = {{0, 0, 10}, {0, 10, 10}, {0, 20, 10}};
  mission.destination = {200, 10, 10};
  mission.obstacles = sim::ObstacleField({sim::CylinderObstacle{{60, 1, 0}, 3.0},
                                          sim::CylinderObstacle{{100, 26, 0}, 2.0}});
  mission.max_time = 120.0;
  mission.seed = 5;
  return mission;
}

// Two drones converging on a destination on the axis between them; drone 1
// passes the obstacle's centre still closing in on it laterally, so its
// closest approach comes after it is past the centre along the axis.
sim::MissionSpec converging_mission() {
  sim::MissionSpec mission;
  mission.initial_positions = {{0, 0, 10}, {0, 40, 10}};
  mission.destination = {200, 20, 10};
  mission.obstacles = sim::ObstacleField({sim::CylinderObstacle{{100, 24, 0}, 2.0}});
  mission.max_time = 120.0;
  mission.seed = 6;
  return mission;
}

sim::MissionSpec paper_mission(std::uint64_t seed, int drones, int obstacles = 1) {
  sim::MissionConfig config;
  config.num_drones = drones;
  config.num_obstacles = obstacles;
  return sim::generate_mission(config, seed);
}

sim::SimulationConfig sim_config() {
  sim::SimulationConfig config;
  config.dt = 0.05;
  config.gps.rate_hz = 20.0;
  return config;
}

class CheckpointLog final : public sim::CheckpointSink {
 public:
  void on_checkpoint(sim::SimulationCheckpoint&& checkpoint) override {
    log.push_back(std::move(checkpoint));
  }
  std::vector<sim::SimulationCheckpoint> log;
};

void expect_same_minima(const sim::Recorder& a, const sim::Recorder& b) {
  for (int i = 0; i < a.num_drones(); ++i) {
    EXPECT_EQ(a.min_obstacle_distance(i), b.min_obstacle_distance(i)) << "drone " << i;
    EXPECT_EQ(a.time_of_min_obstacle_distance(i), b.time_of_min_obstacle_distance(i))
        << "drone " << i;
  }
}

void expect_same_collision(const std::optional<sim::CollisionEvent>& a,
                           const std::optional<sim::CollisionEvent>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a) return;
  EXPECT_EQ(a->kind, b->kind);
  EXPECT_EQ(a->time, b->time);
  EXPECT_EQ(a->drone, b->drone);
  EXPECT_EQ(a->other, b->other);
}

// Independent oracle for the rule over a run recorded at every tick
// (record_period 0): the index of the first kept sample with time >= after
// at which every drone is past every obstacle centre along the mission
// axis, at least its closest approach so far beyond it, and not moving
// back. -1 when no sample qualifies.
int first_decided_sample(const sim::Recorder& recorder, const sim::MissionSpec& mission,
                         double after) {
  const sim::Vec3 axis = sim::mission_axis(mission);
  const int n = recorder.num_drones();
  const int m = mission.obstacles.size();
  std::vector<double> closest(static_cast<size_t>(n * m), kInf);
  for (int s = 0; s < recorder.num_samples(); ++s) {
    const auto states = recorder.sample(s);
    bool decided = true;
    for (int i = 0; i < n; ++i) {
      const sim::DroneState& d = states[static_cast<size_t>(i)];
      if (d.velocity.horizontal().dot(axis) < 0.0) decided = false;
      for (int k = 0; k < m; ++k) {
        const sim::Vec3 rel = (d.position - mission.obstacles.at(k).center).horizontal();
        double& c = closest[static_cast<size_t>(i * m + k)];
        c = std::min(c, rel.norm_xy_sq());
        const double along = rel.dot(axis);
        if (!(along > 0.0) || along * along < c) decided = false;
      }
    }
    if (decided && recorder.times()[static_cast<size_t>(s)] >= after) return s;
  }
  return -1;
}

TEST(SimulatorDecidedHorizon, MatchesUncutRunTickForTickUntilTheCut) {
  // A real attacked 10-drone mission, and the straight-line mission with
  // collisions kept flying (stop_on_collision off) so first_collision is
  // set before the cut.
  struct Case {
    sim::MissionSpec mission;
    sim::SimulationConfig config;
    bool vasarhelyi;
  };
  sim::SimulationConfig keep_flying = sim_config();
  keep_flying.stop_on_collision = false;
  const std::vector<Case> cases = {
      {paper_mission(fuzz::mission_seed(1000, 0, 0), 10), sim_config(), true},
      {straight_mission(), keep_flying, false},
  };
  for (const Case& c : cases) {
    const sim::Simulator simulator(c.config);
    std::unique_ptr<sim::ControlSystem> control;
    if (c.vasarhelyi) {
      control = swarm::make_vasarhelyi_system();
    } else {
      control = std::make_unique<StraightLineControl>();
    }
    const attack::GpsSpoofer spoofer(
        attack::SpoofingPlan{.target = 1,
                             .direction = attack::SpoofDirection::kLeft,
                             .start_time = 10.0,
                             .duration = 15.0,
                             .distance = 10.0},
        c.mission);
    CheckpointLog full_log;
    CheckpointLog cut_log;
    sim::RunHooks hooks{.spoofer = &spoofer, .checkpoints = &full_log,
                        .checkpoint_period = c.config.dt};
    const sim::RunResult full = simulator.run(c.mission, *control, hooks);
    hooks.checkpoints = &cut_log;
    hooks.stop_when_decided_after = 25.0 + 1.0 / c.config.gps.rate_hz;
    const sim::RunResult cut = simulator.run(c.mission, *control, hooks);

    ASSERT_LT(cut.end_time, full.end_time);
    ASSERT_LT(cut.steps_executed, full.steps_executed);
    ASSERT_LE(cut_log.log.size(), full_log.log.size());
    // Every tick the cut run flew left the same accumulators as the uncut one.
    for (size_t j = 0; j < cut_log.log.size(); ++j) {
      const sim::SimulationCheckpoint& a = cut_log.log[j];
      const sim::SimulationCheckpoint& b = full_log.log[j];
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.recorder_state.min_center_d2, b.recorder_state.min_center_d2);
      ASSERT_EQ(a.recorder_state.min_center_time, b.recorder_state.min_center_time);
      expect_same_collision(a.first_collision, b.first_collision);
    }
    // And the minima it stopped with are the uncut run's final ones.
    expect_same_minima(cut.recorder, full.recorder);
    expect_same_collision(cut.first_collision, full.first_collision);
    if (!c.vasarhelyi) {
      ASSERT_TRUE(cut.first_collision.has_value());
      EXPECT_EQ(cut.first_collision->kind, sim::CollisionKind::kDroneObstacle);
    }
  }
}

TEST(SimulatorDecidedHorizon, EndsAtTheFirstTickWhereTheRuleHolds) {
  sim::SimulationConfig config = sim_config();
  config.record_period = 0.0;  // keep every tick for the oracle
  const sim::Simulator simulator(config);
  for (const std::uint64_t seed : {fuzz::mission_seed(1000, 1, 0),
                                   fuzz::mission_seed(1000, 2, 0)}) {
    const sim::MissionSpec mission = paper_mission(seed, 10);
    auto system = swarm::make_vasarhelyi_system();
    const sim::RunResult full = simulator.run(mission, *system);
    for (const double after : {0.0, 40.0, 60.0}) {
      const int expected = first_decided_sample(full.recorder, mission, after);
      ASSERT_GT(expected, 0) << "seed " << seed << " after " << after;
      sim::RunHooks hooks;
      hooks.stop_when_decided_after = after;
      const sim::RunResult cut = simulator.run(mission, *system, hooks);
      EXPECT_EQ(cut.end_time, full.recorder.times()[static_cast<size_t>(expected)]);
      EXPECT_EQ(cut.steps_executed, expected);
      EXPECT_FALSE(cut.reached_destination);
    }
  }
}

TEST(SimulatorDecidedHorizon, NeverEndsEarlyNorShortOfAnyObstacle) {
  // Multi-obstacle missions; the straight-line one whose drone 0 hits the
  // first obstacle, so the collision, not the rule, must end that run; and
  // the converging one, where being past the centre is not yet enough.
  sim::SimulationConfig config = sim_config();
  config.record_period = 0.0;  // the last kept sample is the final state
  const sim::Simulator simulator(config);
  struct Case {
    sim::MissionSpec mission;
    bool vasarhelyi;
  };
  const std::vector<Case> cases = {
      {paper_mission(fuzz::mission_seed(1000, 3, 0), 10, /*obstacles=*/3), true},
      {paper_mission(fuzz::mission_seed(1000, 4, 0), 5, /*obstacles=*/2), true},
      {straight_mission(), false},
      {converging_mission(), false},
  };
  int cut_runs = 0;
  for (const Case& c : cases) {
    const sim::MissionSpec& mission = c.mission;
    const sim::Vec3 axis = sim::mission_axis(mission);
    std::unique_ptr<sim::ControlSystem> control;
    if (c.vasarhelyi) {
      control = swarm::make_vasarhelyi_system();
    } else {
      control = std::make_unique<StraightLineControl>();
    }
    const sim::RunResult full = simulator.run(mission, *control);
    for (const double after : {0.0, 1.0, 30.0, 55.0, full.end_time}) {
      sim::RunHooks hooks;
      hooks.stop_when_decided_after = after;
      const sim::RunResult cut = simulator.run(mission, *control, hooks);
      EXPECT_LE(cut.end_time, full.end_time);
      expect_same_minima(cut.recorder, full.recorder);
      expect_same_collision(cut.first_collision, full.first_collision);
      if (cut.end_time == full.end_time) continue;  // arrival or collision
      ++cut_runs;
      EXPECT_GE(cut.end_time, after);
      const auto last = cut.recorder.sample(cut.recorder.num_samples() - 1);
      ASSERT_EQ(cut.recorder.times().back(), cut.end_time);
      for (int i = 0; i < mission.num_drones(); ++i) {
        for (int k = 0; k < mission.obstacles.size(); ++k) {
          const double along =
              (last[static_cast<size_t>(i)].position - mission.obstacles.at(k).center)
                  .horizontal()
                  .dot(axis);
          EXPECT_GT(along, 0.0) << "drone " << i << " short of obstacle " << k
                                << " when the run ended at " << cut.end_time;
        }
      }
    }
  }
  EXPECT_GT(cut_runs, 0);
}

TEST(SimulatorDecidedHorizon, WaitsWhileADroneMovesBack) {
  // Past the obstacle and beyond its closest approach, but flying back: the
  // run must go on, because the drone is about to come closer.
  sim::MissionSpec mission;
  mission.initial_positions = {{0, 0, 10}};
  mission.destination = {200, 0, 10};
  mission.obstacles = sim::ObstacleField({sim::CylinderObstacle{{100, 5, 0}, 1.0}});
  mission.max_time = 300.0;
  const sim::Simulator simulator(sim_config());
  TurnBackControl control;
  const sim::RunResult full = simulator.run(mission, control);
  ASSERT_TRUE(full.reached_destination);
  ASSERT_LT(full.vdo(0), 1.0);  // the skim, on the way back
  sim::RunHooks hooks;
  hooks.stop_when_decided_after = 50.0;  // on the way back
  const sim::RunResult cut = simulator.run(mission, control, hooks);
  EXPECT_LT(cut.end_time, full.end_time);
  EXPECT_GT(cut.end_time, full.recorder.time_of_min_obstacle_distance(0));
  expect_same_minima(cut.recorder, full.recorder);
}

TEST(SimulatorDecidedHorizon, DefaultFliesToArrival) {
  EXPECT_EQ(sim::RunHooks{}.stop_when_decided_after, kInf);
  const sim::Simulator simulator(sim_config());
  for (const std::uint64_t seed : {fuzz::mission_seed(1000, 0, 0),
                                   fuzz::mission_seed(1000, 5, 0)}) {
    const sim::MissionSpec mission = paper_mission(seed, 10);
    auto system = swarm::make_vasarhelyi_system();
    const attack::GpsSpoofer spoofer(
        attack::SpoofingPlan{.target = 0, .start_time = 20.0, .duration = 20.0,
                             .distance = 10.0},
        mission);
    const sim::RunResult plain = simulator.run(mission, *system, &spoofer);
    sim::RunHooks hooks{.spoofer = &spoofer};
    const sim::RunResult defaulted = simulator.run(mission, *system, hooks);
    // A cut armed only after arrival changes nothing either.
    hooks.stop_when_decided_after = plain.end_time + 1.0;
    const sim::RunResult late = simulator.run(mission, *system, hooks);
    for (const sim::RunResult* run : {&defaulted, &late}) {
      EXPECT_EQ(run->end_time, plain.end_time);
      EXPECT_EQ(run->steps_executed, plain.steps_executed);
      EXPECT_EQ(run->reached_destination, plain.reached_destination);
      EXPECT_EQ(run->recorder.num_samples(), plain.recorder.num_samples());
      EXPECT_EQ(run->recorder.closest_time(), plain.recorder.closest_time());
      expect_same_minima(run->recorder, plain.recorder);
      expect_same_collision(run->first_collision, plain.first_collision);
    }
  }
}

// Pinned Table I missions (10 drones, d = 10 m) x their scheduled seeds x
// the fuzzer's three initial guesses: everything a search reads is
// identical at both horizons, and the decided one simulates less.
TEST(ObjectiveDecidedHorizon, SameOutcomesAsFullHorizonInFewerSteps) {
  const fuzz::FuzzerConfig defaults;
  const sim::Simulator simulator(sim_config());
  std::int64_t decided_steps = 0;
  std::int64_t full_steps = 0;
  int runs = 0;
  for (const int index : {0, 1}) {
    const sim::MissionSpec mission =
        paper_mission(fuzz::mission_seed(1000, index, 0), 10);
    auto system = swarm::make_vasarhelyi_system();
    fuzz::PrefixCache prefix;
    const sim::RunResult clean = simulator.run(
        mission, *system, sim::RunHooks{.checkpoints = &prefix});
    prefix.set_source(clean.recorder);
    const std::vector<fuzz::Seed> seeds =
        fuzz::schedule_seeds(clean, mission, *system, 10.0);
    ASSERT_FALSE(seeds.empty());
    const fuzz::EvalGuards decided{};
    const fuzz::EvalGuards full{.full_horizon = true};
    for (const fuzz::Seed& seed : seeds) {
      const double t_ca = clean.recorder.time_of_min_obstacle_distance(seed.victim);
      const double lead = defaults.lead_time;
      const double dur = defaults.initial_duration;
      const double guesses[3][2] = {{t_ca - lead, dur},
                                    {t_ca - 2.0 * lead - dur, dur},
                                    {t_ca - lead / 2.0, dur / 2.0}};
      for (const auto& guess : guesses) {
        double t_start = std::max(guess[0], 0.0);
        double duration = guess[1];
        fuzz::project_window(t_start, duration, clean.end_time, sim_config().dt);
        const fuzz::AttackEvalOutcome a = fuzz::evaluate_attack(
            mission, simulator, *system, seed, 10.0, &prefix, &decided, t_start,
            duration);
        const fuzz::AttackEvalOutcome b = fuzz::evaluate_attack(
            mission, simulator, *system, seed, 10.0, &prefix, &full, t_start,
            duration);
        EXPECT_EQ(a.eval.f, b.eval.f);
        EXPECT_EQ(a.eval.success, b.eval.success);
        EXPECT_EQ(a.eval.crashed_drone, b.eval.crashed_drone);
        EXPECT_EQ(a.eval.drone_clearance, b.eval.drone_clearance);
        EXPECT_EQ(a.eval.min_clearance_time, b.eval.min_clearance_time);
        EXPECT_LE(a.eval.end_time, b.eval.end_time);
        EXPECT_EQ(a.steps_resumed, b.steps_resumed);
        decided_steps += a.steps_executed;
        full_steps += b.steps_executed;
        ++runs;
      }
    }
  }
  EXPECT_GT(runs, 0);
  EXPECT_LT(decided_steps, full_steps);
}

TEST(EvolutionaryDecidedHorizon, FullHorizonEvaluationEndsWithTheUncutRun) {
  const sim::Simulator simulator(sim_config());
  const sim::MissionSpec mission = paper_mission(fuzz::mission_seed(1000, 0, 0), 10);
  auto system = swarm::make_vasarhelyi_system();
  const fuzz::Seed seed{.target = 2, .victim = 3,
                        .direction = attack::SpoofDirection::kRight};
  const fuzz::EvalGuards full{.full_horizon = true};
  const fuzz::AttackEvalOutcome decided = fuzz::evaluate_attack(
      mission, simulator, *system, seed, 10.0, nullptr, nullptr, 10.0, 15.0);
  const fuzz::AttackEvalOutcome flown = fuzz::evaluate_attack(
      mission, simulator, *system, seed, 10.0, nullptr, &full, 10.0, 15.0);
  const attack::GpsSpoofer spoofer(
      attack::SpoofingPlan{.target = 2, .direction = attack::SpoofDirection::kRight,
                           .start_time = 10.0, .duration = 15.0, .distance = 10.0},
      mission);
  const sim::RunResult uncut = simulator.run(mission, *system, &spoofer);
  EXPECT_EQ(flown.eval.end_time, uncut.end_time);
  EXPECT_EQ(flown.steps_executed, uncut.steps_executed);
  EXPECT_LT(decided.eval.end_time, uncut.end_time);
}

TEST(ObjectiveDecidedHorizon, PackingFeatureOnlyOnFullHorizonRuns) {
  // min_avg_separation scans every recorded sample, and only E_Fuzz's
  // novelty signature reads it: a full-horizon evaluation reports the
  // packing at the uncut run's closest_time(); a decided-horizon one skips
  // the scan and leaves the field at 0.0.
  const sim::MissionSpec mission = paper_mission(fuzz::mission_seed(1000, 0, 0), 10);
  const sim::Simulator simulator(sim_config());
  auto system = swarm::make_vasarhelyi_system();
  const fuzz::Seed seed{.target = 2, .victim = 3,
                        .direction = attack::SpoofDirection::kRight};
  const fuzz::EvalGuards full{.full_horizon = true};
  const fuzz::EvalGuards decided{};
  const fuzz::AttackEvalOutcome flown = fuzz::evaluate_attack(
      mission, simulator, *system, seed, 10.0, nullptr, &full, 10.0, 15.0);
  const attack::GpsSpoofer spoofer(
      attack::SpoofingPlan{.target = 2, .direction = attack::SpoofDirection::kRight,
                           .start_time = 10.0, .duration = 15.0, .distance = 10.0},
      mission);
  const sim::RunResult uncut = simulator.run(mission, *system, &spoofer);
  const double packing = uncut.recorder.avg_inter_distance(
      uncut.recorder.sample_index_at(uncut.recorder.closest_time()));
  EXPECT_GT(packing, 0.0);
  EXPECT_EQ(flown.eval.min_avg_separation, packing);

  for (const fuzz::EvalGuards* guards :
       {&decided, static_cast<const fuzz::EvalGuards*>(nullptr)}) {
    const fuzz::AttackEvalOutcome cut = fuzz::evaluate_attack(
        mission, simulator, *system, seed, 10.0, nullptr, guards, 10.0, 15.0);
    EXPECT_EQ(cut.eval.min_avg_separation, 0.0);
    EXPECT_EQ(cut.eval.f, flown.eval.f);
  }
}

TEST(EvolutionaryDecidedHorizon, CorpusSignaturesComeFromFullHorizonRuns) {
  // E_Fuzz's persisted corpus records each entry's novelty signature, which
  // reads min_avg_separation — tightest at arrival. Re-simulating every
  // entry at the full horizon must reproduce its signature; at the decided
  // horizon at least one must differ, or this test could not tell.
  const std::string dir =
      (std::filesystem::path{::testing::TempDir()} / "swarmfuzz_decided_horizon")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const sim::MissionSpec mission = paper_mission(fuzz::mission_seed(1000, 0, 0), 5);
  fuzz::FuzzerConfig config;
  config.sim = sim_config();
  config.spoof_distance = 10.0;
  config.mission_budget = 16;
  config.evolution.corpus_dir = dir;
  (void)fuzz::make_fuzzer(fuzz::FuzzerKind::kEvolutionary, config)->fuzz(mission);
  const std::vector<fuzz::CorpusEntry> corpus = fuzz::load_corpus(
      dir + "/corpus_" + std::to_string(mission.seed) + ".jsonl");
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(corpus.empty());

  const sim::Simulator simulator(config.sim);
  auto system = swarm::make_vasarhelyi_system();
  const double t_mission = simulator.run(mission, *system).end_time;
  const fuzz::EvalGuards full{.full_horizon = true};
  int differ_when_cut = 0;
  for (const fuzz::CorpusEntry& entry : corpus) {
    for (const fuzz::EvalGuards* guards :
         {&full, static_cast<const fuzz::EvalGuards*>(nullptr)}) {
      const fuzz::AttackEvalOutcome out = fuzz::evaluate_attack(
          mission, simulator, *system, entry.seed, config.spoof_distance, nullptr,
          guards, entry.t_start, entry.duration);
      const std::vector<std::uint32_t> signature =
          fuzz::novelty_signature(out.eval, t_mission, config.evolution.novelty);
      if (guards != nullptr) {
        EXPECT_EQ(signature, entry.signature);
      } else if (signature != entry.signature) {
        ++differ_when_cut;
      }
    }
  }
  EXPECT_GT(differ_when_cut, 0);
}

}  // namespace
}  // namespace swarmfuzz
