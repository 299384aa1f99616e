// E_Fuzz end-to-end: determinism across eval-thread counts and prefix
// reuse, corpus persistence/resume, counter plumbing, degenerate inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"
#include "fuzz/seeds.h"
#include "sim/fault.h"
#include "swarm/vasarhelyi.h"

namespace swarmfuzz::fuzz {
namespace {

FuzzerConfig fast_config(double spoof_distance = 10.0) {
  FuzzerConfig config;
  config.spoof_distance = spoof_distance;
  config.sim.dt = 0.05;
  config.sim.gps.rate_hz = 20.0;
  return config;
}

sim::MissionSpec mission_with(std::uint64_t seed, int drones = 5) {
  sim::MissionConfig config;
  config.num_drones = drones;
  return sim::generate_mission(config, seed);
}

std::string fresh_corpus_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path{::testing::TempDir()} / ("swarmfuzz_evo_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST(Evolutionary, KindNameAndFactory) {
  EXPECT_EQ(fuzzer_kind_name(FuzzerKind::kEvolutionary), "E_Fuzz");
  EXPECT_EQ(make_fuzzer(FuzzerKind::kEvolutionary, fast_config())->name(),
            "E_Fuzz");
}

TEST(Evolutionary, BitIdenticalAcrossEvalThreads) {
  // The determinism contract of the whole mode: for a fixed seed, the search
  // outcome AND the persisted corpus are bit-identical for any eval-thread
  // count (batch composition depends only on the RNG stream and corpus
  // state, both advancing in replay = submission order).
  const sim::MissionSpec mission = mission_with(1000);  // robust: full budget
  FuzzerConfig config = fast_config(10.0);
  config.mission_budget = 24;

  const std::string dir_serial = fresh_corpus_dir("serial");
  const std::string dir_pool = fresh_corpus_dir("pool");
  config.eval_threads = 1;
  config.evolution.corpus_dir = dir_serial;
  const FuzzResult serial =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
  config.eval_threads = 4;
  config.evolution.corpus_dir = dir_pool;
  const FuzzResult pooled =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);

  EXPECT_TRUE(deterministic_equal(serial, pooled));
  EXPECT_EQ(serial.iterations, 24);
  const std::string file = "/corpus_" + std::to_string(mission.seed) + ".jsonl";
  EXPECT_EQ(slurp(dir_serial + file), slurp(dir_pool + file));
  std::filesystem::remove_all(dir_serial);
  std::filesystem::remove_all(dir_pool);
}

TEST(Evolutionary, BitIdenticalAcrossPrefixReuse) {
  const sim::MissionSpec mission = mission_with(1002);
  FuzzerConfig config = fast_config(10.0);
  config.mission_budget = 16;
  config.prefix_reuse = true;
  const FuzzResult with_prefix =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
  config.prefix_reuse = false;
  const FuzzResult without_prefix =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
  EXPECT_TRUE(deterministic_equal(with_prefix, without_prefix));
}

TEST(Evolutionary, PopulatesCorpusCounters) {
  FuzzerConfig config = fast_config(10.0);
  config.mission_budget = 16;
  const FuzzResult result =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission_with(1000));
  EXPECT_GT(result.corpus_size, 0);
  // After minimization each entry covers at least one exclusive bin.
  EXPECT_GE(result.novelty_bins, result.corpus_size);
  EXPECT_GE(result.corpus_admissions, result.corpus_size);
  EXPECT_EQ(result.iterations, 16);
  EXPECT_EQ(result.attempts_tried, 16);
  EXPECT_GT(result.simulations, 0);
}

TEST(Evolutionary, ResumesFromSavedCorpus) {
  const std::string dir = fresh_corpus_dir("resume");
  const sim::MissionSpec mission = mission_with(1000);
  FuzzerConfig config = fast_config(10.0);
  config.mission_budget = 16;
  config.evolution.corpus_dir = dir;
  const FuzzResult first =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
  ASSERT_GT(first.corpus_size, 0);

  const std::string path =
      dir + "/corpus_" + std::to_string(mission.seed) + ".jsonl";
  ASSERT_EQ(static_cast<int>(load_corpus(path).size()), first.corpus_size);

  // A second campaign over the same directory starts from the saved
  // population: its bin coverage can only grow.
  const FuzzResult second =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
  EXPECT_GE(second.novelty_bins, first.novelty_bins);
  EXPECT_EQ(static_cast<int>(load_corpus(path).size()), second.corpus_size);
  std::filesystem::remove_all(dir);
}

TEST(Evolutionary, MarksNoSeedsWithoutObstacles) {
  auto fuzzer = make_fuzzer(FuzzerKind::kEvolutionary, fast_config());
  sim::MissionSpec mission = mission_with(1002);
  mission.obstacles = sim::ObstacleField{};
  const FuzzResult result = fuzzer->fuzz(mission);
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.no_seeds);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(result.corpus_size, 0);
}

TEST(Evolutionary, RespectsMissionBudgetWithOddBatchSize) {
  FuzzerConfig config = fast_config(10.0);
  config.mission_budget = 10;
  config.evolution.batch_size = 4;  // budget is not a multiple of the batch
  const FuzzResult result =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission_with(1000));
  EXPECT_EQ(result.iterations, 10);
}

// Distinct (target, victim, direction) pairs among the first `count`
// scheduled seeds of `mission`: when it equals `count`, E_Fuzz's round 0 is
// `count` single-entry groups, one per pair.
std::size_t distinct_round0_pairs(const sim::MissionSpec& mission,
                                  const FuzzerConfig& config, std::size_t count) {
  const sim::Simulator simulator(config.sim);
  swarm::FlockingControlSystem system(
      std::make_shared<swarm::VasarhelyiController>(), config.comm);
  const sim::RunResult clean = simulator.run(mission, system);
  const std::vector<Seed> scheduled = schedule_seeds(
      clean, mission, system, config.spoof_distance, config.seeds);
  std::set<std::tuple<int, int, int>> pairs;
  for (std::size_t i = 0; i < std::min(count, scheduled.size()); ++i) {
    pairs.emplace(scheduled[i].target, scheduled[i].victim,
                  static_cast<int>(scheduled[i].direction));
  }
  return pairs.size();
}

TEST(Evolutionary, SuccessInMidRoundGroupIsThreadCountIndependent) {
  // Mission 1009 at d = 10 m succeeds on round 0's third entry. Round 0 is
  // one group per pair, so the success lands in a group that is not the
  // round's last: at 4 eval threads the rest of the round was simulated
  // speculatively, and none of that work may be counted or persisted.
  const sim::MissionSpec mission = mission_with(1009);
  FuzzerConfig config = fast_config(10.0);
  const auto batch = static_cast<std::size_t>(config.evolution.batch_size);
  ASSERT_EQ(distinct_round0_pairs(mission, config, batch), batch);

  const std::string dir_serial = fresh_corpus_dir("mid_round_serial");
  const std::string dir_pool = fresh_corpus_dir("mid_round_pool");
  config.eval_threads = 1;
  config.evolution.corpus_dir = dir_serial;
  const FuzzResult serial =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
  config.eval_threads = 4;
  config.evolution.corpus_dir = dir_pool;
  const FuzzResult pooled =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);

  ASSERT_TRUE(serial.found);
  ASSERT_GE(serial.iterations, 2);
  ASSERT_LT(serial.iterations, config.evolution.batch_size);
  EXPECT_TRUE(deterministic_equal(serial, pooled));
  EXPECT_EQ(serial.simulations, pooled.simulations);
  EXPECT_EQ(serial.sim_steps_executed, pooled.sim_steps_executed);
  EXPECT_EQ(serial.prefix_steps_reused, pooled.prefix_steps_reused);
  EXPECT_EQ(serial.eval_batches, pooled.eval_batches);
  // One batch per pair group replayed, not per pool call.
  EXPECT_EQ(pooled.eval_batches, pooled.iterations);
  EXPECT_EQ(pooled.eval_parallelism, 4);
  const std::string file = "/corpus_" + std::to_string(mission.seed) + ".jsonl";
  EXPECT_EQ(slurp(dir_serial + file), slurp(dir_pool + file));
  std::filesystem::remove_all(dir_serial);
  std::filesystem::remove_all(dir_pool);
}

TEST(Evolutionary, GuardTripInMixedPairRoundRaisesSameFault) {
  // An injected throw 1 s after the clean run's end spares the clean run
  // and fires in every attacked run that lasts longer. On mission 1001 the
  // first two entries of round 0 do not; the third, in the same mixed-pair
  // round, does. Both thread counts must raise the fault, and the same one.
  const sim::MissionSpec mission = mission_with(1001);
  FuzzerConfig config = fast_config(10.0);
  const auto batch = static_cast<std::size_t>(config.evolution.batch_size);
  ASSERT_EQ(distinct_round0_pairs(mission, config, batch), batch);
  config.mission_budget = 1;
  const double clean_end =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission)
          .clean_mission_time;
  config.fault_injection = {.mode = sim::FaultInjection::Mode::kThrow,
                            .at_time = clean_end + 1.0};

  const auto fault_at = [&](int threads, int budget) -> std::string {
    config.eval_threads = threads;
    config.mission_budget = budget;
    try {
      (void)make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return {};
  };
  ASSERT_TRUE(fault_at(1, 2).empty());
  const std::string serial = fault_at(1, config.evolution.batch_size);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(fault_at(4, config.evolution.batch_size), serial);
  EXPECT_EQ(fault_at(4, 60), serial);
}

}  // namespace
}  // namespace swarmfuzz::fuzz
