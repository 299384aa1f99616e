#include "fuzz/campaign.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>

#include "fuzz/report.h"
#include "util/logging.h"

namespace swarmfuzz::fuzz {
namespace {

CampaignConfig small_campaign(int missions = 6) {
  CampaignConfig config;
  config.num_missions = missions;
  config.mission.num_drones = 5;
  config.fuzzer.spoof_distance = 10.0;
  config.fuzzer.sim.dt = 0.05;
  config.fuzzer.sim.gps.rate_hz = 20.0;
  config.fuzzer.mission_budget = 12;  // keep tests fast
  config.num_threads = 2;
  return config;
}

TEST(Campaign, RejectsZeroMissions) {
  CampaignConfig config = small_campaign(0);
  EXPECT_THROW((void)run_campaign(config), std::invalid_argument);
}

TEST(Campaign, MissionSeedsAreWellMixed) {
  // Adjacent base seeds must produce disjoint mission sets; the naive
  // `base + index` derivation shared all but one mission between base seeds
  // b and b+1.
  std::set<std::uint64_t> a, b;
  for (int i = 0; i < 100; ++i) {
    a.insert(mission_seed(1000, i, 0));
    b.insert(mission_seed(1001, i, 0));
  }
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(b.size(), 100u);
  for (const std::uint64_t seed : a) EXPECT_EQ(b.count(seed), 0u);
  // Retry attempts get fresh seeds too.
  EXPECT_NE(mission_seed(1000, 3, 0), mission_seed(1000, 3, 1));
  // And the derivation is a pure function.
  EXPECT_EQ(mission_seed(1000, 3, 1), mission_seed(1000, 3, 1));
}

TEST(Campaign, SmallCampaignStillLogsCompletion) {
  class CaptureSink final : public util::LogSink {
   public:
    void write(util::LogLevel, std::string_view message) override {
      messages.emplace_back(message);
    }
    std::vector<std::string> messages;
  };
  CaptureSink sink;
  util::set_log_sink(&sink);
  util::set_log_level(util::LogLevel::kInfo);
  // 2 missions is below the old `num_missions >= 10` progress guard, which
  // used to suppress every line of campaign output.
  (void)run_campaign(small_campaign(2));
  util::set_log_sink(nullptr);
  util::set_log_level(util::LogLevel::kWarn);

  bool saw_completion = false;
  for (const std::string& message : sink.messages) {
    if (message.find("complete") != std::string::npos &&
        message.find("2/2 missions") != std::string::npos) {
      saw_completion = true;
    }
  }
  EXPECT_TRUE(saw_completion);
}

TEST(Campaign, ProgressCallbackReportsEveryMission) {
  CampaignConfig config = small_campaign();
  std::vector<CampaignProgress> updates;
  config.num_threads = 1;
  config.on_progress = [&updates](const CampaignProgress& p) {
    updates.push_back(p);
  };
  (void)run_campaign(config);
  ASSERT_EQ(updates.size(), 6u);
  for (size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(updates[i].completed, static_cast<int>(i) + 1);
    EXPECT_EQ(updates[i].total, 6);
    EXPECT_EQ(updates[i].resumed, 0);
    EXPECT_GE(updates[i].elapsed_s, 0.0);
  }
}

TEST(CampaignProgressMath, ThroughputCountsOnlyThisRunsMissions) {
  CampaignProgress p;
  p.completed = 5;
  p.resumed = 4;
  p.total = 10;
  p.elapsed_s = 10.0;
  EXPECT_EQ(p.completed_this_run(), 1);
  // 1 fresh mission in 10 s — not the 0.5/s a naive completed/elapsed rate
  // would claim by crediting the 4 checkpoint replays to this session.
  EXPECT_DOUBLE_EQ(p.rate_per_s(), 0.1);
  // 5 missions remain at 0.1/s: 50 s, not the 10 s the naive rate implies.
  EXPECT_DOUBLE_EQ(p.eta_s(), 50.0);

  // Until the first fresh mission lands there is no rate and no ETA.
  CampaignProgress replay_only;
  replay_only.completed = replay_only.resumed = 4;
  replay_only.total = 10;
  replay_only.elapsed_s = 2.0;
  EXPECT_EQ(replay_only.completed_this_run(), 0);
  EXPECT_EQ(replay_only.rate_per_s(), 0.0);
  EXPECT_EQ(replay_only.eta_s(), 0.0);
}

TEST(CampaignProgressMath, ResumeSeparatesReplaysFromFreshWork) {
  const std::string path =
      (std::filesystem::path{::testing::TempDir()} / "swarmfuzz_progress.jsonl")
          .string();
  std::remove(path.c_str());

  CampaignConfig config = small_campaign();
  config.checkpoint_path = path;
  config.max_new_missions = 2;
  (void)run_campaign(config);  // "killed" after 2 of 6 missions

  config.max_new_missions = 0;
  config.num_threads = 1;
  std::vector<CampaignProgress> updates;
  config.on_progress = [&updates](const CampaignProgress& p) {
    updates.push_back(p);
  };
  (void)run_campaign(config);

  // One update per mission executed this session; the 2 replays never enter
  // the throughput denominator but do count toward completion.
  ASSERT_EQ(updates.size(), 4u);
  for (size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(updates[i].resumed, 2);
    EXPECT_EQ(updates[i].completed, static_cast<int>(i) + 3);
    EXPECT_EQ(updates[i].completed_this_run(), static_cast<int>(i) + 1);
    if (updates[i].elapsed_s > 0.0) {
      EXPECT_DOUBLE_EQ(updates[i].rate_per_s(),
                       updates[i].completed_this_run() / updates[i].elapsed_s);
    }
  }
  std::remove(path.c_str());
}

TEST(Campaign, RunsAllMissions) {
  const CampaignResult result = run_campaign(small_campaign());
  EXPECT_EQ(result.outcomes.size(), 6u);
  for (const MissionOutcome& o : result.outcomes) {
    EXPECT_GT(o.mission_seed, 0u);
    EXPECT_FALSE(o.result.clean_run_failed);  // retries resample failures
  }
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  // Which worker runs a mission must not matter: every deterministic field
  // of a 3-worker campaign equals the serial run's, for both vehicle models.
  for (const sim::VehicleType vehicle :
       {sim::VehicleType::kPointMass, sim::VehicleType::kQuadrotor}) {
    CampaignConfig config = small_campaign();
    config.fuzzer.sim.vehicle = vehicle;
    if (vehicle == sim::VehicleType::kQuadrotor) {
      config.num_missions = 4;
      config.fuzzer.mission_budget = 6;  // quadrotor steps cost more
    }
    config.num_threads = 1;
    const CampaignResult serial = run_campaign(config);
    config.num_threads = 3;
    const CampaignResult parallel = run_campaign(config);
    ASSERT_EQ(serial.num_completed(), config.num_missions);
    EXPECT_TRUE(deterministic_equal(serial, parallel))
        << (vehicle == sim::VehicleType::kQuadrotor ? "quadrotor" : "point mass");
  }
}

TEST(Campaign, PrefixReuseDoesNotChangeResults) {
  // Prefix reuse is a pure performance optimization: a campaign run with it
  // must compare deterministic_equal to one without, while actually skipping
  // simulation work.
  CampaignConfig config = small_campaign();
  config.fuzzer.prefix_reuse = true;
  const CampaignResult with_reuse = run_campaign(config);
  config.fuzzer.prefix_reuse = false;
  const CampaignResult without = run_campaign(config);

  EXPECT_TRUE(deterministic_equal(with_reuse, without));
  EXPECT_GT(with_reuse.total_prefix_steps_reused(), 0);
  EXPECT_EQ(without.total_prefix_steps_reused(), 0);
  EXPECT_LT(with_reuse.total_sim_steps_executed(),
            without.total_sim_steps_executed());
}

TEST(Campaign, AggregatesAreConsistent) {
  const CampaignResult result = run_campaign(small_campaign());
  EXPECT_EQ(result.num_fuzzable(), 6);
  EXPECT_GE(result.num_found(), 0);
  EXPECT_LE(result.num_found(), 6);
  EXPECT_NEAR(result.success_rate(),
              static_cast<double>(result.num_found()) / 6.0, 1e-12);
  EXPECT_EQ(result.found_start_times().size(),
            static_cast<size_t>(result.num_found()));
  EXPECT_EQ(result.found_durations().size(),
            static_cast<size_t>(result.num_found()));
  EXPECT_EQ(result.mission_vdos().size(), 6u);
}

TEST(Campaign, CumulativeSuccessCurveIsWellFormed) {
  const CampaignResult result = run_campaign(small_campaign());
  const auto curve = result.cumulative_success_by_vdo();
  ASSERT_FALSE(curve.empty());
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);  // x sorted
  }
  for (const auto& [vdo, rate] : curve) {
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }
  // The final point covers all missions: rate equals overall success rate.
  EXPECT_NEAR(curve.back().second, result.success_rate(), 1e-12);
}

TEST(Campaign, CumulativeSuccessCurveDropsNonFiniteVdos) {
  // Obstacle-free or degenerate clean runs produce infinite (or, through
  // downstream arithmetic, NaN) mission VDOs. They must not appear on the
  // VDO axis, and a NaN must not poison the adjacent-point dedup sweep.
  auto outcome = [](int index, double vdo, bool found) {
    MissionOutcome o;
    o.mission_index = index;
    o.completed = true;
    o.result.found = found;
    o.result.mission_vdo = vdo;
    return o;
  };
  CampaignResult result;
  result.outcomes.push_back(outcome(0, 2.0, true));
  result.outcomes.push_back(outcome(1, std::numeric_limits<double>::quiet_NaN(),
                                    true));
  result.outcomes.push_back(outcome(2, 5.0, false));
  result.outcomes.push_back(outcome(3, std::numeric_limits<double>::infinity(),
                                    false));
  result.outcomes.push_back(outcome(4, 3.5, true));

  const auto curve = result.cumulative_success_by_vdo();
  ASSERT_EQ(curve.size(), 3u);
  for (const auto& [vdo, rate] : curve) EXPECT_TRUE(std::isfinite(vdo));
  EXPECT_DOUBLE_EQ(curve[0].first, 2.0);
  EXPECT_DOUBLE_EQ(curve[0].second, 1.0);  // 1 success of 1
  EXPECT_DOUBLE_EQ(curve[1].first, 3.5);
  EXPECT_DOUBLE_EQ(curve[1].second, 1.0);  // 2 of 2
  EXPECT_DOUBLE_EQ(curve[2].first, 5.0);
  EXPECT_DOUBLE_EQ(curve[2].second, 2.0 / 3.0);

  // All-non-finite input degenerates to an empty curve, not a crash.
  CampaignResult degenerate;
  degenerate.outcomes.push_back(
      outcome(0, std::numeric_limits<double>::quiet_NaN(), true));
  EXPECT_TRUE(degenerate.cumulative_success_by_vdo().empty());
}

TEST(Campaign, IterationAveragesBounded) {
  CampaignConfig config = small_campaign();
  const CampaignResult result = run_campaign(config);
  EXPECT_GE(result.avg_iterations_all(), 0.0);
  EXPECT_LE(result.avg_iterations_all(),
            config.fuzzer.mission_budget + config.fuzzer.per_seed_budget);
  if (result.num_found() > 0) {
    EXPECT_GT(result.avg_iterations_successful(), 0.0);
  } else {
    // No successes: the average is undefined (NaN), which serializes as
    // JSON null rather than an invalid bare nan token.
    EXPECT_TRUE(std::isnan(result.avg_iterations_successful()));
  }
}

TEST(Campaign, GridRunsEveryCell) {
  GridConfig grid;
  grid.swarm_sizes = {5};
  grid.spoof_distances = {5.0, 10.0};
  grid.base = small_campaign(3);
  const auto cells = run_grid(grid);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].swarm_size, 5);
  EXPECT_DOUBLE_EQ(cells[0].spoof_distance, 5.0);
  EXPECT_DOUBLE_EQ(cells[1].spoof_distance, 10.0);
  EXPECT_EQ(cells[0].result.outcomes.size(), 3u);
  EXPECT_EQ(cell_label(cells[0]), "5d-5m");
}

TEST(Campaign, ReportFormattersProduceTables) {
  GridConfig grid;
  grid.swarm_sizes = {5};
  grid.spoof_distances = {10.0};
  grid.base = small_campaign(3);
  const auto cells = run_grid(grid);
  const std::string table1 = format_success_table(cells);
  EXPECT_NE(table1.find("Table I"), std::string::npos);
  EXPECT_NE(table1.find("5 drones"), std::string::npos);
  EXPECT_NE(table1.find("10m spoofing"), std::string::npos);
  const std::string table2 = format_iterations_table(cells);
  EXPECT_NE(table2.find("Table II"), std::string::npos);
  EXPECT_NE(table2.find("5-drone"), std::string::npos);

  std::vector<CampaignResult> per_fuzzer{cells[0].result};
  const std::string table3 = format_ablation_table(per_fuzzer);
  EXPECT_NE(table3.find("Table III"), std::string::npos);
  EXPECT_NE(table3.find("SwarmFuzz"), std::string::npos);
  EXPECT_NE(table3.find("Success rate"), std::string::npos);
}

TEST(Campaign, IterationsTablePrintsNotApplicableWithoutSpvs) {
  // A cell with no SPV has no average over successful missions: Table II
  // says n/a, while the statistic itself stays NaN (JSON null).
  GridCell cell{.swarm_size = 5, .spoof_distance = 5.0};
  MissionOutcome outcome;
  outcome.mission_index = 0;
  outcome.completed = true;
  outcome.result.iterations = 60;
  cell.result.outcomes.push_back(outcome);
  ASSERT_TRUE(std::isnan(cell.result.avg_iterations_successful()));
  const std::string table = format_iterations_table({cell});
  EXPECT_NE(table.find("n/a"), std::string::npos) << table;
  EXPECT_EQ(table.find("nan"), std::string::npos) << table;
}

}  // namespace
}  // namespace swarmfuzz::fuzz
