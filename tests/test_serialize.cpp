#include "fuzz/serialize.h"

#include <gtest/gtest.h>

#include <cerrno>

#include "util/retry.h"

namespace swarmfuzz::fuzz {
namespace {

FuzzResult sample_result() {
  FuzzResult result;
  result.found = true;
  result.plan = attack::SpoofingPlan{.target = 1,
                                     .direction = attack::SpoofDirection::kLeft,
                                     .start_time = 12.5,
                                     .duration = 8.0,
                                     .distance = 10.0};
  result.victim = 4;
  result.victim_vdo = 2.25;
  result.iterations = 7;
  result.simulations = 30;
  result.mission_vdo = 2.25;
  result.clean_mission_time = 98.5;
  result.attempts.push_back(SeedAttempt{
      Seed{.target = 1, .victim = 4, .direction = attack::SpoofDirection::kLeft,
           .vdo = 2.25, .influence = 0.45},
      OptimizationResult{.success = true, .t_start = 12.5, .duration = 8.0,
                         .best_f = -0.01, .crashed_drone = 4, .iterations = 7}});
  return result;
}

TEST(Serialize, FuzzResultContainsKeyFields) {
  const std::string json = to_json(sample_result());
  EXPECT_NE(json.find("\"found\":true"), std::string::npos);
  EXPECT_NE(json.find("\"victim\":4"), std::string::npos);
  EXPECT_NE(json.find("\"direction\":\"left\""), std::string::npos);
  EXPECT_NE(json.find("\"start_time\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"attempts\":["), std::string::npos);
  EXPECT_NE(json.find("\"influence\":0.45"), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Serialize, NotFoundResultOmitsPlan) {
  FuzzResult result;
  result.found = false;
  result.iterations = 60;
  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"found\":false"), std::string::npos);
  EXPECT_EQ(json.find("\"plan\""), std::string::npos);
}

TEST(Serialize, CampaignResultAggregatesAndRows) {
  CampaignResult campaign;
  campaign.config.kind = FuzzerKind::kSwarmFuzz;
  campaign.config.mission.num_drones = 5;
  campaign.config.fuzzer.spoof_distance = 10.0;
  campaign.outcomes.push_back(MissionOutcome{.mission_index = 0,
                                             .completed = true,
                                             .mission_seed = 1000,
                                             .wall_time_s = 0.5,
                                             .result = sample_result()});
  FuzzResult miss;
  miss.found = false;
  miss.iterations = 60;
  miss.mission_vdo = 5.0;
  campaign.outcomes.push_back(MissionOutcome{.mission_index = 1,
                                             .completed = true,
                                             .mission_seed = 1001,
                                             .wall_time_s = 0.5,
                                             .result = miss});

  const std::string json = to_json(campaign);
  EXPECT_NE(json.find("\"fuzzer\":\"SwarmFuzz\""), std::string::npos);
  EXPECT_NE(json.find("\"num_missions\":2"), std::string::npos);
  EXPECT_NE(json.find("\"success_rate\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"success_rate_ci95\":["), std::string::npos);
  EXPECT_NE(json.find("\"missions\":["), std::string::npos);
  EXPECT_NE(json.find("\"seed\":\"1000\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Serialize, CampaignResultReportsTransportRetryCounters) {
  util::io_retrier().reset();
  // Two transient failures absorbed by the retry layer, then success.
  int calls = 0;
  (void)util::io_retrier().run("serialize_test", [&calls] {
    if (++calls < 3) throw util::IoError("hiccup", EIO);
    return calls;
  });

  CampaignResult campaign;
  const std::string json = to_json(campaign);
  EXPECT_NE(json.find("\"io_retry\":{"), std::string::npos);
  EXPECT_NE(json.find("\"attempts\":\"3\""), std::string::npos);
  EXPECT_NE(json.find("\"retries\":\"2\""), std::string::npos);
  EXPECT_NE(json.find("\"exhausted\":\"0\""), std::string::npos);
  EXPECT_NE(json.find("\"permanent\":\"0\""), std::string::npos);
  util::io_retrier().reset();
}

}  // namespace
}  // namespace swarmfuzz::fuzz
