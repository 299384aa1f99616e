// Fault-containment tests (DESIGN.md section 11): numerical-health
// sentinels, watchdogs and deterministic fault injection at the simulator
// level, and the supervisor's retry/quarantine/fail-fast machinery at the
// campaign level.
#include "sim/fault.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>

#include "fuzz/campaign.h"
#include "fuzz/telemetry.h"
#include "sim/simulator.h"

namespace swarmfuzz {
namespace {

using sim::FaultInjection;
using sim::FaultKind;
using sim::RunFaultError;

std::string temp_path(const std::string& name) {
  return (std::filesystem::path{::testing::TempDir()} /
          ("swarmfuzz_fault_" + name))
      .string();
}

// Drives every drone straight toward the destination at fixed speed.
class StraightLineControl final : public sim::ControlSystem {
 public:
  void reset(const sim::MissionSpec&, std::uint64_t) override {}
  void compute(const sim::WorldSnapshot& snapshot, const sim::MissionSpec& mission,
               std::span<sim::Vec3> desired) override {
    for (size_t i = 0; i < snapshot.gps_position.size(); ++i) {
      desired[i] = (mission.destination - snapshot.gps_position[i])
                       .normalized() * 2.0;
    }
  }
};

sim::MissionSpec two_drone_mission() {
  sim::MissionSpec mission;
  mission.initial_positions = {{0, 0, 10}, {0, 10, 10}};
  mission.destination = {60, 5, 10};
  mission.max_time = 120.0;
  mission.arrival_radius = 5.0;
  mission.seed = 17;
  return mission;
}

sim::RunFault run_expecting_fault(const sim::Simulator& simulator,
                                  const sim::RunHooks& hooks) {
  StraightLineControl control;
  try {
    (void)simulator.run(two_drone_mission(), control, hooks);
  } catch (const RunFaultError& e) {
    return e.fault();
  }
  ADD_FAILURE() << "run completed without raising RunFaultError";
  return {};
}

// ---------------------------------------------------------------------------
// Simulator-level sentinels, watchdogs and injection.

TEST(Sentinel, InjectedNanControlOutputRaisesNumericalDivergence) {
  sim::RunHooks hooks;
  hooks.inject_fault = {.mode = FaultInjection::Mode::kNan, .at_time = 1.0};
  const sim::RunFault fault = run_expecting_fault(sim::Simulator{}, hooks);
  EXPECT_EQ(fault.kind, FaultKind::kNumericalDivergence);
  EXPECT_EQ(fault.drone, 0);  // the injection corrupts drone 0
  EXPECT_GE(fault.time, 1.0);
  EXPECT_NE(fault.detail.find("control output"), std::string::npos);
}

TEST(Sentinel, PositionEnvelopeCatchesBlowup) {
  // The mission flies well past |p| = 20 m on its way to the destination;
  // a tight envelope must classify that as numerical divergence.
  sim::SimulationConfig config;
  config.divergence_limit = 20.0;
  const sim::RunFault fault =
      run_expecting_fault(sim::Simulator{config}, sim::RunHooks{});
  EXPECT_EQ(fault.kind, FaultKind::kNumericalDivergence);
  EXPECT_NE(fault.detail.find("position"), std::string::npos);
}

TEST(Sentinel, ZeroLimitDisablesEnvelope) {
  sim::SimulationConfig config;
  config.divergence_limit = 0.0;
  sim::Simulator simulator{config};
  StraightLineControl control;
  const sim::RunResult run =
      simulator.run(two_drone_mission(), control, sim::RunHooks{});
  EXPECT_TRUE(run.reached_destination);
}

TEST(Watchdog, StepBudgetRaisesTimeout) {
  sim::RunHooks hooks;
  hooks.watchdog.max_steps = 10;
  const sim::RunFault fault = run_expecting_fault(sim::Simulator{}, hooks);
  EXPECT_EQ(fault.kind, FaultKind::kTimeout);
  EXPECT_NE(fault.detail.find("budget"), std::string::npos);
}

TEST(Watchdog, WallClockDeadlineContainsHang) {
  // The hang injection sleeps every tick; the deadline (checked every 64
  // ticks) must cut the run off as kTimeout instead of letting it crawl
  // through the whole mission.
  sim::RunHooks hooks;
  hooks.inject_fault = {.mode = FaultInjection::Mode::kHang, .at_time = 0.0};
  hooks.watchdog = sim::RunWatchdog::with_timeout(0.05);
  const sim::RunFault fault = run_expecting_fault(sim::Simulator{}, hooks);
  EXPECT_EQ(fault.kind, FaultKind::kTimeout);
  EXPECT_NE(fault.detail.find("deadline"), std::string::npos);
}

TEST(Injection, ThrowModeRaisesPlainException) {
  // kThrow deliberately raises an *unstructured* exception so the campaign
  // supervisor's kException classification path is exercised.
  sim::RunHooks hooks;
  hooks.inject_fault = {.mode = FaultInjection::Mode::kThrow, .at_time = 0.5};
  sim::Simulator simulator;
  StraightLineControl control;
  try {
    (void)simulator.run(two_drone_mission(), control, hooks);
    FAIL() << "injected throw did not propagate";
  } catch (const RunFaultError&) {
    FAIL() << "kThrow must not be pre-classified as a structured fault";
  } catch (const std::runtime_error&) {
    SUCCEED();
  }
}

TEST(FaultKindNames, RoundTrip) {
  for (const FaultKind kind :
       {FaultKind::kNone, FaultKind::kNumericalDivergence, FaultKind::kTimeout,
        FaultKind::kException, FaultKind::kCleanRunFailed}) {
    EXPECT_EQ(sim::fault_kind_from_name(sim::fault_kind_name(kind)), kind);
  }
  EXPECT_THROW((void)sim::fault_kind_from_name("gremlins"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fault-plan parsing (--fault-inject / SWARMFUZZ_FAULT_INJECT).

TEST(FaultPlan, ParsesFullGrammar) {
  const auto plan = fuzz::parse_fault_plan("nan@2:10,throw@3,hang@4x1");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].mission_index, 2);
  EXPECT_EQ(plan[0].injection.mode, FaultInjection::Mode::kNan);
  EXPECT_EQ(plan[0].injection.at_time, 10.0);
  EXPECT_EQ(plan[0].fail_attempts, std::numeric_limits<int>::max());
  EXPECT_EQ(plan[1].mission_index, 3);
  EXPECT_EQ(plan[1].injection.mode, FaultInjection::Mode::kThrow);
  EXPECT_EQ(plan[1].injection.at_time, 0.0);
  EXPECT_EQ(plan[2].mission_index, 4);
  EXPECT_EQ(plan[2].injection.mode, FaultInjection::Mode::kHang);
  EXPECT_EQ(plan[2].fail_attempts, 1);

  const auto combined = fuzz::parse_fault_plan("nan@2:7.5x3");
  ASSERT_EQ(combined.size(), 1u);
  EXPECT_EQ(combined[0].injection.at_time, 7.5);
  EXPECT_EQ(combined[0].fail_attempts, 3);

  EXPECT_TRUE(fuzz::parse_fault_plan("").empty());
}

TEST(FaultPlan, MalformedSpecsThrow) {
  // Numbers are whole tokens and times finite: "nan@1junk" used to arm
  // mission 1, and a nan or inf time parsed but never fired.
  for (const char* bad : {"nan", "bogus@1", "nan@", "nan@x2", "nan@1x0",
                          "nan@-1", "nan@1:-5", "nan@1:abc", "nan@1junk",
                          "nan@1:nan", "nan@1:inf", "nan@1:-inf", "nan@1:5s",
                          "nan@1x2y", "nan@ 1", "throw@1.5"}) {
    EXPECT_THROW((void)fuzz::parse_fault_plan(bad), std::invalid_argument)
        << "spec: " << bad;
  }
}

// ---------------------------------------------------------------------------
// Campaign supervisor: retry, quarantine, fail-fast, checkpoint round-trip.

fuzz::CampaignConfig fault_campaign(int missions = 6) {
  fuzz::CampaignConfig config;
  config.num_missions = missions;
  config.mission.num_drones = 5;
  config.fuzzer.spoof_distance = 10.0;
  config.fuzzer.sim.dt = 0.05;
  config.fuzzer.sim.gps.rate_hz = 20.0;
  config.fuzzer.mission_budget = 12;  // keep tests fast
  config.num_threads = 2;
  return config;
}

TEST(CampaignFaults, InjectedFaultsAreQuarantinedWhileOthersComplete) {
  const fuzz::CampaignResult baseline = fuzz::run_campaign(fault_campaign());

  const std::string quarantine = temp_path("quarantine.jsonl");
  const std::string checkpoint = temp_path("faulted_checkpoint.jsonl");
  std::remove(quarantine.c_str());
  std::remove(checkpoint.c_str());

  fuzz::CampaignConfig config = fault_campaign();
  config.fault_injections = fuzz::parse_fault_plan("nan@1,throw@3");
  config.max_fault_retries = 1;
  config.quarantine_path = quarantine;
  config.checkpoint_path = checkpoint;
  const fuzz::CampaignResult faulted = fuzz::run_campaign(config);

  // Every mission completed; the injected ones carry their classification.
  EXPECT_EQ(faulted.num_completed(), config.num_missions);
  EXPECT_EQ(faulted.num_faulted(), 2);
  EXPECT_EQ(faulted.outcomes[1].fault, FaultKind::kNumericalDivergence);
  EXPECT_EQ(faulted.outcomes[3].fault, FaultKind::kException);
  EXPECT_EQ(faulted.fault_count(FaultKind::kNumericalDivergence), 1);
  EXPECT_EQ(faulted.fault_count(FaultKind::kException), 1);
  // Both retries were consumed before quarantining.
  EXPECT_EQ(faulted.outcomes[1].fault_attempts, config.max_fault_retries + 1);
  // Terminally-faulted missions are excluded from the paper metrics.
  EXPECT_EQ(faulted.num_fuzzable() + faulted.num_faulted(),
            config.num_missions);

  // Non-faulted missions are bit-identical to the fault-free campaign: the
  // containment machinery must not perturb healthy missions.
  for (const int index : {0, 2, 4, 5}) {
    EXPECT_TRUE(deterministic_equal(faulted.outcomes[index],
                                    baseline.outcomes[index]))
        << "mission " << index;
  }

  // The quarantine file holds one repro record per terminal fault.
  const auto records = fuzz::load_quarantine(quarantine);
  ASSERT_EQ(records.size(), 2u);
  const std::string hash = fuzz::campaign_config_hash(config);
  for (const fuzz::QuarantineRecord& record : records) {
    EXPECT_TRUE(record.mission_index == 1 || record.mission_index == 3);
    EXPECT_EQ(record.fuzzer, fuzzer_kind_name(config.kind));
    EXPECT_EQ(record.config_hash, hash);
    EXPECT_EQ(record.attempts, config.max_fault_retries + 1);
    const int index = record.mission_index;
    EXPECT_EQ(record.fault, faulted.outcomes[index].fault);
    EXPECT_EQ(record.mission_seed, faulted.outcomes[index].mission_seed);
  }

  // Faulted outcomes survive the checkpoint: a full replay reconstructs the
  // campaign — fault kinds included — without re-running anything.
  const fuzz::CampaignResult replayed = fuzz::run_campaign(config);
  EXPECT_TRUE(deterministic_equal(replayed, faulted));

  std::remove(quarantine.c_str());
  std::remove(checkpoint.c_str());
}

TEST(CampaignFaults, TransientFaultSucceedsOnSaltedRetry) {
  const fuzz::CampaignResult baseline = fuzz::run_campaign(fault_campaign());

  fuzz::CampaignConfig config = fault_campaign();
  // Mission 2 faults on its first attempt only; the salted retry must run
  // through and produce a healthy (different-seed) outcome.
  config.fault_injections = fuzz::parse_fault_plan("nan@2x1");
  config.max_fault_retries = 2;
  const fuzz::CampaignResult result = fuzz::run_campaign(config);

  EXPECT_EQ(result.num_completed(), config.num_missions);
  EXPECT_EQ(result.num_faulted(), 0);
  const fuzz::MissionOutcome& retried = result.outcomes[2];
  EXPECT_EQ(retried.fault, FaultKind::kNone);
  EXPECT_EQ(retried.fault_attempts, 1);
  // The retry re-draws the mission from the fault-salt ladder.
  const std::uint64_t expected_seed = fuzz::mission_seed(
      config.base_seed, 2, 1 * (config.clean_failure_retries + 1) + 0);
  EXPECT_EQ(retried.mission_seed, expected_seed);
  EXPECT_NE(retried.mission_seed, baseline.outcomes[2].mission_seed);
  // Every other mission is untouched.
  for (const int index : {0, 1, 3, 4, 5}) {
    EXPECT_TRUE(deterministic_equal(result.outcomes[index],
                                    baseline.outcomes[index]))
        << "mission " << index;
  }
}

TEST(CampaignFaults, QuarantineIsDedupedAcrossResume) {
  const std::string quarantine = temp_path("dedup_quarantine.jsonl");
  const std::string checkpoint = temp_path("dedup_checkpoint.jsonl");
  std::remove(quarantine.c_str());
  std::remove(checkpoint.c_str());

  fuzz::CampaignConfig config = fault_campaign(3);
  config.fault_injections = fuzz::parse_fault_plan("nan@1");
  config.max_fault_retries = 0;
  config.quarantine_path = quarantine;
  config.checkpoint_path = checkpoint;
  (void)fuzz::run_campaign(config);
  ASSERT_EQ(fuzz::load_quarantine(quarantine).size(), 1u);

  // A full replay from the checkpoint executes nothing — and appends nothing.
  (void)fuzz::run_campaign(config);
  EXPECT_EQ(fuzz::load_quarantine(quarantine).size(), 1u);

  // Losing the checkpoint (a crash before any record landed) re-runs the
  // mission; it faults again with the same (config, seed, index), so the
  // quarantine file must keep exactly one repro record, not grow one copy
  // per resume.
  std::remove(checkpoint.c_str());
  const fuzz::CampaignResult rerun = fuzz::run_campaign(config);
  EXPECT_EQ(rerun.fault_count(FaultKind::kNumericalDivergence), 1);
  EXPECT_EQ(fuzz::load_quarantine(quarantine).size(), 1u);

  std::remove(quarantine.c_str());
  std::remove(checkpoint.c_str());
}

TEST(CampaignFaults, StepBudgetTimeoutIsTerminalAndQuarantined) {
  // An eval step budget far below any real mission forces kTimeout through
  // the whole supervisor path deterministically (no wall clock involved).
  const std::string quarantine = temp_path("timeout_quarantine.jsonl");
  std::remove(quarantine.c_str());

  fuzz::CampaignConfig config = fault_campaign(2);
  config.fuzzer.eval_max_steps = 20;
  config.max_fault_retries = 1;
  config.quarantine_path = quarantine;
  const fuzz::CampaignResult result = fuzz::run_campaign(config);

  EXPECT_EQ(result.num_completed(), 2);
  EXPECT_EQ(result.fault_count(FaultKind::kTimeout), 2);
  const auto records = fuzz::load_quarantine(quarantine);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].fault, FaultKind::kTimeout);
  std::remove(quarantine.c_str());
}

TEST(CampaignFaults, HangIsContainedByMissionTimeout) {
  // Mission 1 hangs from t = 0; the per-mission wall-clock deadline must
  // classify it as kTimeout while mission 0 completes normally.
  fuzz::CampaignConfig config = fault_campaign(2);
  config.fuzzer.mission_budget = 6;
  config.fuzzer.mission_timeout_s = 3.0;
  config.fault_injections = fuzz::parse_fault_plan("hang@1");
  config.max_fault_retries = 0;  // terminal on the first fault: keeps it fast
  const fuzz::CampaignResult result = fuzz::run_campaign(config);

  EXPECT_EQ(result.num_completed(), 2);
  EXPECT_EQ(result.outcomes[0].fault, FaultKind::kNone);
  EXPECT_EQ(result.outcomes[1].fault, FaultKind::kTimeout);
}

TEST(CampaignFaults, FailFastStopsClaimingNewMissions) {
  fuzz::CampaignConfig config = fault_campaign();
  config.num_threads = 1;  // deterministic claim order 0, 1, 2, ...
  config.fault_injections = fuzz::parse_fault_plan("throw@1");
  config.max_fault_retries = 0;
  config.fail_fast = true;
  const fuzz::CampaignResult result = fuzz::run_campaign(config);

  // Mission 0 completed, mission 1 faulted, nothing after was claimed.
  EXPECT_EQ(result.num_completed(), 2);
  EXPECT_EQ(result.outcomes[0].fault, FaultKind::kNone);
  EXPECT_TRUE(result.outcomes[0].completed);
  EXPECT_EQ(result.outcomes[1].fault, FaultKind::kException);
  for (const int index : {2, 3, 4, 5}) {
    EXPECT_FALSE(result.outcomes[index].completed) << "mission " << index;
  }
}

TEST(CampaignConfigHash, SensitiveToOutcomeDeterminingFields) {
  const fuzz::CampaignConfig base = fault_campaign();
  const std::string hash = fuzz::campaign_config_hash(base);
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash, fuzz::campaign_config_hash(base));  // stable

  fuzz::CampaignConfig seed_changed = base;
  seed_changed.base_seed += 1;
  EXPECT_NE(fuzz::campaign_config_hash(seed_changed), hash);

  fuzz::CampaignConfig drones_changed = base;
  drones_changed.mission.num_drones += 1;
  EXPECT_NE(fuzz::campaign_config_hash(drones_changed), hash);

  // Fields that don't affect outcomes (threads, paths) don't affect the hash.
  fuzz::CampaignConfig threads_changed = base;
  threads_changed.num_threads = 7;
  threads_changed.quarantine_path = "elsewhere.jsonl";
  EXPECT_EQ(fuzz::campaign_config_hash(threads_changed), hash);
}

}  // namespace
}  // namespace swarmfuzz
