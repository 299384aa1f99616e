// Sharded campaign service tests (DESIGN.md section 13): manifest round
// trips, shard workers claiming and resuming leases, kill-mid-range
// reclamation, and the headline invariant — the merged report of any worker
// schedule is bit-identical (deterministic_equal) to a single-process run.
#include "fuzz/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/shard_merge.h"
#include "fuzz/telemetry.h"
#include "sim/simulator.h"
#include "util/retry.h"

namespace swarmfuzz::fuzz {
namespace {

std::string service_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path{::testing::TempDir()} / ("swarmfuzz_svc_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

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

// ---------------------------------------------------------------------------
// Manifest.

TEST(ServiceManifest, RoundTripsThroughJsonl) {
  ServiceManifest manifest;
  manifest.config_hash = "0123456789abcdef";
  manifest.num_missions = 60;
  manifest.num_leases = 8;
  manifest.lease_ttl_ms = 9007199254740993;  // above the 53-bit double bound
  manifest.campaign_args = {"--missions=60", "--seed=1000", "--drones=5"};
  const ServiceManifest parsed = service_manifest_from_json(to_jsonl(manifest));
  EXPECT_EQ(parsed.schema_version, 1);
  EXPECT_EQ(parsed.config_hash, manifest.config_hash);
  EXPECT_EQ(parsed.num_missions, 60);
  EXPECT_EQ(parsed.num_leases, 8);
  EXPECT_EQ(parsed.lease_ttl_ms, manifest.lease_ttl_ms);
  EXPECT_EQ(parsed.campaign_args, manifest.campaign_args);
}

TEST(ServiceManifest, CrcFramingRejectsTampering) {
  ServiceManifest manifest;
  manifest.config_hash = "0123456789abcdef";
  manifest.num_missions = 10;
  manifest.num_leases = 2;
  std::string line = to_jsonl(manifest);
  const auto pos = line.find("\"missions\":10");
  ASSERT_NE(pos, std::string::npos);
  line[pos + 11] = '2';  // 10 -> 20: an edited manifest must be rejected
  EXPECT_THROW((void)service_manifest_from_json(line), std::invalid_argument);
}

TEST(ServiceManifest, WriteLoadRoundTripsThroughDirectory) {
  const std::string dir = service_dir("manifest");
  ServiceManifest manifest;
  manifest.config_hash = "feedfacecafebeef";
  manifest.num_missions = 12;
  manifest.num_leases = 3;
  manifest.campaign_args = {"--missions=12"};
  write_manifest(dir, manifest);
  const ServiceManifest loaded = load_manifest(dir);
  EXPECT_EQ(loaded.config_hash, manifest.config_hash);
  EXPECT_EQ(loaded.num_missions, 12);
  EXPECT_EQ(loaded.num_leases, 3);
  EXPECT_EQ(loaded.campaign_args, manifest.campaign_args);
}

TEST(ServiceManifest, LoadWithoutServeFailsWithHint) {
  const std::string dir = service_dir("no_manifest");
  try {
    (void)load_manifest(dir);
    FAIL() << "missing manifest did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("swarmfuzz serve"), std::string::npos);
  }
}

TEST(ServiceManifest, UnframedManifestIsRejected) {
  const std::string dir = service_dir("unframed_manifest");
  ServiceManifest manifest;
  manifest.config_hash = "feedfacecafebeef";
  manifest.num_missions = 12;
  manifest.num_leases = 3;
  std::string line = to_jsonl(manifest);
  line.erase(line.rfind(",\"crc\":\""), 17);  // drop the crc member
  ASSERT_EQ(line.back(), '}');
  EXPECT_THROW((void)service_manifest_from_json(line), std::invalid_argument);
  {
    std::FILE* file = std::fopen(manifest_path(dir).c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs((line + "\n").c_str(), file);
    std::fclose(file);
  }
  try {
    (void)load_manifest(dir);
    FAIL() << "unframed manifest was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("checksum mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(ServiceLeases, DoneMarkersGateCompletion) {
  const std::string dir = service_dir("done_markers");
  EXPECT_FALSE(all_leases_done(dir, 2));
  EXPECT_FALSE(wait_for_service(dir, 2, /*timeout_ms=*/50, /*poll_ms=*/5));
  LeaseStore store(dir, 1000, "alice");
  store.mark_done(0);
  EXPECT_FALSE(all_leases_done(dir, 2));
  store.mark_done(1);
  EXPECT_TRUE(all_leases_done(dir, 2));
  EXPECT_TRUE(wait_for_service(dir, 2, /*timeout_ms=*/50, /*poll_ms=*/5));
}

// ---------------------------------------------------------------------------
// Lease health: the `--wait` timeout report.

// A minimal shard record for `index`, good enough for recorded_prefix (which
// only reads mission indices, never validates against a campaign).
void append_stub_record(const std::string& dir, int lease_id, int index) {
  TelemetryRecord record;
  record.mission_index = index;
  record.fuzzer = "swarmfuzz";
  record.shard = lease_id;
  append_jsonl_line(shard_telemetry_path(dir, lease_id), to_jsonl(record));
}

TEST(RecordedPrefix, CountsContiguousFromBegin) {
  const std::string dir = service_dir("prefix");
  const LeaseRange lease{.lease_id = 0, .begin = 2, .end = 7};
  EXPECT_EQ(recorded_prefix(dir, lease), 0);  // no shard file at all
  append_stub_record(dir, 0, 2);
  append_stub_record(dir, 0, 3);
  append_stub_record(dir, 0, 5);  // gap at 4: 5 is not part of the prefix
  EXPECT_EQ(recorded_prefix(dir, lease), 2);
  append_stub_record(dir, 0, 4);  // gap filled, prefix now runs through 5
  EXPECT_EQ(recorded_prefix(dir, lease), 4);
}

TEST(ProbeLeaseHealth, ReportsClaimExpiryAndHeartbeatAge) {
  const std::string dir = service_dir("probe");
  std::int64_t now = 0;
  LeaseStore owner(dir, 1000, "victim", [&now] { return now; });
  ASSERT_TRUE(owner.try_claim(0));  // expires at 1000
  owner.mark_done(1);
  const std::vector<LeaseRange> leases = carve_leases(6, 2);

  auto health = probe_lease_health(dir, leases, 1000, /*now_ms=*/400);
  ASSERT_EQ(health.size(), 2u);
  EXPECT_TRUE(health[0].claimed);
  EXPECT_FALSE(health[0].expired);
  EXPECT_EQ(health[0].owner, "victim");
  EXPECT_EQ(health[0].last_renew_age_ms, 400);
  EXPECT_TRUE(health[1].done);
  EXPECT_EQ(health[1].recorded, 3);  // done implies fully recorded

  health = probe_lease_health(dir, leases, 1000, /*now_ms=*/1500);
  EXPECT_TRUE(health[0].expired);
  EXPECT_EQ(health[0].last_renew_age_ms, 1500);
}

TEST(DescribeIncompleteLeases, NamesOwnerAndHeartbeatAge) {
  const std::string dir = service_dir("describe");
  std::int64_t now = 0;
  LeaseStore owner(dir, 1000, "victim", [&now] { return now; });
  ASSERT_TRUE(owner.try_claim(0));
  const std::vector<LeaseRange> leases = carve_leases(6, 2);
  const std::string report =
      describe_incomplete_leases(probe_lease_health(dir, leases, 1000, 1500));
  EXPECT_NE(report.find("lease 0"), std::string::npos);
  EXPECT_NE(report.find("victim"), std::string::npos);
  EXPECT_NE(report.find("expired"), std::string::npos);
  EXPECT_NE(report.find("1.5s ago"), std::string::npos);
  EXPECT_NE(report.find("unclaimed"), std::string::npos);  // lease 1

  // All done -> nothing to report.
  owner.mark_done(0);
  owner.mark_done(1);
  EXPECT_TRUE(
      describe_incomplete_leases(probe_lease_health(dir, leases, 1000, 1500))
          .empty());
}

// ---------------------------------------------------------------------------
// Shard workers.

TEST(ShardWorker, SingleWorkerCompletesServiceAndMergesBitIdentical) {
  const std::string dir = service_dir("single_worker");
  const CampaignConfig campaign = small_campaign();

  std::int64_t now = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 3;
  worker.lease_ttl_ms = 1000;
  worker.owner = "solo";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  const ShardWorkerStats stats = run_shard_worker(worker);

  EXPECT_EQ(stats.leases_claimed, 3);
  EXPECT_EQ(stats.leases_abandoned, 0);
  EXPECT_EQ(stats.missions_run, campaign.num_missions);
  EXPECT_EQ(stats.missions_resumed, 0);
  EXPECT_TRUE(all_leases_done(dir, 3));

  // Each shard stream is stamped with its lease id and covers its range.
  const auto leases = carve_leases(campaign.num_missions, 3);
  for (const LeaseRange& lease : leases) {
    const auto records = load_telemetry(shard_telemetry_path(dir, lease.lease_id));
    ASSERT_EQ(records.size(), static_cast<std::size_t>(lease.size()));
    for (const TelemetryRecord& record : records) {
      EXPECT_EQ(record.shard, lease.lease_id);
      EXPECT_GE(record.mission_index, lease.begin);
      EXPECT_LT(record.mission_index, lease.end);
    }
  }

  ShardMergeStats merge_stats;
  const CampaignResult merged =
      merge_shards(campaign, dir, /*allow_partial=*/false, &merge_stats);
  EXPECT_EQ(merge_stats.shard_files, 3);
  EXPECT_EQ(merge_stats.records, campaign.num_missions);
  EXPECT_EQ(merge_stats.duplicates, 0);
  EXPECT_TRUE(deterministic_equal(merged, run_campaign(campaign)));
}

TEST(ShardWorker, MergeRefusesPartialServiceUnlessAsked) {
  const std::string dir = service_dir("partial_merge");
  const CampaignConfig campaign = small_campaign();

  std::int64_t now = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 2;
  worker.owner = "solo";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  (void)run_shard_worker(worker);

  // Losing a whole shard stream must fail the merge loudly, not shrink the
  // campaign; --allow-partial is the explicit override.
  std::filesystem::remove(shard_telemetry_path(dir, 1));
  EXPECT_THROW((void)merge_shards(campaign, dir), std::runtime_error);
  ShardMergeStats stats;
  const CampaignResult partial =
      merge_shards(campaign, dir, /*allow_partial=*/true, &stats);
  EXPECT_EQ(stats.shard_files, 1);
  EXPECT_LT(partial.num_completed(), campaign.num_missions);
}

TEST(ShardWorker, ReclaimResumesKilledWorkersPartialShard) {
  // Reference service: one lease over the whole campaign, run to completion
  // so we can replay a prefix of its shard stream as the "killed" worker's
  // surviving records.
  const CampaignConfig campaign = small_campaign();
  const std::string ref_dir = service_dir("reclaim_ref");
  std::int64_t ref_now = 0;
  ShardWorkerConfig ref;
  ref.campaign = campaign;
  ref.dir = ref_dir;
  ref.num_leases = 1;
  ref.owner = "ref";
  ref.clock = [&ref_now] { return ref_now; };
  ref.sleep_ms = [&ref_now](std::int64_t ms) { ref_now += ms; };
  (void)run_shard_worker(ref);
  const auto ref_records = load_telemetry(shard_telemetry_path(ref_dir, 0));
  ASSERT_EQ(ref_records.size(), static_cast<std::size_t>(campaign.num_missions));

  // The crash scene: a victim claimed the lease, recorded two missions, was
  // SIGKILLed mid-write of the third (torn tail), and never renewed.
  const std::string dir = service_dir("reclaim");
  std::int64_t now = 0;
  LeaseStore victim(dir, 1000, "victim", [&now] { return now; });
  ASSERT_TRUE(victim.try_claim(0));
  const std::string shard_path = shard_telemetry_path(dir, 0);
  append_jsonl_line(shard_path, to_jsonl(ref_records[0]));
  append_jsonl_line(shard_path, to_jsonl(ref_records[1]));
  {
    std::FILE* file = std::fopen(shard_path.c_str(), "ab");
    ASSERT_NE(file, nullptr);
    const char torn[] = "{\"v\":1,\"mission\":2,\"fu";  // no newline: torn
    std::fwrite(torn, 1, sizeof torn - 1, file);
    std::fclose(file);
  }

  now = 2000;  // the victim's claim lapsed long ago
  ShardWorkerConfig rescuer;
  rescuer.campaign = campaign;
  rescuer.dir = dir;
  rescuer.num_leases = 1;
  rescuer.lease_ttl_ms = 1000;
  rescuer.owner = "rescuer";
  rescuer.clock = [&now] { return now; };
  rescuer.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  const ShardWorkerStats stats = run_shard_worker(rescuer);

  // The rescuer reclaimed the lease, healed the torn tail, kept the two
  // durable records, and ran exactly the missing missions.
  EXPECT_EQ(stats.leases_claimed, 1);
  EXPECT_EQ(stats.missions_resumed, 2);
  EXPECT_EQ(stats.missions_run, campaign.num_missions - 2);
  EXPECT_EQ(stats.leases_abandoned, 0);
  EXPECT_TRUE(all_leases_done(dir, 1));

  // No mission lost, none duplicated, and the merged report is bit-identical
  // to a single-process campaign.
  ShardMergeStats merge_stats;
  const CampaignResult merged =
      merge_shards(campaign, dir, /*allow_partial=*/false, &merge_stats);
  EXPECT_EQ(merge_stats.records, campaign.num_missions);
  EXPECT_EQ(merge_stats.duplicates, 0);
  EXPECT_TRUE(deterministic_equal(merged, run_campaign(campaign)));
}

TEST(ShardWorker, WaitsOutLiveClaimThenReclaimsExpired) {
  const std::string dir = service_dir("live_claim");
  const CampaignConfig campaign = small_campaign();

  // Another (live, then dead) worker holds lease 0; our worker must respect
  // the claim while it is valid, make progress elsewhere, and only take the
  // lease over once the TTL lapses.
  std::int64_t now = 0;
  const auto clock = [&now] { return now; };
  LeaseStore blocker(dir, 1000, "blocker", clock);
  ASSERT_TRUE(blocker.try_claim(0));

  int sleeps = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 2;
  worker.lease_ttl_ms = 1000;
  worker.owner = "worker";
  worker.clock = clock;
  worker.sleep_ms = [&now, &sleeps](std::int64_t ms) {
    now += ms;
    ++sleeps;
  };
  const ShardWorkerStats stats = run_shard_worker(worker);

  EXPECT_GE(sleeps, 1);  // it did wait on the blocker's valid claim
  EXPECT_EQ(stats.leases_claimed, 2);
  EXPECT_EQ(stats.missions_run, campaign.num_missions);
  EXPECT_TRUE(all_leases_done(dir, 2));
  EXPECT_TRUE(deterministic_equal(merge_shards(campaign, dir),
                                  run_campaign(campaign)));
}

TEST(ShardWorker, QuarantineIsDedupedAcrossReclaim) {
  CampaignConfig campaign = small_campaign();
  campaign.fault_injections = parse_fault_plan("nan@1");
  campaign.max_fault_retries = 0;  // mission 1 is terminally faulted

  const std::string dir = service_dir("quarantine_dedup");
  std::int64_t now = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 1;
  worker.owner = "first";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  (void)run_shard_worker(worker);

  const std::string shard_path = shard_telemetry_path(dir, 0);
  const std::string quarantine_path = shard_path + ".quarantine";
  ASSERT_EQ(load_quarantine(quarantine_path).size(), 1u);

  // Reclaim scenario where the quarantine append survived but the shard
  // record for the faulted mission did not: drop every record past mission 0
  // and clear the claim/done state, as if the worker died right after
  // quarantining. The successor re-runs mission 1 (it faults again,
  // deterministically) but must not append a second quarantine record.
  const auto records = load_telemetry(shard_path);
  ASSERT_GE(records.size(), 2u);
  std::filesystem::remove(shard_path);
  append_jsonl_line(shard_path, to_jsonl(records[0]));
  std::filesystem::remove(dir + "/lease-0.claim");
  std::filesystem::remove(dir + "/lease-0.done");

  worker.owner = "second";
  const ShardWorkerStats stats = run_shard_worker(worker);
  EXPECT_EQ(stats.missions_resumed, 1);
  EXPECT_EQ(stats.missions_run, campaign.num_missions - 1);
  EXPECT_EQ(load_quarantine(quarantine_path).size(), 1u);
}

TEST(ShardWorker, HungMissionIsBoundedByTheWatchdog) {
  // A mission that hangs inside the simulation is the straggler case that
  // needs no coordinator: the mission_timeout_s watchdog travels with the
  // campaign config, records the mission as a timeout fault, and the worker
  // finishes its lease.
  CampaignConfig campaign = small_campaign(3);
  campaign.fault_injections = parse_fault_plan("hang@1");
  campaign.fuzzer.mission_timeout_s = 1.0;
  campaign.max_fault_retries = 0;  // terminal on the first fault: keeps it fast
  const std::string dir = service_dir("hung_mission");

  std::int64_t now = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 1;
  worker.owner = "patient";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  const ShardWorkerStats stats = run_shard_worker(worker);

  EXPECT_EQ(stats.missions_run, campaign.num_missions);
  EXPECT_EQ(stats.leases_abandoned, 0);
  EXPECT_TRUE(all_leases_done(dir, 1));
  const CampaignResult merged = merge_shards(campaign, dir);
  EXPECT_EQ(merged.outcomes[1].fault, sim::FaultKind::kTimeout);
  EXPECT_EQ(merged.outcomes[0].fault, sim::FaultKind::kNone);
  EXPECT_TRUE(deterministic_equal(merged, run_campaign(campaign)));
}

TEST(ShardWorker, ThreeConcurrentWorkersMergeBitIdenticalPointMass) {
  const CampaignConfig campaign = small_campaign();
  const std::string dir = service_dir("three_pointmass");

  std::vector<ShardWorkerStats> stats(3);
  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      ShardWorkerConfig worker;
      worker.campaign = campaign;
      worker.dir = dir;
      worker.num_leases = 3;
      worker.lease_ttl_ms = 5000;  // generous: nothing should expire
      worker.owner = "worker-" + std::to_string(i);
      stats[i] = run_shard_worker(worker);
    });
  }
  for (std::thread& worker : workers) worker.join();

  int total_run = 0;
  for (const ShardWorkerStats& s : stats) total_run += s.missions_run;
  EXPECT_EQ(total_run, campaign.num_missions);  // no duplicated work
  EXPECT_TRUE(all_leases_done(dir, 3));

  ShardMergeStats merge_stats;
  const CampaignResult merged =
      merge_shards(campaign, dir, /*allow_partial=*/false, &merge_stats);
  EXPECT_EQ(merge_stats.records, campaign.num_missions);
  EXPECT_TRUE(deterministic_equal(merged, run_campaign(campaign)));
}

// ---------------------------------------------------------------------------
// Chaos harness.

TEST(ChaosPlan, ParsesTheGrammar) {
  EXPECT_TRUE(parse_chaos_plan("").empty());
  const ChaosPlan plan = parse_chaos_plan("kill@3,torn-write@2,eio@4x3");
  ASSERT_EQ(plan.actions.size(), 3u);
  EXPECT_EQ(plan.actions[0].kind, ChaosAction::Kind::kKill);
  EXPECT_EQ(plan.actions[0].mission_index, 3);
  EXPECT_EQ(plan.actions[1].kind, ChaosAction::Kind::kTornWrite);
  EXPECT_EQ(plan.actions[2].kind, ChaosAction::Kind::kEio);
  EXPECT_EQ(plan.actions[2].mission_index, 4);
  EXPECT_EQ(plan.actions[2].count, 3);
}

TEST(ChaosPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_chaos_plan("kill"), std::invalid_argument);
  EXPECT_THROW((void)parse_chaos_plan("explode@1"), std::invalid_argument);
  EXPECT_THROW((void)parse_chaos_plan("hang@1"), std::invalid_argument);
  EXPECT_THROW((void)parse_chaos_plan("kill@x"), std::invalid_argument);
  EXPECT_THROW((void)parse_chaos_plan("eio@1x0"), std::invalid_argument);
  EXPECT_THROW((void)parse_chaos_plan("kill@-2"), std::invalid_argument);
}

TEST(ChaosShardWorker, InjectedEioIsAbsorbedByTheRetryLayer) {
  util::io_retrier().reset();
  const CampaignConfig campaign = small_campaign();
  const std::string dir = service_dir("chaos_eio");

  std::int64_t now = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 2;
  worker.owner = "eio";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  worker.chaos = parse_chaos_plan("eio@1x2");
  const ShardWorkerStats stats = run_shard_worker(worker);

  // Two injected failures, zero lost work: the shard append retried through.
  EXPECT_EQ(stats.missions_run, campaign.num_missions);
  EXPECT_EQ(stats.io_aborts, 0);
  EXPECT_GE(util::io_retrier().counters().retries, 2);
  EXPECT_TRUE(deterministic_equal(merge_shards(campaign, dir),
                                  run_campaign(campaign)));
  util::io_retrier().reset();
}

TEST(ChaosShardWorker, KillBeforeRecordLosesOnlyTheInFlightMission) {
  const CampaignConfig campaign = small_campaign();
  const std::string dir = service_dir("chaos_kill");

  std::int64_t now = 0;
  int kills = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 2;
  worker.owner = "mortal";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  worker.chaos = parse_chaos_plan("kill@1");
  // In-process stand-in for SIGKILL: count it and let run_lease's abandon
  // path model the restart (the worker rescans and re-claims its own lease,
  // exactly like a fresh process would).
  worker.chaos_kill = [&kills] { ++kills; };
  const ShardWorkerStats stats = run_shard_worker(worker);

  EXPECT_EQ(kills, 1);
  // Mission 1 was computed, killed before its record, then re-run once.
  EXPECT_EQ(stats.missions_run, campaign.num_missions);
  EXPECT_EQ(stats.missions_resumed, 1);  // mission 0's record survived
  ShardMergeStats merge_stats;
  const CampaignResult merged =
      merge_shards(campaign, dir, /*allow_partial=*/false, &merge_stats);
  EXPECT_EQ(merge_stats.duplicates, 0);
  EXPECT_TRUE(deterministic_equal(merged, run_campaign(campaign)));
}

TEST(ChaosShardWorker, TornWriteIsHealedOnResume) {
  const CampaignConfig campaign = small_campaign();
  const std::string dir = service_dir("chaos_torn");

  std::int64_t now = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 2;
  worker.owner = "torn";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  worker.chaos = parse_chaos_plan("torn-write@1");
  worker.chaos_kill = [] {};  // die in place, resume in the same process
  const ShardWorkerStats stats = run_shard_worker(worker);

  // The fragment was healed away; the mission re-ran and recorded whole.
  EXPECT_EQ(stats.missions_run, campaign.num_missions);
  ShardMergeStats merge_stats;
  const CampaignResult merged =
      merge_shards(campaign, dir, /*allow_partial=*/false, &merge_stats);
  EXPECT_EQ(merge_stats.records, campaign.num_missions);
  EXPECT_EQ(merge_stats.duplicates, 0);
  EXPECT_TRUE(deterministic_equal(merged, run_campaign(campaign)));
}

// ---------------------------------------------------------------------------
// Heartbeat failure handling (transient vs permanent renewal errors).

TEST(LeaseHeartbeatErrors, TransientRenewalFailuresAreRetriedNotFatal) {
  const std::string dir = service_dir("hb_transient");
  LeaseStore store(dir, /*ttl_ms=*/200, "flaky");
  ASSERT_TRUE(store.try_claim(0));
  std::atomic<int> failures{2};
  store.set_append_hook_for_test([&failures] {
    if (failures.fetch_sub(1) > 0) throw util::IoError("blip", EIO);
  });
  {
    LeaseHeartbeat heartbeat(store, 0);
    // Two transient failures fit comfortably inside the TTL; the heartbeat
    // must back off and recover, never fencing itself.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
    while (failures.load() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_LE(failures.load(), 0);
    EXPECT_FALSE(heartbeat.fenced());
  }
  EXPECT_TRUE(store.holds(0));  // a successful renewal landed after the blips
}

TEST(LeaseHeartbeatErrors, PermanentRenewalFailureFencesImmediately) {
  const std::string dir = service_dir("hb_permanent");
  LeaseStore store(dir, /*ttl_ms=*/150, "rofs");
  ASSERT_TRUE(store.try_claim(0));
  // A read-only filesystem never heals: the heartbeat must abandon at the
  // first renewal instead of spinning on retries.
  store.set_append_hook_for_test(
      [] { throw util::IoError("read-only", EROFS); });
  LeaseHeartbeat heartbeat(store, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
  while (!heartbeat.fenced() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(heartbeat.fenced());
}

TEST(LeaseHeartbeatErrors, TransientFailuresPastTheTtlFence) {
  const std::string dir = service_dir("hb_lapsed");
  LeaseStore store(dir, /*ttl_ms=*/120, "unlucky");
  ASSERT_TRUE(store.try_claim(0));
  // Every renewal fails "transiently": once the claim has lapsed on disk a
  // reclaimer may own the range, so the heartbeat must fence rather than
  // keep retrying into a contested lease.
  store.set_append_hook_for_test([] { throw util::IoError("still down", EIO); });
  LeaseHeartbeat heartbeat(store, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(3000);
  while (!heartbeat.fenced() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(heartbeat.fenced());
}

// ---------------------------------------------------------------------------
// Partial merges.

TEST(HolesManifest, MissingMissionRangesFindsMaximalRuns) {
  CampaignResult result;
  result.outcomes.resize(8);
  for (int i = 0; i < 8; ++i) result.outcomes[i].mission_index = i;
  for (const int i : {0, 3, 4, 7}) result.outcomes[i].completed = true;
  const auto holes = missing_mission_ranges(result);
  ASSERT_EQ(holes.size(), 2u);
  EXPECT_EQ(holes[0].begin, 1);
  EXPECT_EQ(holes[0].end, 3);
  EXPECT_EQ(holes[1].begin, 5);
  EXPECT_EQ(holes[1].end, 7);
  for (auto& outcome : result.outcomes) outcome.completed = true;
  EXPECT_TRUE(missing_mission_ranges(result).empty());
}

TEST(ShardWorker, ThreeConcurrentWorkersMergeBitIdenticalQuadrotor) {
  CampaignConfig campaign = small_campaign(4);
  campaign.fuzzer.sim.vehicle = sim::VehicleType::kQuadrotor;
  campaign.fuzzer.mission_budget = 6;  // quadrotor steps cost more
  const std::string dir = service_dir("three_quadrotor");

  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      ShardWorkerConfig worker;
      worker.campaign = campaign;
      worker.dir = dir;
      worker.num_leases = 2;
      worker.lease_ttl_ms = 5000;
      worker.owner = "quad-" + std::to_string(i);
      (void)run_shard_worker(worker);
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_TRUE(all_leases_done(dir, 2));
  EXPECT_TRUE(deterministic_equal(merge_shards(campaign, dir),
                                  run_campaign(campaign)));
}

}  // namespace
}  // namespace swarmfuzz::fuzz
