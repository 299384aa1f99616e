// Durable work-lease tests (DESIGN.md section 13): carve geometry, claim
// record framing, and the LeaseStore claim/renew/reclaim protocol under an
// injected clock — expiry, fencing and torn-write recovery are all stepped
// through deterministically, without sleeping out real TTLs.
#include "fuzz/lease.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/telemetry.h"

namespace swarmfuzz::fuzz {
namespace {

// Fresh per-test service directory under the gtest temp root.
std::string service_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path{::testing::TempDir()} / ("swarmfuzz_lease_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// True when `dir` holds at least one reclaimed (renamed-aside) claim file
// for `lease_id`.
bool has_dead_claim(const std::string& dir, int lease_id) {
  const std::string prefix = "lease-" + std::to_string(lease_id) + ".claim.dead.";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Lease geometry.

TEST(CarveLeases, PartitionsMissionsContiguously) {
  // 10 missions over 4 leases: the first 10 % 4 = 2 ranges are one longer.
  const auto leases = carve_leases(10, 4);
  ASSERT_EQ(leases.size(), 4u);
  int expected_begin = 0;
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(leases[k].lease_id, k);
    EXPECT_EQ(leases[k].begin, expected_begin);
    EXPECT_EQ(leases[k].size(), k < 2 ? 3 : 2);
    expected_begin = leases[k].end;
  }
  EXPECT_EQ(leases.back().end, 10);  // every index covered exactly once
}

TEST(CarveLeases, ClampsLeaseCount) {
  // More leases than missions: one mission per lease, never an empty range.
  const auto over = carve_leases(3, 8);
  ASSERT_EQ(over.size(), 3u);
  for (const LeaseRange& lease : over) EXPECT_EQ(lease.size(), 1);
  // Degenerate lease counts clamp up to a single whole-campaign lease.
  const auto under = carve_leases(5, 0);
  ASSERT_EQ(under.size(), 1u);
  EXPECT_EQ(under[0].begin, 0);
  EXPECT_EQ(under[0].end, 5);
  EXPECT_EQ(carve_leases(5, -3).size(), 1u);
}

TEST(CarveLeases, RejectsEmptyCampaign) {
  EXPECT_THROW((void)carve_leases(0, 2), std::invalid_argument);
  EXPECT_THROW((void)carve_leases(-1, 2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Claim record framing.

TEST(LeaseClaimRecord, RoundTripsThroughJsonl) {
  LeaseClaimRecord record;
  record.lease_id = 7;
  record.owner = "shard-1234";
  record.expires_at_ms = 9007199254740993;  // above the 53-bit double bound
  const std::string line = to_jsonl(record);
  const LeaseClaimRecord parsed = lease_claim_from_json(line);
  EXPECT_EQ(parsed.schema_version, 1);
  EXPECT_EQ(parsed.lease_id, 7);
  EXPECT_EQ(parsed.owner, "shard-1234");
  EXPECT_EQ(parsed.expires_at_ms, 9007199254740993);
}

TEST(LeaseClaimRecord, CrcFramingRejectsTampering) {
  LeaseClaimRecord record;
  record.lease_id = 2;
  record.owner = "a";
  record.expires_at_ms = 1000;
  std::string line = to_jsonl(record);
  // Flip the lease id inside the framed line: the CRC must catch it.
  const auto pos = line.find("\"lease\":2");
  ASSERT_NE(pos, std::string::npos);
  line[pos + 8] = '3';
  EXPECT_THROW((void)lease_claim_from_json(line), std::invalid_argument);
  // Dropping the crc member altogether is no way around the check.
  std::string unframed = to_jsonl(record);
  unframed.erase(unframed.rfind(",\"crc\":\""), 17);
  ASSERT_EQ(unframed.back(), '}');
  EXPECT_THROW((void)lease_claim_from_json(unframed), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// LeaseStore protocol, driven by a fake clock.

TEST(LeaseStore, ClaimIsReentrantForItsOwner) {
  const std::string dir = service_dir("reentry");
  std::int64_t now = 0;
  LeaseStore store(dir, 1000, "alice", [&now] { return now; });
  ASSERT_TRUE(store.try_claim(0));
  EXPECT_TRUE(store.holds(0));
  // Claiming a lease we already hold is a no-op success, not a conflict.
  EXPECT_TRUE(store.try_claim(0));
  EXPECT_TRUE(std::filesystem::exists(store.claim_path(0)));
}

TEST(LeaseStore, RacingClaimantsNeverReclaimALiveClaim) {
  // Claimants racing for one fresh lease: exactly one wins, and nobody
  // mistakes the winner's claim file for a dead claimant's. The file must
  // never be visible before its first record is in it.
  for (int round = 0; round < 20; ++round) {
    const std::string dir = service_dir("race");
    std::atomic<bool> go{false};
    std::atomic<int> winners{0};
    std::vector<std::thread> claimants;
    for (int i = 0; i < 4; ++i) {
      claimants.emplace_back([&, i] {
        LeaseStore store(dir, 60000, "claimant-" + std::to_string(i));
        while (!go.load()) std::this_thread::yield();
        if (store.try_claim(0)) ++winners;
      });
    }
    go = true;
    for (std::thread& t : claimants) t.join();
    ASSERT_EQ(winners.load(), 1) << "round " << round;
    ASSERT_FALSE(has_dead_claim(dir, 0)) << "round " << round;
  }
}

TEST(LeaseStore, RejectsDuplicateClaimWhileUnexpired) {
  const std::string dir = service_dir("duplicate");
  std::int64_t now = 0;
  const auto clock = [&now] { return now; };
  LeaseStore alice(dir, 1000, "alice", clock);
  LeaseStore bob(dir, 1000, "bob", clock);
  ASSERT_TRUE(alice.try_claim(0));
  now += 500;  // within alice's TTL
  EXPECT_FALSE(bob.try_claim(0));
  EXPECT_FALSE(bob.holds(0));
  EXPECT_TRUE(alice.holds(0));
  EXPECT_FALSE(has_dead_claim(dir, 0));  // rejection never touches the file
}

TEST(LeaseStore, ExpiredClaimIsReclaimedByRename) {
  const std::string dir = service_dir("expiry");
  std::int64_t now = 0;
  const auto clock = [&now] { return now; };
  LeaseStore alice(dir, 1000, "alice", clock);
  LeaseStore bob(dir, 1000, "bob", clock);
  ASSERT_TRUE(alice.try_claim(0));
  now += 1001;  // alice's claim lapses (she was presumed dead)
  EXPECT_FALSE(alice.holds(0));
  EXPECT_TRUE(bob.try_claim(0));
  EXPECT_TRUE(bob.holds(0));
  // The dead claim was moved aside, not deleted — it stays for post-mortems.
  EXPECT_TRUE(has_dead_claim(dir, 0));
}

TEST(LeaseStore, RenewExtendsExpiry) {
  const std::string dir = service_dir("renew");
  std::int64_t now = 0;
  LeaseStore store(dir, 1000, "alice", [&now] { return now; });
  ASSERT_TRUE(store.try_claim(0));
  now += 900;
  ASSERT_TRUE(store.renew(0));
  now += 900;  // past the original expiry (1000), within the renewed one
  EXPECT_TRUE(store.holds(0));
  now += 200;  // past the renewed expiry too
  EXPECT_FALSE(store.holds(0));
}

TEST(LeaseStore, RenewIsFencedAfterReclaim) {
  const std::string dir = service_dir("fencing");
  std::int64_t now = 0;
  const auto clock = [&now] { return now; };
  LeaseStore alice(dir, 1000, "alice", clock);
  LeaseStore bob(dir, 1000, "bob", clock);
  ASSERT_TRUE(alice.try_claim(0));
  now += 1001;
  ASSERT_TRUE(bob.try_claim(0));  // reclaims the expired lease
  // Alice (stalled, now resumed) must see the fence and must not write a
  // renewal that would contest bob's legitimate claim.
  EXPECT_FALSE(alice.renew(0));
  EXPECT_FALSE(alice.holds(0));
  EXPECT_TRUE(bob.holds(0));
  EXPECT_TRUE(bob.renew(0));
}

TEST(LeaseStore, DoneMarkerBlocksAllClaims) {
  const std::string dir = service_dir("done");
  std::int64_t now = 0;
  const auto clock = [&now] { return now; };
  LeaseStore alice(dir, 1000, "alice", clock);
  LeaseStore bob(dir, 1000, "bob", clock);
  ASSERT_TRUE(alice.try_claim(0));
  alice.mark_done(0);
  EXPECT_TRUE(alice.is_done(0));
  EXPECT_TRUE(bob.is_done(0));
  // A finished lease is never claimable again, expired claim or not.
  now += 5000;
  EXPECT_FALSE(alice.try_claim(0));
  EXPECT_FALSE(bob.try_claim(0));
}

TEST(LeaseStore, TornRenewalFallsBackToLastValidRecord) {
  const std::string dir = service_dir("torn_renew");
  std::int64_t now = 0;
  const auto clock = [&now] { return now; };
  LeaseStore alice(dir, 1000, "alice", clock);
  LeaseStore bob(dir, 1000, "bob", clock);
  ASSERT_TRUE(alice.try_claim(0));
  // SIGKILL mid-renew: an unterminated fragment lands after the valid claim.
  append_jsonl_line(dir + "/lease-0.claim", R"({"v":1,"lease":0,"owner":"al)");
  // The torn line is ignored; alice's original claim still governs.
  EXPECT_TRUE(alice.holds(0));
  EXPECT_FALSE(bob.try_claim(0));
  now += 1001;  // ...and it still expires on its own schedule.
  EXPECT_TRUE(bob.try_claim(0));
}

TEST(LeaseStore, UnframedClaimLineIsNotAValidClaim) {
  const std::string dir = service_dir("unframed_claim");
  std::int64_t now = 0;
  // A well-formed but unframed claim naming a live owner must not hold the
  // lease: only CRC-framed records count, so the file reads as a dead
  // claimant's and is reclaimable at once.
  append_jsonl_line(dir + "/lease-0.claim",
                    R"({"v":1,"lease":0,"owner":"ghost","expires_at_ms":"99999"})");
  LeaseStore bob(dir, 1000, "bob", [&now] { return now; });
  EXPECT_LT(bob.peek_claim(0).lease_id, 0);
  EXPECT_TRUE(bob.try_claim(0));
  EXPECT_TRUE(bob.holds(0));
}

TEST(LeaseStore, TornOnlyClaimFileIsReclaimable) {
  const std::string dir = service_dir("torn_claim");
  std::int64_t now = 0;
  // A claimant that died before its first record landed: the file exists but
  // holds no valid record — a dead claimant, immediately reclaimable.
  append_jsonl_line(dir + "/lease-0.claim", "garbage, not json");
  LeaseStore bob(dir, 1000, "bob", [&now] { return now; });
  EXPECT_TRUE(bob.try_claim(0));
  EXPECT_TRUE(bob.holds(0));
  EXPECT_TRUE(has_dead_claim(dir, 0));
}

TEST(LeaseStore, ShardTelemetryPathNamesLease) {
  EXPECT_EQ(shard_telemetry_path("/tmp/svc", 3), "/tmp/svc/shard-3.jsonl");
}

TEST(LeaseStore, RejectsDegenerateConstruction) {
  EXPECT_THROW(LeaseStore("d", 0, "alice"), std::invalid_argument);
  EXPECT_THROW(LeaseStore("d", 1000, ""), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Clock skew. Each worker's LeaseStore reads its own clock; the protocol
// must keep its single-winner guarantee when those clocks disagree, because
// claim expiry is judged by the *reader's* clock against the *writer's*
// recorded expires_at_ms.

TEST(LeaseStoreClockSkew, ReclaimerAheadOfOwnerStealsEarlyButFencesCleanly) {
  const std::string dir = service_dir("skew_ahead");
  std::int64_t owner_now = 0;
  std::int64_t reclaimer_now = 0;
  LeaseStore owner(dir, 1000, "owner", [&owner_now] { return owner_now; });
  LeaseStore reclaimer(dir, 1000, "reclaimer",
                       [&reclaimer_now] { return reclaimer_now; });
  ASSERT_TRUE(owner.try_claim(0));
  // The reclaimer's clock runs 1.5 TTLs fast: it judges the claim expired
  // while the owner (by its own clock) believes the claim is fresh. The
  // steal succeeds — that is the designed failure of skewed clocks — but
  // there is still exactly one winner, and the old owner is fenced on its
  // very next renewal instead of writing into a contested range.
  reclaimer_now = 1500;
  EXPECT_TRUE(reclaimer.try_claim(0));
  EXPECT_FALSE(owner.renew(0));  // fenced: latest valid record is not ours
  EXPECT_FALSE(owner.holds(0));
  EXPECT_TRUE(reclaimer.holds(0));
}

TEST(LeaseStoreClockSkew, ReclaimerBehindOwnerNeverStealsAValidClaim) {
  const std::string dir = service_dir("skew_behind");
  std::int64_t owner_now = 10000;
  std::int64_t reclaimer_now = 0;  // 10 s behind the owner
  LeaseStore owner(dir, 1000, "owner", [&owner_now] { return owner_now; });
  LeaseStore reclaimer(dir, 1000, "reclaimer",
                       [&reclaimer_now] { return reclaimer_now; });
  ASSERT_TRUE(owner.try_claim(0));  // expires at owner-time 11000
  // By the slow clock the claim looks far from expiry; by any clock behind
  // the writer's it can only look *more* valid. No steal until the slow
  // clock itself passes the recorded expiry.
  reclaimer_now = 10999;
  EXPECT_FALSE(reclaimer.try_claim(0));
  EXPECT_TRUE(owner.renew(0));  // owner is undisturbed
  reclaimer_now = 13000;        // now past even the renewed expiry
  EXPECT_TRUE(reclaimer.try_claim(0));
  EXPECT_FALSE(owner.renew(0));
}

TEST(LeaseStoreClockSkew, RacingReclaimersWithSkewedClocksHaveOneWinner) {
  const std::string dir = service_dir("skew_race");
  std::int64_t dead_now = 0;
  LeaseStore dead(dir, 1000, "dead", [&dead_now] { return dead_now; });
  ASSERT_TRUE(dead.try_claim(0));
  // Two reclaimers, both past expiry but with different clocks, race the
  // rename-aside + exclusive-create. Exactly one must end up holding.
  std::int64_t fast_now = 5000;
  std::int64_t slow_now = 1500;
  LeaseStore fast(dir, 1000, "fast", [&fast_now] { return fast_now; });
  LeaseStore slow(dir, 1000, "slow", [&slow_now] { return slow_now; });
  const bool fast_won = fast.try_claim(0);
  const bool slow_won = slow.try_claim(0);
  EXPECT_TRUE(fast_won);   // first to act reclaims
  EXPECT_FALSE(slow_won);  // second finds a fresh, valid claim
  EXPECT_TRUE(fast.holds(0));
  EXPECT_FALSE(slow.holds(0));
}

// ---------------------------------------------------------------------------
// Fencing and probes on the store.

TEST(LeaseStore, FenceClaimStopsTheHolder) {
  const std::string dir = service_dir("fence");
  std::int64_t now = 0;
  LeaseStore holder(dir, 1000, "holder", [&now] { return now; });
  LeaseStore fencer(dir, 1000, "fencer", [&now] { return now; });
  ASSERT_TRUE(holder.try_claim(0));
  EXPECT_TRUE(fencer.fence_claim(0));
  EXPECT_FALSE(holder.renew(0));  // the in-flight result gets dropped
  EXPECT_FALSE(holder.holds(0));
  EXPECT_TRUE(has_dead_claim(dir, 0));
  // Fencing an unclaimed lease reports there was nothing to fence.
  EXPECT_FALSE(fencer.fence_claim(1));
}

TEST(LeaseStore, PeekClaimReadsWithoutWriting) {
  const std::string dir = service_dir("peek");
  std::int64_t now = 0;
  LeaseStore alice(dir, 1000, "alice", [&now] { return now; });
  LeaseStore probe(dir, 1000, "probe", [&now] { return now; });
  EXPECT_LT(probe.peek_claim(0).lease_id, 0);  // no claim file yet
  ASSERT_TRUE(alice.try_claim(0));
  const LeaseClaimRecord record = probe.peek_claim(0);
  EXPECT_EQ(record.lease_id, 0);
  EXPECT_EQ(record.owner, "alice");
  EXPECT_EQ(record.expires_at_ms, 1000);
  EXPECT_TRUE(alice.holds(0));  // the probe never perturbed the claim
}

}  // namespace
}  // namespace swarmfuzz::fuzz
