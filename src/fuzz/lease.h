// Durable work leases for sharded (multi-process) campaigns.
//
// `serve` carves the campaign's mission indices into contiguous ranges —
// the leases — and shard workers claim them through files in a shared
// service directory. The protocol is designed so that killing any
// worker at any instruction (including SIGKILL mid-write) loses no missions
// and duplicates none in the merged report:
//
//   lease-<k>.claim   Exclusive-create claim file, appended-to JSONL of
//                     CRC-framed LeaseClaimRecords (the initial claim plus
//                     one renewal per heartbeat). The last *valid* record
//                     holds the current owner and expiry; a torn trailing
//                     record (SIGKILL mid-renew) simply falls back to the
//                     previous one, which expires on schedule.
//   lease-<k>.done    Atomically-written completion marker (exists = every
//                     mission of the range has a durable shard record).
//
// Claiming: try to create the claim file exclusively (O_EXCL — a single
// winner even across racing processes). If it already exists and its latest
// valid record is unexpired under another owner, the claim is rejected. If
// it is expired (the owner died or stalled), the reclaimer renames the file
// aside to `lease-<k>.claim.dead.<nonce>` — rename is atomic, so exactly one
// of any number of racing reclaimers wins — and then competes again on the
// fresh exclusive create. Mission results are never stored in the claim
// file, so reclamation never discards work: the per-lease shard telemetry
// file (shard_merge.h) doubles as the sub-range checkpoint the new owner
// resumes from.
//
// Time is injectable (milliseconds since an arbitrary epoch) so expiry and
// reclamation are unit-testable without sleeping through real TTLs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace swarmfuzz::fuzz {

// One lease: the contiguous mission-index range [begin, end).
struct LeaseRange {
  int lease_id = -1;
  int begin = 0;
  int end = 0;

  [[nodiscard]] int size() const noexcept { return end - begin; }
};

// Carves `num_missions` indices into `num_leases` contiguous ranges of
// near-equal size (the first `num_missions % num_leases` ranges are one
// longer). `num_leases` is clamped to [1, num_missions]. Throws
// std::invalid_argument when num_missions < 1.
[[nodiscard]] std::vector<LeaseRange> carve_leases(int num_missions,
                                                   int num_leases);

// One CRC-framed line of a claim file: who holds the lease and until when.
struct LeaseClaimRecord {
  int schema_version = 1;
  int lease_id = -1;
  std::string owner;               // worker identity (unique per process)
  std::int64_t expires_at_ms = 0;  // clock ms at which the claim lapses
};

[[nodiscard]] std::string to_jsonl(const LeaseClaimRecord& record);
[[nodiscard]] LeaseClaimRecord lease_claim_from_json(std::string_view line);

class LeaseStore {
 public:
  // Millisecond clock; the default reads std::chrono::system_clock. Tests
  // inject a fake to step through expiry deterministically.
  using Clock = std::function<std::int64_t()>;

  // `dir` must exist. `owner` identifies this worker in claim records; two
  // stores must never share an owner string (uniqueness is what lets a
  // worker recognise its own claims after a restart race).
  LeaseStore(std::string dir, std::int64_t ttl_ms, std::string owner,
             Clock clock = {});

  // Claims `lease_id` for `owner`: true when this store now holds an
  // unexpired claim (including re-entry on a claim it already holds), false
  // when the lease is done or validly held by another owner. Expired claims
  // are reclaimed as described in the file header. Throws on I/O errors.
  [[nodiscard]] bool try_claim(int lease_id);

  // Appends a renewal record extending the claim to now + ttl. Returns false
  // (without writing) when the claim file's latest valid record is no longer
  // ours — the fencing signal that the lease expired and was reclaimed while
  // we were running; the caller must stop working on the lease.
  [[nodiscard]] bool renew(int lease_id);

  // True while the claim file's latest valid record names us, unexpired.
  [[nodiscard]] bool holds(int lease_id) const;

  // Writes the completion marker (atomic write-then-rename).
  void mark_done(int lease_id);
  [[nodiscard]] bool is_done(int lease_id) const;

  // Read-only probe of the claim file's latest valid record (lease_id < 0:
  // no valid record). For status reports; never writes.
  [[nodiscard]] LeaseClaimRecord peek_claim(int lease_id) const;

  // Fences whoever holds the lease by renaming the claim file aside to
  // `lease-<k>.claim.dead.*`: the holder's next renew() returns false
  // and it abandons the range. Returns whether a claim file existed to
  // fence. try_claim's expiry reclaim is this call.
  bool fence_claim(int lease_id);

  // Test hook: runs before every claim-file append (initial claim and each
  // renewal); a hook that throws util::IoError simulates transport failure.
  void set_append_hook_for_test(std::function<void()> hook);

  [[nodiscard]] std::string claim_path(int lease_id) const;
  [[nodiscard]] std::string done_path(int lease_id) const;

  [[nodiscard]] std::int64_t ttl_ms() const noexcept { return ttl_ms_; }
  [[nodiscard]] const std::string& owner() const noexcept { return owner_; }
  [[nodiscard]] std::int64_t now_ms() const { return clock_(); }

 private:
  // Latest valid (CRC-passing, parseable) record of a claim file; nullopt
  // semantics via lease_id < 0 when the file has no valid record at all —
  // which is treated as expired (a torn initial claim is a dead claimant).
  [[nodiscard]] LeaseClaimRecord latest_claim(const std::string& path) const;

  // Appends one claim/renewal record, via the append hook when set.
  void append_claim(const std::string& path, const LeaseClaimRecord& record);

  std::string dir_;
  std::int64_t ttl_ms_;
  std::string owner_;
  Clock clock_;
  int reclaim_nonce_ = 0;  // disambiguates this store's dead-file names
  std::function<void()> append_hook_;
};

// Path of lease `lease_id`'s shard telemetry file inside `dir` — the
// per-lease JSONL stream of TelemetryRecords that doubles as the sub-range
// checkpoint a reclaiming owner resumes from (see shard_merge.h).
[[nodiscard]] std::string shard_telemetry_path(const std::string& dir,
                                               int lease_id);

}  // namespace swarmfuzz::fuzz
