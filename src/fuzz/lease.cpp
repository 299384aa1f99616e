#include "fuzz/lease.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include <unistd.h>

#include "fuzz/telemetry.h"
#include "util/fileio.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/retry.h"

namespace swarmfuzz::fuzz {

std::vector<LeaseRange> carve_leases(int num_missions, int num_leases) {
  if (num_missions < 1) {
    throw std::invalid_argument("carve_leases: num_missions < 1");
  }
  num_leases = std::clamp(num_leases, 1, num_missions);
  std::vector<LeaseRange> leases;
  leases.reserve(static_cast<std::size_t>(num_leases));
  const int base = num_missions / num_leases;
  const int extra = num_missions % num_leases;
  int begin = 0;
  for (int k = 0; k < num_leases; ++k) {
    const int size = base + (k < extra ? 1 : 0);
    leases.push_back(LeaseRange{.lease_id = k, .begin = begin, .end = begin + size});
    begin += size;
  }
  return leases;
}

std::string to_jsonl(const LeaseClaimRecord& record) {
  util::JsonWriter json;
  json.begin_object();
  json.key("v");
  json.value(record.schema_version);
  json.key("lease");
  json.value(record.lease_id);
  json.key("owner");
  json.value(record.owner);
  // Stringified like mission seeds: epoch milliseconds exceed no 53-bit
  // bound today, but the record format should not bake that assumption in.
  json.key("expires_at_ms");
  json.value(std::to_string(record.expires_at_ms));
  json.end_object();
  return frame_with_crc(json.str());
}

LeaseClaimRecord lease_claim_from_json(std::string_view line) {
  verify_crc_frame(line);
  const util::JsonValue root = util::parse_json(line);
  LeaseClaimRecord record;
  record.schema_version = root.at("v").as_int();
  if (record.schema_version != 1) {
    throw std::invalid_argument("lease: unsupported schema version " +
                                std::to_string(record.schema_version));
  }
  record.lease_id = root.at("lease").as_int();
  record.owner = root.at("owner").as_string();
  record.expires_at_ms = std::stoll(root.at("expires_at_ms").as_string());
  return record;
}

namespace {

std::int64_t system_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Reads a whole file through the retrier. ENOENT yields an empty result with
// `exists` false (an absent claim is a normal state, not an error);
// any other failure is an IoError the retrier may absorb.
struct FileContent {
  bool exists = false;
  std::string content;
};

FileContent read_file(const std::string& path) {
  return util::io_retrier().run("claim_read", [&]() -> FileContent {
    FileContent result;
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      if (errno == ENOENT) return result;
      throw util::IoError("lease: cannot open " + path, errno);
    }
    char buffer[1 << 14];
    std::size_t read = 0;
    while ((read = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
      result.content.append(buffer, read);
    }
    const bool failed = std::ferror(file) != 0;
    const int read_errno = errno;
    std::fclose(file);
    if (failed) {
      throw util::IoError("lease: cannot read " + path, read_errno);
    }
    result.exists = true;
    return result;
  });
}

}  // namespace

LeaseStore::LeaseStore(std::string dir, std::int64_t ttl_ms, std::string owner,
                       Clock clock)
    : dir_(std::move(dir)),
      ttl_ms_(ttl_ms),
      owner_(std::move(owner)),
      clock_(clock ? std::move(clock) : Clock{system_now_ms}) {
  if (ttl_ms_ < 1) {
    throw std::invalid_argument("LeaseStore: ttl_ms < 1");
  }
  if (owner_.empty()) {
    throw std::invalid_argument("LeaseStore: owner must not be empty");
  }
}

std::string LeaseStore::claim_path(int lease_id) const {
  return dir_ + "/lease-" + std::to_string(lease_id) + ".claim";
}

std::string LeaseStore::done_path(int lease_id) const {
  return dir_ + "/lease-" + std::to_string(lease_id) + ".done";
}

bool LeaseStore::is_done(int lease_id) const {
  std::error_code ec;
  return std::filesystem::exists(done_path(lease_id), ec);
}

void LeaseStore::mark_done(int lease_id) {
  // Atomic write-then-rename: the marker either exists complete or not at
  // all, so a crash between the final mission record and this call merely
  // leaves the lease for a (no-op) reclaim that re-marks it.
  util::write_file_atomic(done_path(lease_id), owner_ + "\n");
}

void LeaseStore::set_append_hook_for_test(std::function<void()> hook) {
  append_hook_ = std::move(hook);
}

void LeaseStore::append_claim(const std::string& path,
                              const LeaseClaimRecord& record) {
  if (append_hook_) append_hook_();
  append_jsonl_line(path, to_jsonl(record));
}

LeaseClaimRecord LeaseStore::latest_claim(const std::string& path) const {
  LeaseClaimRecord latest;  // lease_id = -1: no valid record
  const FileContent file = read_file(path);
  if (!file.exists) return latest;
  const std::string& content = file.content;
  std::size_t start = 0;
  while (start < content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size();
    const std::string_view line{content.data() + start, end - start};
    start = end + 1;
    if (line.empty()) continue;
    try {
      latest = lease_claim_from_json(line);
    } catch (const std::exception&) {
      // A torn or corrupt line (SIGKILL mid-claim or mid-renew) is a dead
      // claimant's unfinished write: ignore it and keep the last record
      // that did land, which expires on its own schedule.
    }
  }
  return latest;
}

LeaseClaimRecord LeaseStore::peek_claim(int lease_id) const {
  return latest_claim(claim_path(lease_id));
}

bool LeaseStore::try_claim(int lease_id) {
  if (is_done(lease_id)) return false;
  const std::string path = claim_path(lease_id);
  // Bounded retries: each loop iteration either wins the exclusive create,
  // rejects, or loses a reclaim race to a process that just claimed — which
  // then holds an unexpired lease, so the next iteration rejects.
  for (int attempt = 0; attempt < 4; ++attempt) {
    // Exclusive create *with content*: the first record goes to a private
    // file that is then hard-linked to the claim path. link() fails with
    // EEXIST when the path exists, so exactly one of any number of racing
    // processes wins, and the claim file never appears without its record.
    // (An exclusive create followed by an append left a window in which a
    // racing claimant read the empty file as a dead claimant's and
    // reclaimed a live lease.)
    static std::atomic<std::uint64_t> private_files{0};
    const std::string fresh = path + ".new." + std::to_string(::getpid()) +
                              "." + std::to_string(private_files++);
    bool created = false;
    try {
      append_claim(fresh, LeaseClaimRecord{.lease_id = lease_id,
                                           .owner = owner_,
                                           .expires_at_ms = now_ms() + ttl_ms_});
      created = util::io_retrier().run("claim_create", [&]() -> bool {
        std::error_code ec;
        std::filesystem::create_hard_link(fresh, path, ec);
        if (!ec) return true;
        if (ec == std::errc::file_exists) return false;
        throw util::IoError("lease: cannot create " + path + ": " + ec.message(),
                            ec.value());
      });
    } catch (...) {
      std::error_code ignored;
      std::filesystem::remove(fresh, ignored);
      throw;
    }
    std::error_code ignored;
    std::filesystem::remove(fresh, ignored);
    if (created) return true;
    const LeaseClaimRecord latest = latest_claim(path);
    if (latest.lease_id >= 0 && latest.expires_at_ms > now_ms()) {
      if (latest.owner != owner_) return false;  // validly held by another
      return true;  // re-entry on our own live claim
    }
    // Expired (or the file holds no valid record at all — a claimant that
    // died before its first line landed). Move it aside; the atomic rename
    // picks a single winner among racing reclaimers, and the loser's next
    // iteration observes whatever the winner wrote.
    if (!fence_claim(lease_id)) continue;  // winner re-creating
    SWARMFUZZ_WARN("lease {}: reclaiming expired claim of '{}'", lease_id,
                   latest.lease_id >= 0 ? latest.owner : "<torn>");
  }
  return false;
}

bool LeaseStore::renew(int lease_id) {
  const std::string path = claim_path(lease_id);
  const LeaseClaimRecord latest = latest_claim(path);
  if (latest.lease_id < 0 || latest.owner != owner_) {
    // Fencing: the lease lapsed and someone reclaimed (renamed) our claim
    // file. Writing a renewal now would resurrect a lease another worker
    // legitimately owns; the caller must abandon the range instead.
    return false;
  }
  append_claim(path, LeaseClaimRecord{.lease_id = lease_id,
                                      .owner = owner_,
                                      .expires_at_ms = now_ms() + ttl_ms_});
  return true;
}

bool LeaseStore::holds(int lease_id) const {
  const LeaseClaimRecord latest = latest_claim(claim_path(lease_id));
  return latest.lease_id >= 0 && latest.owner == owner_ &&
         latest.expires_at_ms > now_ms();
}

bool LeaseStore::fence_claim(int lease_id) {
  const std::string path = claim_path(lease_id);
  const std::string dead = path + ".dead." + std::to_string(now_ms()) + "." +
                           std::to_string(reclaim_nonce_++);
  return util::io_retrier().run("claim_fence", [&]() -> bool {
    std::error_code ec;
    std::filesystem::rename(path, dead, ec);
    if (!ec) return true;
    std::error_code exists_ec;
    if (!std::filesystem::exists(path, exists_ec)) return false;  // no claim
    throw util::IoError("lease: cannot fence " + path + ": " + ec.message(),
                        ec.value());
  });
}

std::string shard_telemetry_path(const std::string& dir, int lease_id) {
  return dir + "/shard-" + std::to_string(lease_id) + ".jsonl";
}

}  // namespace swarmfuzz::fuzz
