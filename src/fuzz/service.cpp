#include "fuzz/service.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>

#include "util/fileio.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/retry.h"

namespace swarmfuzz::fuzz {
namespace {

// Reads the manifest file through the retrier. A missing manifest — the one
// failure with an operator remedy rather than a retry schedule — names it.
std::string read_manifest_file(const std::string& path) {
  return util::io_retrier().run("manifest_read", [&]() -> std::string {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      std::string message = "service: cannot open " + path;
      if (errno == ENOENT) message += " (run `swarmfuzz serve` first)";
      throw util::IoError(message, errno);
    }
    std::string content;
    char buffer[1 << 12];
    std::size_t read = 0;
    while ((read = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
      content.append(buffer, read);
    }
    const bool failed = std::ferror(file) != 0;
    const int read_errno = errno;
    std::fclose(file);
    if (failed) {
      throw util::IoError("service: cannot read " + path, read_errno);
    }
    while (!content.empty() &&
           (content.back() == '\n' || content.back() == '\r')) {
      content.pop_back();
    }
    return content;
  });
}

}  // namespace

std::string to_jsonl(const ServiceManifest& manifest) {
  util::JsonWriter json;
  json.begin_object();
  json.key("v");
  json.value(manifest.schema_version);
  json.key("config_hash");
  json.value(manifest.config_hash);
  json.key("missions");
  json.value(manifest.num_missions);
  json.key("leases");
  json.value(manifest.num_leases);
  json.key("ttl_ms");
  json.value(std::to_string(manifest.lease_ttl_ms));
  json.key("args");
  json.begin_array();
  for (const std::string& arg : manifest.campaign_args) json.value(arg);
  json.end_array();
  json.end_object();
  return frame_with_crc(json.str());
}

ServiceManifest service_manifest_from_json(std::string_view line) {
  verify_crc_frame(line);
  const util::JsonValue root = util::parse_json(line);
  ServiceManifest manifest;
  manifest.schema_version = root.at("v").as_int();
  if (manifest.schema_version != 1) {
    throw std::invalid_argument("service: unsupported manifest version " +
                                std::to_string(manifest.schema_version));
  }
  manifest.config_hash = root.at("config_hash").as_string();
  manifest.num_missions = root.at("missions").as_int();
  manifest.num_leases = root.at("leases").as_int();
  manifest.lease_ttl_ms = std::stoll(root.at("ttl_ms").as_string());
  const util::JsonValue& args = root.at("args");
  for (std::size_t i = 0; i < args.size(); ++i) {
    manifest.campaign_args.push_back(args.at(i).as_string());
  }
  return manifest;
}

std::string manifest_path(const std::string& dir) {
  return dir + "/manifest.json";
}

void write_manifest(const std::string& dir, const ServiceManifest& manifest) {
  std::filesystem::create_directories(dir);
  util::write_file_atomic(manifest_path(dir), to_jsonl(manifest) + "\n");
}

ServiceManifest load_manifest(const std::string& dir) {
  const std::string path = manifest_path(dir);
  const std::string content = read_manifest_file(path);
  try {
    return service_manifest_from_json(content);
  } catch (const std::exception& e) {
    throw std::runtime_error("service: corrupt manifest at " + path + ": " +
                             e.what());
  }
}

bool all_leases_done(const std::string& dir, int num_leases) {
  const LeaseStore store(dir, /*ttl_ms=*/1, "done-probe");
  for (int k = 0; k < num_leases; ++k) {
    if (!store.is_done(k)) return false;
  }
  return true;
}

bool wait_for_service(const std::string& dir, int num_leases,
                      std::int64_t timeout_ms, std::int64_t poll_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!all_leases_done(dir, num_leases)) {
    if (timeout_ms > 0 && std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max<std::int64_t>(poll_ms, 1)));
  }
  return true;
}

int recorded_prefix(const std::string& dir, const LeaseRange& lease) {
  std::set<int> indices;
  try {
    for (const TelemetryRecord& record :
         load_telemetry(shard_telemetry_path(dir, lease.lease_id))) {
      indices.insert(record.mission_index);
    }
  } catch (const std::exception&) {
    // A corrupt shard file is the worker's problem to surface; for a
    // status report it simply means no resumable prefix.
    return 0;
  }
  int n = 0;
  while (n < lease.size() && indices.count(lease.begin + n) != 0) ++n;
  return n;
}

std::vector<LeaseHealth> probe_lease_health(const std::string& dir,
                                            const std::vector<LeaseRange>& leases,
                                            std::int64_t ttl_ms,
                                            std::int64_t now_ms) {
  const LeaseStore store(dir, ttl_ms, "health-probe", [now_ms] { return now_ms; });
  std::vector<LeaseHealth> health;
  health.reserve(leases.size());
  for (const LeaseRange& lease : leases) {
    LeaseHealth h;
    h.range = lease;
    h.done = store.is_done(lease.lease_id);
    h.recorded = h.done ? lease.size() : recorded_prefix(dir, lease);
    const LeaseClaimRecord claim = store.peek_claim(lease.lease_id);
    if (claim.lease_id >= 0) {
      h.claimed = true;
      h.owner = claim.owner;
      h.expired = claim.expires_at_ms <= now_ms;
      h.last_renew_age_ms = now_ms - (claim.expires_at_ms - ttl_ms);
    }
    health.push_back(std::move(h));
  }
  return health;
}

std::string describe_incomplete_leases(const std::vector<LeaseHealth>& health) {
  std::string report;
  char line[256];
  for (const LeaseHealth& h : health) {
    if (h.done) continue;
    std::string state = "unclaimed";
    if (h.claimed) {
      std::snprintf(line, sizeof line, "%s claim of '%s' (last heartbeat %.1fs ago)",
                    h.expired ? "expired" : "live", h.owner.c_str(),
                    static_cast<double>(h.last_renew_age_ms) / 1000.0);
      state = line;
    }
    std::snprintf(line, sizeof line,
                  "  lease %-3d missions %d..%d: %d/%d recorded, %s\n",
                  h.range.lease_id, h.range.begin, h.range.end - 1, h.recorded,
                  h.range.size(), state.c_str());
    report += line;
  }
  return report;
}

ChaosPlan parse_chaos_plan(std::string_view spec) {
  ChaosPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string item{spec.substr(
        start, (comma == std::string_view::npos ? spec.size() : comma) - start)};
    start = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (item.empty()) continue;
    const auto fail = [&item](const std::string& why) {
      return std::invalid_argument("parse_chaos_plan: " + why + " in '" + item +
                                   "'");
    };
    const std::size_t at = item.find('@');
    if (at == std::string::npos) throw fail("missing '@<mission-index>'");
    const std::string mode = item.substr(0, at);
    ChaosAction action;
    if (mode == "kill") {
      action.kind = ChaosAction::Kind::kKill;
    } else if (mode == "torn-write") {
      action.kind = ChaosAction::Kind::kTornWrite;
    } else if (mode == "eio") {
      action.kind = ChaosAction::Kind::kEio;
    } else {
      throw fail("unknown chaos mode '" + mode +
                 "' (kill|torn-write|eio)");
    }
    try {
      std::string rest = item.substr(at + 1);
      if (const std::size_t x = rest.find('x'); x != std::string::npos) {
        action.count = std::stoi(rest.substr(x + 1));
        rest.resize(x);
      }
      action.mission_index = std::stoi(rest);
    } catch (const std::invalid_argument&) {
      throw fail("malformed number");
    } catch (const std::out_of_range&) {
      throw fail("number out of range");
    }
    if (action.mission_index < 0 || action.count < 1) {
      throw fail("negative index or non-positive count");
    }
    plan.actions.push_back(action);
  }
  return plan;
}

LeaseHeartbeat::LeaseHeartbeat(LeaseStore& store, int lease_id)
    : store_(store), lease_id_(lease_id) {
  thread_ = std::thread([this] { loop(); });
}

LeaseHeartbeat::~LeaseHeartbeat() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void LeaseHeartbeat::loop() {
  const std::int64_t period_ms = std::max<std::int64_t>(store_.ttl_ms() / 3, 1);
  // Backoff for failed renewals starts well under the period (so a hiccup
  // costs little freshness) and doubles up to the period (so a dying disk
  // is probed no faster than a healthy one is renewed).
  const std::int64_t backoff_floor_ms =
      std::max<std::int64_t>(store_.ttl_ms() / 24, 1);
  std::int64_t backoff_ms = 0;  // 0: healthy, wait a full period
  std::int64_t last_success_ms = store_.now_ms();
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    const std::int64_t wait_ms =
        backoff_ms > 0 ? std::min(backoff_ms, period_ms) : period_ms;
    if (wake_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                       [this] { return stop_; })) {
      break;
    }
    try {
      if (!store_.renew(lease_id_)) {
        SWARMFUZZ_WARN("shard [{}]: lease {} was reclaimed; abandoning",
                       store_.owner(), lease_id_);
        fenced_.store(true);
        break;
      }
      last_success_ms = store_.now_ms();
      backoff_ms = 0;
    } catch (const util::IoError& e) {
      if (!util::is_transient_errno(e.code())) {
        // A read-only filesystem (EROFS, EACCES...) will not heal on any
        // retry cadence; treat it like fencing so the worker abandons the
        // lease instead of spinning against the mount.
        SWARMFUZZ_ERROR(
            "shard [{}]: lease {} renewal failed permanently ({}); abandoning",
            store_.owner(), lease_id_, e.what());
        fenced_.store(true);
        break;
      }
      if (store_.now_ms() - last_success_ms >= store_.ttl_ms()) {
        // Our claim has lapsed on disk while renewals kept failing: a
        // reclaimer may legitimately own the range now, so continuing to
        // record would race it. Same abandon path as observed fencing.
        SWARMFUZZ_ERROR(
            "shard [{}]: lease {} renewals failed past the TTL; abandoning",
            store_.owner(), lease_id_);
        fenced_.store(true);
        break;
      }
      backoff_ms = backoff_ms > 0 ? std::min(backoff_ms * 2, period_ms)
                                  : backoff_floor_ms;
      SWARMFUZZ_WARN(
          "shard [{}]: lease {} renewal failed transiently ({}); retrying in "
          "{} ms",
          store_.owner(), lease_id_, e.what(), backoff_ms);
    } catch (const std::exception& e) {
      // Unclassified failure: treat as transient but stay bounded by the
      // TTL check above on the next failures.
      backoff_ms = backoff_ms > 0 ? std::min(backoff_ms * 2, period_ms)
                                  : backoff_floor_ms;
      SWARMFUZZ_ERROR("shard [{}]: lease {} renewal failed: {}",
                      store_.owner(), lease_id_, e.what());
    }
  }
}

namespace {

// Mutable per-process chaos state: which plan entries have fired, and how
// many EIO injections each mission still owes.
struct ChaosState {
  explicit ChaosState(const ChaosPlan& plan) {
    for (const ChaosAction& action : plan.actions) {
      if (action.kind == ChaosAction::Kind::kEio) {
        eio_remaining[action.mission_index] += action.count;
      } else {
        pending.push_back(action);
      }
    }
  }

  // Pops the first un-fired process-fatal action for `index`.
  [[nodiscard]] const ChaosAction* take(ChaosAction::Kind kind, int index) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].kind == kind && pending[i].mission_index == index) {
        taken = pending[i];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        return &taken;
      }
    }
    return nullptr;
  }

  std::vector<ChaosAction> pending;
  std::map<int, int> eio_remaining;
  ChaosAction taken;
};

}  // namespace

ShardWorkerStats run_shard_worker(const ShardWorkerConfig& config) {
  if (config.owner.empty()) {
    throw std::invalid_argument("run_shard_worker: owner must not be empty");
  }
  LeaseStore store(config.dir, config.lease_ttl_ms, config.owner, config.clock);
  std::function<void(std::int64_t)> sleep_ms = config.sleep_ms;
  if (!sleep_ms) {
    sleep_ms = [](std::int64_t ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
  std::function<void()> chaos_kill = config.chaos_kill;
  if (!chaos_kill) {
    chaos_kill = [] { std::raise(SIGKILL); };
  }
  ChaosState chaos(config.chaos);

  // Shard processes do not split the hardware the way in-process campaign
  // workers do: each process is its own "worker", so auto eval threads
  // resolve to the whole machine. eval_threads never changes outcomes.
  const FuzzerConfig worker_fuzzer = worker_fuzzer_config(config.campaign, 1);

  ShardWorkerStats stats;
  MissionRunner runner(config.campaign, worker_fuzzer);

  const auto run_lease = [&](const LeaseRange& lease) {
    const std::string shard_path = shard_telemetry_path(config.dir, lease.lease_id);
    // The shard file is the lease's sub-range checkpoint: heal a previous
    // owner's torn tail, then skip every mission it already recorded. The
    // records are validated exactly like a resume checkpoint — a foreign
    // file must fail loudly, not seed a merged report.
    heal_torn_tail(shard_path);
    std::set<int> recorded;
    for (const TelemetryRecord& record : load_telemetry(shard_path)) {
      validate_checkpoint_record(record, config.campaign);
      if (record.mission_index < lease.begin || record.mission_index >= lease.end) {
        throw std::runtime_error(
            "shard: record for mission " + std::to_string(record.mission_index) +
            " outside lease " + std::to_string(lease.lease_id) + " range in " +
            shard_path);
      }
      recorded.insert(record.mission_index);
    }
    QuarantineLog quarantine(config.campaign, shard_path + ".quarantine");

    LeaseHeartbeat heartbeat(store, lease.lease_id);
    for (int index = lease.begin; index < lease.end; ++index) {
      if (heartbeat.fenced()) {
        ++stats.leases_abandoned;
        return;
      }
      if (recorded.count(index) != 0) {
        ++stats.missions_resumed;
        continue;
      }
      const MissionOutcome outcome = runner.run(index);
      if (heartbeat.fenced()) {
        // Reclaimed mid-mission: the successor will rerun this index and
        // record the identical outcome; dropping ours avoids racing its
        // appends on the shard file.
        ++stats.leases_abandoned;
        return;
      }
      TelemetryRecord record = record_from_outcome(config.campaign, outcome);
      record.shard = lease.lease_id;
      const std::string line = to_jsonl(record);
      if (chaos.take(ChaosAction::Kind::kKill, index) != nullptr) {
        SWARMFUZZ_WARN("shard [{}]: chaos kill before recording mission {}",
                       config.owner, index);
        chaos_kill();
        return;  // unreachable with the default raise(SIGKILL)
      }
      if (chaos.take(ChaosAction::Kind::kTornWrite, index) != nullptr) {
        // Append a prefix of the record without its newline, then die: the
        // torn-tail crash signature a successor's heal_torn_tail removes.
        SWARMFUZZ_WARN("shard [{}]: chaos torn write on mission {}",
                       config.owner, index);
        if (std::FILE* file = std::fopen(shard_path.c_str(), "ab");
            file != nullptr) {
          std::fwrite(line.data(), 1, line.size() / 2, file);
          std::fflush(file);
          std::fclose(file);
        }
        chaos_kill();
        return;
      }
      util::io_retrier().run("shard_append", [&] {
        if (const auto it = chaos.eio_remaining.find(index);
            it != chaos.eio_remaining.end() && it->second > 0) {
          --it->second;
          SWARMFUZZ_WARN("shard [{}]: chaos injected EIO on mission {}",
                         config.owner, index);
          throw util::IoError("chaos: injected EIO on shard append for mission " +
                                  std::to_string(index),
                              EIO);
        }
        append_jsonl_line(shard_path, line);
      });
      ++stats.missions_run;
      quarantine.add(outcome);
    }
    if (heartbeat.fenced()) {
      ++stats.leases_abandoned;
      return;
    }
    store.mark_done(lease.lease_id);
    SWARMFUZZ_INFO("shard [{}]: lease {} done (missions {}..{})", config.owner,
                   lease.lease_id, lease.begin, lease.end - 1);
  };

  // Claim until every lease of the service is done. When nothing is
  // claimable but leases remain (validly held by live peers), wait out a
  // fraction of the TTL: done markers appear or claims expire.
  const std::vector<LeaseRange> leases =
      carve_leases(config.campaign.num_missions, config.num_leases);
  while (true) {
    bool all_done = true;
    bool claimed_any = false;
    for (const LeaseRange& lease : leases) {
      if (store.is_done(lease.lease_id)) continue;
      all_done = false;
      if (!store.try_claim(lease.lease_id)) continue;
      claimed_any = true;
      ++stats.leases_claimed;
      try {
        run_lease(lease);
      } catch (const util::IoError& e) {
        // Transport gave up (retries exhausted or permanent): abandon the
        // lease — its claim expires on schedule and any worker (including
        // this one, next scan) resumes from the shard file's prefix.
        SWARMFUZZ_ERROR("shard [{}]: lease {} abandoned on I/O failure: {}",
                        config.owner, lease.lease_id, e.what());
        ++stats.io_aborts;
        ++stats.leases_abandoned;
      }
    }
    if (all_done) break;
    if (!claimed_any) {
      sleep_ms(std::max<std::int64_t>(config.lease_ttl_ms / 4, 1));
    }
  }
  return stats;
}

}  // namespace swarmfuzz::fuzz
