#include "fuzz/shard_merge.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/logging.h"

namespace swarmfuzz::fuzz {
namespace {

// Lease id of a `shard-<k>.jsonl` filename, or -1 when the name is not a
// shard stream (dead claim files, manifests, summaries all live in `dir`).
int shard_id_of(const std::filesystem::path& path) {
  constexpr std::string_view kPrefix = "shard-";
  constexpr std::string_view kSuffix = ".jsonl";
  const std::string name = path.filename().string();
  if (name.size() <= kPrefix.size() + kSuffix.size() ||
      name.compare(0, kPrefix.size(), kPrefix) != 0 ||
      name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
    return -1;
  }
  const std::string digits =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  for (const char ch : digits) {
    if (ch < '0' || ch > '9') return -1;
  }
  try {
    return std::stoi(digits);
  } catch (const std::exception&) {
    return -1;
  }
}

}  // namespace

std::vector<MissionHole> missing_mission_ranges(const CampaignResult& result) {
  std::vector<MissionHole> holes;
  const int n = static_cast<int>(result.outcomes.size());
  for (int i = 0; i < n; ++i) {
    if (result.outcomes[static_cast<std::size_t>(i)].completed) continue;
    if (!holes.empty() && holes.back().end == i) {
      ++holes.back().end;
    } else {
      holes.push_back(MissionHole{.begin = i, .end = i + 1});
    }
  }
  return holes;
}

CampaignResult merge_shards(const CampaignConfig& config, const std::string& dir,
                            bool allow_partial, ShardMergeStats* stats) {
  if (config.num_missions < 1) {
    throw std::invalid_argument("merge_shards: num_missions < 1");
  }
  std::vector<std::pair<int, std::string>> shards;  // (lease id, path)
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const int id = shard_id_of(entry.path());
    if (id >= 0) shards.emplace_back(id, entry.path().string());
  }
  // Deterministic read order (directory iteration order is not): ascending
  // lease id, so keep-first dedup is stable across runs and platforms.
  std::sort(shards.begin(), shards.end());

  CampaignResult result;
  result.config = config;
  result.outcomes.resize(static_cast<std::size_t>(config.num_missions));
  for (int i = 0; i < config.num_missions; ++i) {
    result.outcomes[static_cast<std::size_t>(i)].mission_index = i;
  }

  ShardMergeStats accounting;
  accounting.shard_files = static_cast<int>(shards.size());
  for (const auto& [id, path] : shards) {
    for (const TelemetryRecord& record : load_telemetry(path)) {
      validate_checkpoint_record(record, config);
      ++accounting.records;
      MissionOutcome& outcome =
          result.outcomes[static_cast<std::size_t>(record.mission_index)];
      const MissionOutcome loaded = outcome_from_record(record);
      if (outcome.completed) {
        // Keep-first duplicate (a reclaimed lease recorded the mission
        // twice) — but only if the copies agree on every deterministic
        // field; disagreement means the shard streams belong to different
        // campaigns or a corrupted record slipped past its CRC.
        if (!deterministic_equal(outcome, loaded)) {
          throw std::runtime_error(
              "merge_shards: mission " + std::to_string(record.mission_index) +
              " has conflicting records across shard files (shard " +
              std::to_string(id) + ")");
        }
        ++accounting.duplicates;
        continue;
      }
      outcome = loaded;
    }
  }

  const int completed = result.num_completed();
  if (!allow_partial && completed != config.num_missions) {
    throw std::runtime_error(
        "merge_shards: " + std::to_string(config.num_missions - completed) +
        " of " + std::to_string(config.num_missions) +
        " missions missing from " + dir +
        " (campaign incomplete; pass allow_partial to merge anyway)");
  }
  if (accounting.duplicates > 0) {
    SWARMFUZZ_INFO("merge: dropped {} duplicate records (reclaimed leases)",
                   accounting.duplicates);
  }
  if (stats != nullptr) *stats = accounting;
  return result;
}

}  // namespace swarmfuzz::fuzz
