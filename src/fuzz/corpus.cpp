#include "fuzz/corpus.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "fuzz/telemetry.h"
#include "util/fileio.h"
#include "util/json.h"

namespace swarmfuzz::fuzz {
namespace {

// Bin-id layout: axis * kAxisStride + index. With up to 2^24 indices per
// axis (per-drone clearance uses drone * bins + bucket, so thousands of
// drones fit) and single-digit axes, every id stays well below 2^31 and
// survives a round trip through JSON integers.
constexpr std::uint32_t kAxisStride = 1u << 24;
enum NoveltyAxis : std::uint32_t {
  kAxisClearance = 0,  // per-drone obstacle clearance buckets
  kAxisTightestAt = 1, // mission-time fraction of the tightest approach
  kAxisNearMiss = 2,   // count of drones inside the near-miss radius
  kAxisPacking = 3,    // tightest average swarm packing
  kAxisObjective = 4,  // objective value f
  kAxisSuccess = 5,    // a collision was found
};

// Buckets a non-negative quantity at `width` resolution, saturating at the
// top bucket. Deterministic for every input: NaN and negatives take the
// bottom bucket, +inf the top (a drone that never met an obstacle is its own
// behavior, not an error).
int bucket_of(double value, double width, int bins) {
  if (!(value > 0.0)) return 0;
  if (!std::isfinite(value)) return bins - 1;
  const double scaled = value / width;
  if (scaled >= static_cast<double>(bins - 1)) return bins - 1;
  return static_cast<int>(scaled);
}

std::uint32_t bin_id(NoveltyAxis axis, int index) {
  return axis * kAxisStride + static_cast<std::uint32_t>(index);
}

}  // namespace

std::vector<std::uint32_t> novelty_signature(const ObjectiveEval& eval,
                                             double t_mission,
                                             const NoveltyConfig& config) {
  const int bins = std::max(config.bins, 2);
  std::vector<std::uint32_t> signature;
  signature.reserve(eval.drone_clearance.size() + 4);

  int near_misses = 0;
  for (std::size_t i = 0; i < eval.drone_clearance.size(); ++i) {
    const double clearance = eval.drone_clearance[i];
    signature.push_back(
        bin_id(kAxisClearance,
               static_cast<int>(i) * bins +
                   bucket_of(clearance, config.clearance_bin_m, bins)));
    if (clearance < config.near_miss_m) ++near_misses;
  }

  const double fraction =
      t_mission > 0.0
          ? std::clamp(eval.min_clearance_time / t_mission, 0.0, 1.0)
          : 0.0;
  signature.push_back(bin_id(
      kAxisTightestAt,
      std::min(static_cast<int>(fraction * bins), bins - 1)));
  signature.push_back(bin_id(kAxisNearMiss, std::min(near_misses, bins - 1)));
  signature.push_back(
      bin_id(kAxisPacking,
             bucket_of(eval.min_avg_separation, config.separation_bin_m, bins)));
  signature.push_back(
      bin_id(kAxisObjective, bucket_of(eval.f, config.clearance_bin_m, bins)));
  if (eval.success) signature.push_back(bin_id(kAxisSuccess, 0));

  std::sort(signature.begin(), signature.end());
  signature.erase(std::unique(signature.begin(), signature.end()),
                  signature.end());
  return signature;
}

bool Corpus::admit(CorpusEntry entry) {
  bool novel = false;
  for (const std::uint32_t bin : entry.signature) {
    if (!lit_.contains(bin)) {
      novel = true;
      break;
    }
  }
  if (!novel) return false;
  lit_.insert(entry.signature.begin(), entry.signature.end());
  entries_.push_back(std::move(entry));
  ++admissions_;
  if (max_entries_ > 0 && static_cast<int>(entries_.size()) > max_entries_) {
    minimize();
  }
  return true;
}

void Corpus::minimize() {
  if (entries_.empty()) return;
  // Greedy cheapest-cover: for every lit bin, the cheapest entry covering it
  // survives (cost ties broken by admission order — entries_ is in admission
  // order, so the first cheapest wins). The surviving set covers every lit
  // bin, so bins_lit() is invariant.
  std::map<std::uint32_t, std::size_t> cheapest;  // bin -> entry index
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    for (const std::uint32_t bin : entries_[i].signature) {
      const auto [it, inserted] = cheapest.try_emplace(bin, i);
      if (!inserted && entries_[i].cost < entries_[it->second].cost) {
        it->second = i;
      }
    }
  }
  std::vector<bool> keep(entries_.size(), false);
  for (const auto& [bin, index] : cheapest) keep[index] = true;
  std::vector<CorpusEntry> kept;
  kept.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (keep[i]) kept.push_back(std::move(entries_[i]));
  }
  entries_ = std::move(kept);
}

std::string to_jsonl(const CorpusEntry& entry) {
  util::JsonWriter json;
  json.begin_object();
  json.key("target");
  json.value(entry.seed.target);
  json.key("victim");
  json.value(entry.seed.victim);
  json.key("direction");
  json.value(attack::direction_name(entry.seed.direction));
  json.key("vdo");
  json.value_exact(entry.seed.vdo);
  json.key("influence");
  json.value_exact(entry.seed.influence);
  json.key("t_start");
  json.value_exact(entry.t_start);
  json.key("duration");
  json.value_exact(entry.duration);
  json.key("f");
  json.value_exact(entry.f);
  json.key("cost");
  json.value_exact(entry.cost);
  json.key("signature");
  json.begin_array();
  for (const std::uint32_t bin : entry.signature) {
    json.value(static_cast<std::int64_t>(bin));
  }
  json.end_array();
  json.end_object();
  return frame_with_crc(json.str());
}

CorpusEntry corpus_entry_from_json(std::string_view line) {
  verify_crc_frame(line);
  const util::JsonValue root = util::parse_json(line);
  CorpusEntry entry;
  entry.seed.target = root.at("target").as_int();
  entry.seed.victim = root.at("victim").as_int();
  entry.seed.direction = attack::direction_from_name(root.at("direction").as_string());
  entry.seed.vdo = root.at("vdo").as_double();
  entry.seed.influence = root.at("influence").as_double();
  entry.t_start = root.at("t_start").as_double();
  entry.duration = root.at("duration").as_double();
  entry.f = root.at("f").as_double();
  entry.cost = root.at("cost").as_double();
  // JSON null parses as NaN. `f` and `vdo` may legitimately be +inf (and so
  // arrive as null), but a window or cost never is: such a line is corrupt,
  // and E_Fuzz would otherwise mutate and simulate a NaN window.
  if (!std::isfinite(entry.t_start) || !std::isfinite(entry.duration) ||
      !std::isfinite(entry.cost)) {
    throw std::invalid_argument("corpus: non-finite t_start, duration or cost");
  }
  const util::JsonValue& signature = root.at("signature");
  entry.signature.reserve(signature.size());
  for (std::size_t i = 0; i < signature.size(); ++i) {
    entry.signature.push_back(
        static_cast<std::uint32_t>(signature.at(i).as_int64()));
  }
  return entry;
}

void save_corpus(const Corpus& corpus, const std::string& path) {
  // Atomic replace: a crash mid-save leaves the previous corpus intact, and
  // no reader ever observes a half-written file.
  std::string content;
  for (const CorpusEntry& entry : corpus.entries()) {
    content += to_jsonl(entry);
    content.push_back('\n');
  }
  util::write_file_atomic(path, content);
}

std::vector<CorpusEntry> load_corpus(const std::string& path) {
  std::vector<CorpusEntry> entries;
  replay_jsonl(path, "corpus", [&entries](std::string_view line) {
    entries.push_back(corpus_entry_from_json(line));
  });
  return entries;
}

}  // namespace swarmfuzz::fuzz
