// E_Fuzz corpus: the persistent population of the evolutionary fuzzer
// (DESIGN.md section 17).
//
// Classic coverage-guided fuzzers admit an input to the corpus when it
// exercises a new branch. A drone-swarm mission has no branch map, so the
// coverage analogue is *behavioral*: every attacked run is summarized into a
// signature of binned trajectory features — per-drone obstacle clearance,
// the mission-time fraction of the tightest approach, the near-miss count,
// the tightest swarm packing, and the objective value — and a candidate
// enters the corpus only when it lights a bin no current member has lit.
// Periodic minimization (the afl-cmin analogue) keeps, for each lit bin, the
// cheapest entry covering it, so the population stays small and biased
// toward windows that are cheap to re-simulate under prefix reuse.
//
// Everything here is deterministic: signatures are pure functions of a
// deterministic simulation's recorder, admission depends only on admission
// order, and minimization breaks cost ties by admission order.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/objective.h"
#include "fuzz/seeds.h"

namespace swarmfuzz::fuzz {

// Behavioral-novelty binning. `bins` is the resolution of every bucketed
// axis; the *_bin_m widths translate meters into buckets. Coarser bins mean
// a smaller corpus and faster saturation; finer bins keep more diversity.
struct NoveltyConfig {
  int bins = 16;                 // buckets per feature axis
  double clearance_bin_m = 2.0;  // meters per obstacle-clearance bucket
  double separation_bin_m = 2.0; // meters per swarm-packing bucket
  double near_miss_m = 5.0;      // clearance below this counts as a near miss
};

// Bins the evaluation's behavioral features into a sorted, duplicate-free
// signature of bin ids. `t_mission` scales the time-of-tightest-approach
// axis. Non-finite features bin deterministically (NaN lowest, +inf top).
[[nodiscard]] std::vector<std::uint32_t> novelty_signature(
    const ObjectiveEval& eval, double t_mission, const NoveltyConfig& config);

// One corpus member: a seed pair plus a *projected* spoofing window, the
// objective value it scored, a deterministic evaluation-cost proxy (the
// simulated tail length under prefix reuse, in mission seconds), and the
// behavioral signature its evaluation produced.
struct CorpusEntry {
  Seed seed;
  double t_start = 0.0;
  double duration = 0.0;
  double f = 0.0;
  double cost = 0.0;
  std::vector<std::uint32_t> signature;
};

class Corpus {
 public:
  explicit Corpus(int max_entries = 256) : max_entries_(max_entries) {}

  // Admits `entry` iff its signature lights at least one bin no current
  // member has lit; returns whether it was admitted. Exceeding max_entries
  // triggers an immediate minimization (coverage is never dropped).
  bool admit(CorpusEntry entry);

  // afl-cmin analogue: keeps, for each lit bin, the cheapest entry covering
  // it (ties broken by admission order); everything else is dropped. The
  // union of lit bins is invariant under minimization.
  void minimize();

  [[nodiscard]] const std::vector<CorpusEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  // Distinct novelty bins lit across every admission (minimization keeps
  // this invariant).
  [[nodiscard]] int bins_lit() const noexcept {
    return static_cast<int>(lit_.size());
  }
  // Total entries ever admitted, including those minimized away since.
  [[nodiscard]] int admissions() const noexcept { return admissions_; }

 private:
  int max_entries_;
  std::vector<CorpusEntry> entries_;  // in admission order
  std::set<std::uint32_t> lit_;       // union of member signatures
  int admissions_ = 0;
};

// --- persistence ------------------------------------------------------------
//
// A corpus file is CRC-framed JSONL, one entry per line, using the same
// framing as every other durable stream (fuzz/telemetry.h): doubles
// round-trip exactly, a torn final line is healed on load, and a corrupt
// complete line throws.

// One CRC-framed JSONL line (no trailing newline).
[[nodiscard]] std::string to_jsonl(const CorpusEntry& entry);
[[nodiscard]] CorpusEntry corpus_entry_from_json(std::string_view line);

// Rewrites `path` with the corpus's entries via write-to-temp + atomic
// rename, so a crash mid-save never clobbers the previous corpus. Throws
// util::IoError on unrecoverable I/O failure.
void save_corpus(const Corpus& corpus, const std::string& path);

// Loads every well-formed entry through replay_jsonl: a torn final line —
// the crash signature — is skipped with a warning; a corrupt complete line
// throws std::runtime_error. A missing file yields an empty vector.
[[nodiscard]] std::vector<CorpusEntry> load_corpus(const std::string& path);

}  // namespace swarmfuzz::fuzz
