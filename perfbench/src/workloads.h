// The benchmark's four workloads (see perfbench/README.md for why each
// exists and which layers it stresses or bypasses).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;         // orders the mission set; never changes it
  double seconds = 10.0;          // sizes the fixed mission set
  bool trace = false;             // per-layer run instead of the timed run
  std::uint64_t mission_base = 0; // 0 = the workload's default mission set
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Per-run counts that must repeat exactly between runs of one commit.
struct RepeatCounts {
  std::int64_t steps_executed = 0;
  std::int64_t simulations = 0;
  std::int64_t eval_batches = 0;
  std::int64_t corpus_admissions = 0;
  std::string digest;
};

struct Report {
  bool correct = true;
  int attempted = 0;
  int failed = 0;
  std::vector<Metric> metrics;
  RepeatCounts counts;
  std::vector<std::string> notes;  // printed before the result line
  int workers = 1;
  int eval_threads = 1;
  int sim_threads = 1;
  std::uint64_t mission_base = 0;
};

[[nodiscard]] bool is_workload(const std::string& name);

// Runs one workload; throws on invalid options.
[[nodiscard]] Report run_workload(const Options& options);

}  // namespace perfbench
