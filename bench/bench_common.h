// Shared plumbing for the table/figure benchmark binaries.
//
// Every binary accepts:
//   --missions=N        missions per configuration (env SWARMFUZZ_MISSIONS)
//   --threads=N         worker threads             (env SWARMFUZZ_THREADS)
//   --budget=N          search-iteration budget per mission (env SWARMFUZZ_BUDGET)
//   --seed=N            campaign base seed         (env SWARMFUZZ_SEED)
//   --checkpoint-dir=D  checkpoint campaigns to D/<label>.jsonl and resume
//                       interrupted runs            (env SWARMFUZZ_CHECKPOINT_DIR)
//   --fresh             ignore existing checkpoints, start over
//   --telemetry=FILE    stream per-mission JSONL telemetry to FILE
//   --report=FILE       save the rendered tables to FILE atomically
//                       (write-temp-then-rename; env SWARMFUZZ_REPORT)
// The paper runs 100 missions per configuration; the defaults here are
// smaller so the whole harness completes in minutes on one core.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "fuzz/campaign.h"
#include "fuzz/report.h"
#include "fuzz/telemetry.h"
#include "util/fileio.h"
#include "util/options.h"

namespace swarmfuzz::bench {

struct BenchOptions {
  int missions = 40;
  int threads = 0;   // 0 = hardware concurrency
  int budget = 60;
  std::uint64_t seed = 1000;
  std::string checkpoint_dir;  // empty = no checkpointing
  bool fresh = false;          // true = discard existing checkpoints
  std::string telemetry_path;  // empty = no telemetry stream
  std::string report_path;     // empty = stdout only
};

// A malformed option ends the program the way the swarmfuzz CLI does: one
// "error: ..." line on stderr and exit status 1.
inline BenchOptions parse_bench_options(int argc, const char* const* argv,
                                        int default_missions = 40) {
  BenchOptions bench;
  const int status = util::run_main([&] {
    const util::Options opts = util::Options::parse(argc, argv);
    bench.missions = opts.get_int("missions", default_missions);
    bench.threads = opts.get_int("threads", 0);
    bench.budget = opts.get_int("budget", 60);
    bench.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1000));
    bench.checkpoint_dir = opts.get("checkpoint-dir", "");
    bench.fresh = opts.get_bool("fresh", false);
    bench.telemetry_path = opts.get("telemetry", "");
    bench.report_path = opts.get("report", "");
    return 0;
  });
  if (status != 0) std::exit(status);
  return bench;
}

// Persists the rendered report text atomically (write-temp-then-rename), so
// an interrupted bench run never leaves a truncated report where a results
// pipeline expects a complete one. No-op when --report is unset.
inline void save_report(const BenchOptions& bench, const std::string& text) {
  if (bench.report_path.empty()) return;
  util::write_file_atomic(bench.report_path, text);
  std::printf("report saved to %s\n", bench.report_path.c_str());
}

// Optional shared telemetry sink; keep it alive for the whole run and pass
// its .get() as CampaignConfig::telemetry / GridConfig::base.telemetry.
inline std::unique_ptr<fuzz::JsonlTelemetrySink> make_telemetry(
    const BenchOptions& bench) {
  if (bench.telemetry_path.empty()) return nullptr;
  return std::make_unique<fuzz::JsonlTelemetrySink>(bench.telemetry_path,
                                                    /*append=*/true);
}

// Campaign configuration matching the paper's experimental setup
// (section V-A) with the simulation resolution used throughout this repo.
inline fuzz::CampaignConfig paper_campaign(const BenchOptions& bench) {
  fuzz::CampaignConfig config;
  config.num_missions = bench.missions;
  config.base_seed = bench.seed;
  config.num_threads = bench.threads;
  config.fuzzer.sim.dt = 0.05;
  config.fuzzer.sim.gps.rate_hz = 20.0;
  config.fuzzer.mission_budget = bench.budget;
  config.resume = !bench.fresh;
  return config;
}

// Checkpoints `config` at <checkpoint-dir>/<label>.jsonl (creating the
// directory) so the campaign resumes if the binary is re-run after an
// interruption. No-op when --checkpoint-dir is unset.
inline void enable_checkpoint(fuzz::CampaignConfig& config,
                              const BenchOptions& bench,
                              const std::string& label) {
  if (bench.checkpoint_dir.empty()) return;
  std::filesystem::create_directories(bench.checkpoint_dir);
  config.checkpoint_path =
      (std::filesystem::path{bench.checkpoint_dir} / (label + ".jsonl")).string();
}

// The paper's configuration grid: {5, 10, 15} drones x {5, 10} m spoofing.
inline fuzz::GridConfig paper_grid(const BenchOptions& bench) {
  fuzz::GridConfig grid;
  grid.base = paper_campaign(bench);
  grid.checkpoint_dir = bench.checkpoint_dir;
  return grid;
}

inline void print_header(const char* experiment, const BenchOptions& bench) {
  std::printf("=== SwarmFuzz reproduction: %s ===\n", experiment);
  std::printf("missions/config=%d budget=%d base_seed=%llu (paper: 100 missions)\n",
              bench.missions, bench.budget,
              static_cast<unsigned long long>(bench.seed));
  if (!bench.checkpoint_dir.empty()) {
    std::printf("checkpoints: %s (%s)\n", bench.checkpoint_dir.c_str(),
                bench.fresh ? "fresh start" : "resuming completed missions");
  }
  std::printf("\n");
}

}  // namespace swarmfuzz::bench
