// perfbench: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--mission-base <n>]
//
// Prints notes, the exact-repeat counts and the run context, then, as the
// last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "workloads.h"

namespace {

struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

// Aggregate "cpu" line of /proc/stat (zeros when unreadable).
CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTimes t;
  if (!(in >> label) || label != "cpu") return t;
  for (int field = 0; field < 10; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    if (field < 8) t.total += v;  // guest time is already in user/nice
    if (field == 7) t.steal = v;
  }
  return t;
}

std::string read_loadavg() {
  std::ifstream in("/proc/loadavg");
  double one = 0.0;
  if (!(in >> one)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", one);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <table1_cell|"
               "interactive_fuzz|evolutionary|large_swarm> --seed <n> "
               "--seconds <s> --trace <0|1> [--mission-base <n>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: built as '%s'; timings from anything but a Release "
                 "build are meaningless. Reconfigure with -DCMAKE_BUILD_TYPE=Release.\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  perfbench::Options options;
  bool have_seed = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view flag = argv[i];
      if (i + 1 >= argc) return usage("missing value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--mission-base") {
        options.mission_base = std::stoull(value);
      } else {
        return usage("unknown flag");
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!perfbench::is_workload(options.workload)) return usage("unknown workload");
  if (!have_seed) return usage("--seed is required");
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }

  const CpuTimes cpu0 = read_cpu_times();
  const std::string load0 = read_loadavg();
  perfbench::Report report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const CpuTimes cpu1 = read_cpu_times();
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  const std::uint64_t total = cpu1.total - cpu0.total;
  const std::uint64_t steal = cpu1.steal - cpu0.steal;

  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  std::printf(
      "{\"counts\": {\"sim.steps_executed\": %lld, \"fuzz.simulations\": %lld, "
      "\"fuzz.eval_batches\": %lld, \"fuzz.corpus_admissions\": %lld}, "
      "\"digest\": \"%s\"}\n",
      static_cast<long long>(report.counts.steps_executed),
      static_cast<long long>(report.counts.simulations),
      static_cast<long long>(report.counts.eval_batches),
      static_cast<long long>(report.counts.corpus_admissions),
      report.counts.digest.c_str());
  std::printf(
      "{\"context\": {\"build_type\": \"%s\", \"nproc\": %u, \"workload\": \"%s\", "
      "\"seed\": %llu, \"mission_base\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"threads\": {\"workers\": %d, \"eval\": %d, \"sim\": %d}, "
      "\"steal_s\": %.2f, \"steal_share\": %.4f, \"loadavg_start\": %s, "
      "\"loadavg_end\": %s}}\n",
      PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
      options.workload.c_str(),
      static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(report.mission_base), options.seconds,
      options.trace ? 1 : 0, report.workers, report.eval_threads, report.sim_threads,
      static_cast<double>(steal) / ticks,
      total > 0 ? static_cast<double>(steal) / static_cast<double>(total) : 0.0,
      load0.c_str(), read_loadavg().c_str());

  std::ostringstream metrics;
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    metrics << (i > 0 ? ", " : "") << '"' << m.name << "\": {\"value\": " << value
            << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n",
              report.correct ? "true" : "false", report.attempted, report.failed,
              metrics.str().c_str());
  return 0;
}
