#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"
#include "progress.h"
#include "replica.h"
#include "sim/mission.h"
#include "sim/simulator.h"
#include "swarm/flocking_system.h"
#include "swarm/vasarhelyi.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fz = swarmfuzz::fuzz;
namespace sim = swarmfuzz::sim;
namespace sw = swarmfuzz::swarm;

enum class Kind { kTable1Cell, kInteractive, kEvolutionary, kLargeSwarm };

struct WorkloadDef {
  const char* name;
  Kind kind;
  int workers;       // closed-loop clients, one mission in flight each
  int eval_threads;  // EvalPool width per client
  int sim_threads;   // TickPool width per simulation
  int passes;        // timed passes per run (see timed_passes)
  // Controller calls per progress window (see progress.h): under 1 ms of
  // work (about 1.8 us per 10-drone tick, 0.3 ms per 500-drone tick).
  std::int64_t progress_stride;
  // Mission runs per second on the reference host (4-vCPU x86-64), set-ups
  // included, used only to size the fixed mission set: missions =
  // max(min_missions, seconds x this / passes).
  double reference_runs_per_s;
  int min_missions;
  std::uint64_t default_mission_base;
};

constexpr WorkloadDef kWorkloads[] = {
    {"table1_cell", Kind::kTable1Cell, 2, 1, 1, 6, 128, 3.4, 14, 0x7AB1E1C311ull},
    {"interactive_fuzz", Kind::kInteractive, 1, 2, 1, 6, 128, 3.3, 13, 0x1F0221ull},
    {"evolutionary", Kind::kEvolutionary, 1, 2, 1, 8, 128, 10.0, 30, 0xE7F022ull},
    {"large_swarm", Kind::kLargeSwarm, 1, 1, 2, 8, 2, 4.2, 13, 0x1A4C5ull},
};

// A timed run flies its fixed mission set in several passes. Each pass sets
// the workload up from scratch and flies the whole set in its own seeded
// order, so the passes of one mission fall seconds apart. The host's vCPUs
// switch between a fast and a ~1.7x slower speed every fraction of a second,
// as other tenants load their hardware threads, and in busy minutes the slow
// speed dominates. A mission's latency is therefore built from its progress
// windows (progress.h): the sum, over windows, of the window's fastest pass.
// setup_s is the median of the passes' set-ups.

// Canonical metric lists: every run prints all of one list, in this order.
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kEndToEnd[] = {
    {"missions_per_s", "1/s"},        {"mission_latency_p50_s", "s"},
    {"mission_latency_tail_s", "s"},  {"setup_s", "s"},
    {"peak_rss_mb", "MB"},            {"success_rate", "ratio"},
};
constexpr MetricDef kPerLayer[] = {
    {"sim.steps_executed", "count"},
    {"sim.steps_reused", "count"},
    {"fuzz.prefix_reuse_ratio", "ratio"},
    {"sim.host_s_per_step", "s"},
    {"sim.clean_run.busy_s", "s"},
    {"sim.run.busy_s", "s"},
    {"swarm.controller.busy_s", "s"},
    {"swarm.controller.calls", "count"},
    {"swarm.controller.share", "ratio"},
    {"fuzz.objective.busy_s", "s"},
    {"fuzz.objective.batches", "count"},
    {"fuzz.objective.requests", "count"},
    {"fuzz.objective.s_per_sim", "s"},
    {"fuzz.optimize.self_s", "s"},
    {"fuzz.iterations", "count"},
    {"fuzz.simulations", "count"},
    {"fuzz.memo_hits", "count"},
    {"fuzz.schedule_seeds.busy_s", "s"},
    {"fuzz.corpus_admissions", "count"},
    {"fuzz.novelty_bins", "count"},
    {"fuzz.corpus_size", "count"},
    {"fuzz.eval_batches", "count"},
    {"fuzz.campaign.worker_utilization", "ratio"},
    {"fuzz.spv_yield", "ratio"},
    {"trace.overhead", "ratio"},
};

using Values = std::map<std::string, double>;

void emit(Report& report, const Values& values, std::span<const MetricDef> defs) {
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    report.metrics.push_back(
        Metric{def.name, it != values.end() ? it->second : 0.0, def.unit});
  }
}

const WorkloadDef& find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

int mission_count(const WorkloadDef& def, double seconds) {
  return std::max(def.min_missions,
                  static_cast<int>(std::lround(seconds * def.reference_runs_per_s /
                                               def.passes)));
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Highest whole percentile whose nearest rank leaves at least ten samples
// above it.
int tail_percentile(int n) {
  for (int p = 99; p > 50; --p) {
    const int rank = static_cast<int>(std::ceil(p * n / 100.0));
    if (n - rank >= 10) return p;
  }
  return 50;
}

double nearest_rank(std::vector<double> v, int percentile) {
  std::sort(v.begin(), v.end());
  const int n = static_cast<int>(v.size());
  const int rank = std::max(1, static_cast<int>(std::ceil(percentile * n / 100.0)));
  return v[static_cast<std::size_t>(rank - 1)];
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The order in which pass `pass` issues the fixed mission set: a
// Fisher-Yates shuffle driven by the run seed and the pass.
std::vector<int> issue_order(int n, std::uint64_t seed, int pass) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::uint64_t state = fz::mission_seed(seed, pass, 0);
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(splitmix64(state) % static_cast<std::uint64_t>(i + 1));
    std::swap(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(j)]);
  }
  return order;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Runs `body(worker)` on `workers` threads and joins them; the first
// exception any worker raised is rethrown after every thread has ended.
void run_workers(int workers, const std::function<void(int)>& body) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  {
    std::vector<std::jthread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        try {
          body(w);
        } catch (...) {
          errors[static_cast<std::size_t>(w)] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// Claims issue positions from a shared cursor: each worker runs its next
// mission as soon as the previous one completes (a closed loop).
class Cursor {
 public:
  explicit Cursor(const std::vector<int>& order) : order_(order) {}
  // Next mission index, or -1 when the set is exhausted.
  int next() {
    const std::size_t k = next_.fetch_add(1, std::memory_order_relaxed);
    return k < order_.size() ? order_[k] : -1;
  }

 private:
  const std::vector<int>& order_;
  std::atomic<std::size_t> next_{0};
};

std::string format(const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

// -------------------------------------------------------------- timed run --

// What the timed passes measured.
struct Timings {
  std::vector<double> latency;  // per mission: sum of its windows' fastest passes
  std::vector<double> setups;   // one per pass
  double wall = 0.0;            // timed phases, summed over passes
};

// Runs `passes` timed passes of `workload` (see kWorkloads). Every pass must
// repeat the first pass's outcome for every mission; a mission that does not
// counts as failed. Returns the last pass's state; `first` receives the
// first pass's missions.
template <typename Workload>
std::unique_ptr<typename Workload::State> timed_passes(
    const Workload& workload, int passes, std::uint64_t seed,
    std::vector<typename Workload::Mission>& first, Timings& timings, Report& report) {
  const int n = workload.missions();
  std::vector<Windows> windows(static_cast<std::size_t>(n));
  std::unique_ptr<typename Workload::State> state;
  for (int pass = 0; pass < passes; ++pass) {
    state.reset();
    const std::int64_t start = now_ns();
    state = workload.setup();
    timings.setups.push_back(seconds_between(start, now_ns()));
    std::vector<typename Workload::Mission> flown;
    timings.wall += workload.fly(*state, issue_order(n, seed, pass), flown);
    for (int i = 0; i < n; ++i) {
      const auto& m = flown[static_cast<std::size_t>(i)];
      windows[static_cast<std::size_t>(i)].add(m.windows);
      if (pass > 0 && !Workload::same(first[static_cast<std::size_t>(i)], m)) {
        ++report.failed;
        report.notes.push_back(
            format("mission %d: pass %d differs from pass 0", i, pass));
      }
    }
    if (pass == 0) first = std::move(flown);
  }
  int unaligned = 0;
  for (const Windows& w : windows) {
    bool aligned = true;
    timings.latency.push_back(w.fastest(aligned));
    unaligned += aligned ? 0 : 1;
  }
  if (unaligned > 0) {
    report.notes.push_back(format(
        "%d mission(s) made different numbers of controller calls in different "
        "passes; their latency is their fastest whole pass",
        unaligned));
  }
  report.attempted = n * passes;
  return state;
}

// The end-to-end metrics of a timed run.
void emit_end_to_end(const Timings& timings, int workers, double success_rate,
                     Report& report) {
  const int passes = static_cast<int>(timings.setups.size());
  const int n = static_cast<int>(timings.latency.size());
  const double sum = std::accumulate(timings.latency.begin(), timings.latency.end(), 0.0);
  const int tail = tail_percentile(n);
  report.notes.push_back(format(
      "latencies are each mission's sum over progress windows of the fastest of "
      "%d passes; mission_latency_tail_s "
      "is p%d of %d missions; missions_per_s = %d worker(s) x %d missions / %.4f s "
      "of summed latency (wall-clock rate over all passes: %.4f missions/s); "
      "setup_s is the median of %d set-ups",
      passes, tail, n, workers, n, sum, n * passes / timings.wall, passes));
  emit(report,
       Values{{"missions_per_s", workers * n / sum},
              {"mission_latency_p50_s", median(timings.latency)},
              {"mission_latency_tail_s", nearest_rank(timings.latency, tail)},
              {"setup_s", median(timings.setups)},
              {"peak_rss_mb", peak_rss_mb()},
              {"success_rate", success_rate}},
       kEndToEnd);
}

// Paired timing for trace.overhead: runs `untraced` and `traced` back to
// back, alternating which goes first, and adds each one's duration to its
// sum, so host drift lands on both sides alike.
struct PairedSums {
  double untraced_s = 0.0;
  double traced_s = 0.0;
};

void run_pair(bool traced_first, const std::function<void()>& untraced,
              const std::function<void()>& traced, PairedSums& sums) {
  for (int half = 0; half < 2; ++half) {
    const bool tracing = (half == 0) == traced_first;
    const std::int64_t start = now_ns();
    (tracing ? traced : untraced)();
    (tracing ? sums.traced_s : sums.untraced_s) += seconds_between(start, now_ns());
  }
}

void note_overhead(const PairedSums& sums, Values& v, Report& report) {
  v["trace.overhead"] = sums.traced_s / sums.untraced_s;
  report.notes.push_back(format(
      "trace.overhead = traced / untraced time over back-to-back pairs: %.4f s / %.4f s",
      sums.traced_s, sums.untraced_s));
}

// Sums the controllers' accumulators and notes how they split by the kind
// of the span that was open when the controller ran.
Accumulated sum_controllers(const std::vector<const TimedController*>& controllers,
                            Report& report) {
  Accumulated total;
  std::string split;
  for (int k = 0; k < kSpanKinds; ++k) {
    const auto kind = static_cast<SpanKind>(k);
    Accumulated a;
    for (const TimedController* c : controllers) {
      a.busy_s += c->accumulated(kind).busy_s;
      a.calls += c->accumulated(kind).calls;
    }
    if (a.calls == 0) continue;
    total.busy_s += a.busy_s;
    total.calls += a.calls;
    split += format(" %s %.4f s in %lld calls;", std::string(span_name(kind)).c_str(),
                    a.busy_s, static_cast<long long>(a.calls));
  }
  report.notes.push_back("swarm.controller by parent span:" + split);
  return total;
}

void write_trace(const Options& options, const std::vector<const Tracer*>& tracers,
                 Report& report) {
  const std::string dir = ".bench_out";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/trace-" + options.workload + "-" +
                           std::to_string(options.seed) + ".jsonl";
  write_spans(path, tracers);
  report.notes.push_back("spans written to " + path);
}

sim::MissionConfig mission_config(const WorkloadDef& w) {
  sim::MissionConfig config;
  if (w.kind == Kind::kLargeSwarm) {
    config.num_drones = 500;
    config.max_time = 30.0;
    // Grow the spawn box with sqrt(N) so spawn density matches the paper's
    // 10-drone missions (as examples/large_swarm_scaling does).
    config.spawn_range = 2.2 * config.min_spawn_separation * std::sqrt(500.0);
  } else {
    config.num_drones = 10;
  }
  return config;
}

fz::FuzzerConfig fuzzer_config(const WorkloadDef& w) {
  fz::FuzzerConfig config;
  config.spoof_distance = 10.0;
  config.mission_budget = 60;
  config.eval_threads = w.eval_threads;
  config.sim.sim_threads = w.sim_threads;
  config.evolution.batch_size = 8;
  return config;
}

fz::FuzzerKind fuzzer_kind(const WorkloadDef& w) {
  return w.kind == Kind::kEvolutionary ? fz::FuzzerKind::kEvolutionary
                                       : fz::FuzzerKind::kSwarmFuzz;
}

// ---------------------------------------------------------------- fuzzing --

struct FuzzMission {
  double latency_s = 0.0;
  std::vector<double> windows;  // progress windows, seconds
  std::uint64_t mission_seed = 0;
  fz::FuzzResult result;
  std::string fault;  // non-empty when the mission faulted
};

struct FuzzState {
  std::vector<sim::MissionSpec> specs;                      // index order
  std::vector<std::unique_ptr<fz::MissionRunner>> runners;  // table1_cell
  std::unique_ptr<fz::Fuzzer> fuzzer;                       // one-at-a-time
  std::vector<std::shared_ptr<ProgressController>> progress;  // per client
};

class FuzzWorkload {
 public:
  using State = FuzzState;
  using Mission = FuzzMission;

  FuzzWorkload(const WorkloadDef& def, const Options& options, std::uint64_t base)
      : def_(def),
        mission_config_(mission_config(def)),
        base_(base),
        missions_(mission_count(def, options.seconds)) {
    campaign_.mission = mission_config_;
    campaign_.fuzzer = fuzzer_config(def);
    campaign_.kind = fuzzer_kind(def);
    campaign_.num_missions = missions_ + 1;  // + the warm-up mission
    campaign_.base_seed = base_;
    // A fault is terminal, so it reaches `failed` instead of being retried
    // on another mission.
    campaign_.max_fault_retries = 0;
    config_ = def.kind == Kind::kTable1Cell
                  ? fz::worker_fuzzer_config(campaign_, def.workers)
                  : campaign_.fuzzer;
  }

  [[nodiscard]] int missions() const noexcept { return missions_; }
  [[nodiscard]] const fz::FuzzerConfig& config() const noexcept { return config_; }

  // Generates the whole mission set, builds the clients and runs one
  // warm-up mission (index `missions()` or past it, outside the timed set)
  // on each.
  [[nodiscard]] std::unique_ptr<FuzzState> setup() const {
    auto state = std::make_unique<FuzzState>();
    for (int i = 0; i <= missions_; ++i) {
      state->specs.push_back(sim::generate_mission(mission_config_, seed_of(i)));
    }
    if (def_.kind == Kind::kTable1Cell) {
      // Each runner asks the factory for its controller once, as it is built.
      fz::CampaignConfig campaign = campaign_;
      campaign.controller_factory = [&] { return new_progress(*state); };
      for (int w = 0; w < def_.workers; ++w) {
        state->runners.push_back(std::make_unique<fz::MissionRunner>(campaign, config_));
      }
      run_workers(def_.workers,
                  [&](int w) { (void)state->runners[static_cast<std::size_t>(w)]->run(missions_); });
    } else {
      // Warm up on the first mission past the set whose clean run is
      // collision-free, so the warm-up goes through the search.
      state->fuzzer = fz::make_fuzzer(campaign_.kind, config_, new_progress(*state));
      for (int i = missions_; state->fuzzer->fuzz(state->specs.back()).clean_run_failed;) {
        state->specs.back() = sim::generate_mission(mission_config_, seed_of(++i));
      }
    }
    return state;
  }

  // Flies mission `index` on worker `worker`'s client, untraced.
  [[nodiscard]] FuzzMission fly_one(FuzzState& state, int worker, int index) const {
    FuzzMission m;
    ProgressController& progress = *state.progress[static_cast<std::size_t>(worker)];
    progress.begin();
    const std::int64_t t0 = now_ns();
    if (def_.kind == Kind::kTable1Cell) {
      const fz::MissionOutcome outcome =
          state.runners[static_cast<std::size_t>(worker)]->run(index);
      const std::int64_t t1 = now_ns();
      m.latency_s = seconds_between(t0, t1);
      m.windows = progress.windows(t0, t1);
      m.mission_seed = outcome.mission_seed;
      m.result = outcome.result;
      if (outcome.fault_attempts > 0 || (outcome.fault != sim::FaultKind::kNone &&
                                         outcome.fault != sim::FaultKind::kCleanRunFailed)) {
        m.fault = outcome.fault_detail.empty() ? "fault" : outcome.fault_detail;
      }
      return m;
    }
    m.mission_seed = seed_of(index);
    try {
      m.result = state.fuzzer->fuzz(state.specs[static_cast<std::size_t>(index)]);
    } catch (const std::exception& e) {
      m.fault = e.what();
    }
    const std::int64_t t1 = now_ns();
    m.latency_s = seconds_between(t0, t1);
    m.windows = progress.windows(t0, t1);
    return m;
  }

  // One pass: every mission of the set, issued in `order`. Returns its wall
  // time.
  double fly(FuzzState& state, const std::vector<int>& order,
             std::vector<FuzzMission>& out) const {
    out.assign(static_cast<std::size_t>(missions_), FuzzMission{});
    Cursor cursor(order);
    const std::int64_t start = now_ns();
    run_workers(def_.workers, [&](int w) {
      for (int i = cursor.next(); i >= 0; i = cursor.next()) {
        out[static_cast<std::size_t>(i)] = fly_one(state, w, i);
      }
    });
    return seconds_between(start, now_ns());
  }

  // Whether two flights of one mission did exactly the same work.
  [[nodiscard]] static bool same(const FuzzMission& a, const FuzzMission& b) {
    return a.fault == b.fault && a.mission_seed == b.mission_seed &&
           fz::deterministic_equal(a.result, b.result) &&
           a.result.sim_steps_executed == b.result.sim_steps_executed &&
           a.result.eval_batches == b.result.eval_batches;
  }

  // The spec a mission was fuzzed on (campaign missions may be re-drawn).
  [[nodiscard]] sim::MissionSpec spec_of(const FuzzState& state, int index,
                                         const FuzzMission& m) const {
    const sim::MissionSpec& planned = state.specs[static_cast<std::size_t>(index)];
    return m.mission_seed == planned.seed
               ? planned
               : sim::generate_mission(mission_config_, m.mission_seed);
  }

  // Output checks: faults, SPV replays, digest and exact-repeat counts.
  // `tracer` (optional) records each replay as a sim.run span.
  void check(const FuzzState& state, const std::vector<FuzzMission>& missions,
             Report& report, Tracer* tracer) const {
    Digest digest;
    for (int i = 0; i < missions_; ++i) {
      const FuzzMission& m = missions[static_cast<std::size_t>(i)];
      if (!m.fault.empty()) {
        ++report.failed;
        report.notes.push_back(format("mission %d faulted: %s", i, m.fault.c_str()));
        continue;
      }
      if (m.result.found) {
        std::string error;
        {
          std::optional<Tracer::Scope> span;
          if (tracer != nullptr) span.emplace(*tracer, SpanKind::kSimRun, i);
          error = replay_spv(spec_of(state, i, m), m.result, config_);
        }
        if (!error.empty()) {
          ++report.failed;
          report.notes.push_back(
              format("mission %d: reported SPV does not replay: %s", i, error.c_str()));
        }
      }
      digest.add(m.mission_seed);
      digest.add(m.result);
      report.counts.steps_executed += m.result.sim_steps_executed;
      report.counts.simulations += m.result.simulations;
      report.counts.eval_batches += m.result.eval_batches;
      report.counts.corpus_admissions += m.result.corpus_admissions;
    }
    report.counts.digest = digest.hex();
  }

 private:
  [[nodiscard]] std::uint64_t seed_of(int index) const {
    return fz::mission_seed(base_, index, 0);
  }

  // A progress clock around a Vasarhelyi controller, kept in `state`.
  [[nodiscard]] std::shared_ptr<ProgressController> new_progress(FuzzState& state) const {
    state.progress.push_back(std::make_shared<ProgressController>(
        std::make_shared<sw::VasarhelyiController>(), def_.progress_stride));
    return state.progress.back();
  }

  const WorkloadDef& def_;
  sim::MissionConfig mission_config_;
  std::uint64_t base_;
  int missions_;
  fz::CampaignConfig campaign_;
  fz::FuzzerConfig config_;
};

// One traced client: its own decorated controller, tracer and replica.
struct TraceLane {
  explicit TraceLane(const fz::FuzzerConfig& config)
      : controller(std::make_shared<TimedController>(
            std::make_shared<sw::VasarhelyiController>())),
        tracer(controller.get()),
        replica(config, controller, tracer) {}

  std::shared_ptr<TimedController> controller;
  Tracer tracer;
  ReplicaSwarmFuzzer replica;
  ReplicaCounters counters;
  PairedSums sums;
};

struct SearchTally {
  int found = 0;
  int fuzzable = 0;
  std::int64_t attempts = 0;
};

SearchTally tally(const std::vector<FuzzMission>& missions) {
  SearchTally t;
  for (const FuzzMission& m : missions) {
    if (!m.fault.empty() || m.result.clean_run_failed) continue;
    ++t.fuzzable;
    t.found += m.result.found ? 1 : 0;
    t.attempts += m.result.attempts_tried;
  }
  return t;
}

Report run_fuzz(const WorkloadDef& def, const Options& options, std::uint64_t base) {
  const FuzzWorkload workload(def, options, base);
  const int n = workload.missions();
  Report report;

  if (!options.trace) {
    Timings timings;
    std::vector<FuzzMission> first;
    const std::unique_ptr<FuzzState> state =
        timed_passes(workload, def.passes, options.seed, first, timings, report);
    workload.check(*state, first, report, nullptr);
    const SearchTally t = tally(first);
    emit_end_to_end(timings, def.workers,
                    t.fuzzable > 0 ? double(t.found) / t.fuzzable : 0.0, report);
    report.correct = report.failed == 0;
    return report;
  }

  // Traced run: one untraced pass for the campaign and search figures, then
  // a paired pass that flies every mission untraced and traced back to back.
  const std::unique_ptr<FuzzState> state = workload.setup();
  const std::vector<int> order = issue_order(n, options.seed, 0);
  std::vector<FuzzMission> plain;
  const double wall = workload.fly(*state, order, plain);
  report.attempted = n;
  double busy = 0.0;
  for (const FuzzMission& m : plain) busy += m.latency_s;
  const SearchTally search = tally(plain);

  Values v;
  std::vector<fz::FuzzResult> traced(static_cast<std::size_t>(n));
  double mission_busy = 0.0;
  Accumulated controller;
  if (def.kind == Kind::kEvolutionary) {
    // E_Fuzz's search loop is internal: only the mission span and the
    // controller accumulators can be recorded from outside.
    const auto timed = std::make_shared<TimedController>(
        std::make_shared<sw::VasarhelyiController>());
    Tracer tracer(timed.get());
    const std::unique_ptr<fz::Fuzzer> fuzzer =
        fz::make_fuzzer(fz::FuzzerKind::kEvolutionary, workload.config(), timed);
    PairedSums sums;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const int i = order[k];
      const sim::MissionSpec& spec = state->specs[static_cast<std::size_t>(i)];
      if (!plain[static_cast<std::size_t>(i)].fault.empty()) continue;
      run_pair(
          k % 2 == 1, [&] { (void)state->fuzzer->fuzz(spec); },
          [&] {
            const Tracer::Scope span(tracer, SpanKind::kMission, i);
            traced[static_cast<std::size_t>(i)] = fuzzer->fuzz(spec);
          },
          sums);
    }
    mission_busy = tracer.busy_s(SpanKind::kMission);
    controller = sum_controllers({timed.get()}, report);
    note_overhead(sums, v, report);
    workload.check(*state, plain, report, &tracer);
    v["sim.run.busy_s"] = tracer.busy_s(SpanKind::kSimRun);
    write_trace(options, {&tracer}, report);
    report.notes.push_back(
        "evolutionary: E_Fuzz's loop is internal, so only mission spans, the "
        "controller accumulators and FuzzResult counts are measured; "
        "sim.host_s_per_step, sim.clean_run.busy_s, fuzz.objective.*, "
        "fuzz.memo_hits and fuzz.schedule_seeds.busy_s await in-program "
        "tracing and print 0");
  } else {
    std::vector<std::unique_ptr<TraceLane>> lanes;
    for (int w = 0; w < def.workers; ++w) {
      lanes.push_back(std::make_unique<TraceLane>(workload.config()));
    }
    Cursor cursor(order);
    run_workers(def.workers, [&](int w) {
      TraceLane& lane = *lanes[static_cast<std::size_t>(w)];
      int flown = 0;
      for (int i = cursor.next(); i >= 0; i = cursor.next()) {
        const FuzzMission& m = plain[static_cast<std::size_t>(i)];
        if (!m.fault.empty()) continue;
        const sim::MissionSpec spec = workload.spec_of(*state, i, m);
        run_pair(
            flown++ % 2 == 1, [&] { (void)workload.fly_one(*state, w, i); },
            [&] {
              traced[static_cast<std::size_t>(i)] = lane.replica.fuzz(spec, i, lane.counters);
            },
            lane.sums);
      }
    });
    workload.check(*state, plain, report, &lanes.front()->tracer);
    double clean = 0.0, objective = 0.0, optimize_self = 0.0, schedule = 0.0,
           replays = 0.0;
    ReplicaCounters counters;
    PairedSums sums;
    std::vector<const Tracer*> tracers;
    std::vector<const TimedController*> controllers;
    for (const auto& lane : lanes) {
      const Tracer& t = lane->tracer;
      mission_busy += t.busy_s(SpanKind::kMission);
      clean += t.busy_s(SpanKind::kCleanRun);
      objective += t.busy_s(SpanKind::kObjectiveBatch);
      optimize_self += t.self_s(SpanKind::kOptimize);
      schedule += t.busy_s(SpanKind::kScheduleSeeds);
      replays += t.busy_s(SpanKind::kSimRun);
      controllers.push_back(lane->controller.get());
      counters.memo_hits += lane->counters.memo_hits;
      counters.objective_batches += lane->counters.objective_batches;
      counters.objective_requests += lane->counters.objective_requests;
      sums.traced_s += lane->sums.traced_s;
      sums.untraced_s += lane->sums.untraced_s;
      tracers.push_back(&lane->tracer);
    }
    controller = sum_controllers(controllers, report);
    note_overhead(sums, v, report);
    write_trace(options, tracers, report);
    std::int64_t steps = 0, objective_sims = 0;
    for (const fz::FuzzResult& r : traced) {
      steps += r.sim_steps_executed;
      objective_sims += std::max(r.simulations - 1, 0);
    }
    v["sim.clean_run.busy_s"] = clean;
    v["sim.run.busy_s"] = replays;
    v["sim.host_s_per_step"] = steps > 0 ? (clean + objective) / double(steps) : 0.0;
    v["fuzz.objective.busy_s"] = objective;
    v["fuzz.objective.batches"] = double(counters.objective_batches);
    v["fuzz.objective.requests"] = double(counters.objective_requests);
    v["fuzz.objective.s_per_sim"] = objective_sims > 0 ? objective / double(objective_sims) : 0.0;
    v["fuzz.optimize.self_s"] = optimize_self;
    v["fuzz.memo_hits"] = double(counters.memo_hits);
    v["fuzz.schedule_seeds.busy_s"] = schedule;
  }

  // The traced flights must reproduce fuzz() on every mission.
  int mismatches = 0;
  for (int i = 0; i < n; ++i) {
    const FuzzMission& m = plain[static_cast<std::size_t>(i)];
    if (m.fault.empty() &&
        !fz::deterministic_equal(m.result, traced[static_cast<std::size_t>(i)])) {
      ++mismatches;
      report.notes.push_back(format("mission %d: traced flight differs from fuzz()", i));
    }
  }
  report.failed += mismatches;
  report.correct = report.failed == 0;
  report.notes.push_back(
      format("traced flights match fuzz() on %d of %d missions", n - mismatches, n));

  std::int64_t executed = 0, reused = 0, iterations = 0, simulations = 0,
               admissions = 0, bins = 0, corpus = 0, batches = 0;
  for (const fz::FuzzResult& r : traced) {
    executed += r.sim_steps_executed;
    reused += r.prefix_steps_reused;
    iterations += r.iterations;
    simulations += r.simulations;
    admissions += r.corpus_admissions;
    bins += r.novelty_bins;
    corpus += r.corpus_size;
    batches += r.eval_batches;
  }
  v["sim.steps_executed"] = double(executed);
  v["sim.steps_reused"] = double(reused);
  v["fuzz.prefix_reuse_ratio"] =
      executed + reused > 0 ? double(reused) / double(executed + reused) : 0.0;
  v["swarm.controller.busy_s"] = controller.busy_s;
  v["swarm.controller.calls"] = double(controller.calls);
  v["swarm.controller.share"] =
      mission_busy > 0.0 ? controller.busy_s / (mission_busy * def.eval_threads) : 0.0;
  v["fuzz.iterations"] = double(iterations);
  v["fuzz.simulations"] = double(simulations);
  v["fuzz.corpus_admissions"] = double(admissions);
  v["fuzz.novelty_bins"] = double(bins);
  v["fuzz.corpus_size"] = double(corpus);
  v["fuzz.eval_batches"] = double(batches);
  v["fuzz.campaign.worker_utilization"] = busy / (def.workers * wall);
  v["fuzz.spv_yield"] =
      search.attempts > 0 ? double(search.found) / double(search.attempts) : 0.0;
  emit(report, v, kPerLayer);
  return report;
}

// ------------------------------------------------------------ large swarm --

struct SwarmState {
  std::vector<sim::MissionSpec> specs;
  std::unique_ptr<sim::Simulator> simulator;
  std::shared_ptr<ProgressController> progress;
  std::unique_ptr<sw::FlockingControlSystem> system;  // around `progress`
};

struct SwarmMission {
  double latency_s = 0.0;
  std::vector<double> windows;  // progress windows, seconds; timed flights only
  std::int64_t steps = 0;
  bool collided = false;
  std::uint64_t digest = 0;
};

std::uint64_t digest_of(const sim::RunResult& run) {
  Digest d;
  d.add(run);
  return d.value();
}

class SwarmWorkload {
 public:
  using State = SwarmState;
  using Mission = SwarmMission;

  SwarmWorkload(const WorkloadDef& def, const Options& options, std::uint64_t base)
      : def_(def),
        mission_config_(mission_config(def)),
        base_(base),
        missions_(mission_count(def, options.seconds)) {
    sim_config_.sim_threads = def.sim_threads;
  }

  [[nodiscard]] int missions() const noexcept { return missions_; }

  // Generates the mission set, builds the simulator (and its TickPool) and
  // flies one warm-up mission outside the set: the first one past it that
  // flies its whole time without a collision.
  [[nodiscard]] std::unique_ptr<SwarmState> setup() const {
    auto s = std::make_unique<SwarmState>();
    for (int i = 0; i < missions_; ++i) s->specs.push_back(spec_of(i));
    s->simulator = std::make_unique<sim::Simulator>(sim_config_);
    s->progress = std::make_shared<ProgressController>(
        std::make_shared<sw::VasarhelyiController>(), def_.progress_stride);
    s->system = std::make_unique<sw::FlockingControlSystem>(s->progress);
    for (int i = missions_; s->simulator->run(spec_of(i), *s->system).collided; ++i) {
    }
    return s;
  }

  // Flies mission `index` on `system`; `progress` (optional) is the clock
  // inside `system`, whose windows are then recorded.
  [[nodiscard]] static SwarmMission fly_one(const SwarmState& state,
                                            sw::FlockingControlSystem& system, int index,
                                            ProgressController* progress = nullptr) {
    if (progress != nullptr) progress->begin();
    const std::int64_t t0 = now_ns();
    const sim::RunResult run =
        state.simulator->run(state.specs[static_cast<std::size_t>(index)], system);
    const std::int64_t t1 = now_ns();
    return SwarmMission{
        .latency_s = seconds_between(t0, t1),
        .windows = progress != nullptr ? progress->windows(t0, t1) : std::vector<double>{},
        .steps = run.steps_executed,
        .collided = run.collided,
        .digest = digest_of(run)};
  }

  double fly(SwarmState& state, const std::vector<int>& order,
             std::vector<SwarmMission>& out) const {
    out.assign(static_cast<std::size_t>(missions_), SwarmMission{});
    const std::int64_t start = now_ns();
    for (const int i : order) {
      out[static_cast<std::size_t>(i)] = fly_one(state, *state.system, i, state.progress.get());
    }
    return seconds_between(start, now_ns());
  }

  [[nodiscard]] static bool same(const SwarmMission& a, const SwarmMission& b) {
    return a.digest == b.digest;
  }

  // Output checks: the tick pool must not change results, so mission 0 is
  // flown again serially and compared bit for bit; then the digest and the
  // exact-repeat counts.
  void check(const SwarmState& state, const std::vector<SwarmMission>& missions,
             Report& report) const {
    sim::SimulationConfig serial = sim_config_;
    serial.sim_threads = 1;
    const sim::Simulator simulator(serial);
    const auto system = swarmfuzz::swarm::make_vasarhelyi_system();
    if (digest_of(simulator.run(state.specs.front(), *system)) != missions.front().digest) {
      ++report.failed;
      report.notes.push_back("mission 0: serial replay differs from the threaded run");
    }
    Digest digest;
    for (const SwarmMission& m : missions) {
      digest.add(m.digest);
      report.counts.steps_executed += m.steps;
    }
    report.counts.simulations = missions_;
    report.counts.digest = digest.hex();
  }

 private:
  [[nodiscard]] sim::MissionSpec spec_of(int index) const {
    return sim::generate_mission(mission_config_, fz::mission_seed(base_, index, 0));
  }

  const WorkloadDef& def_;
  sim::MissionConfig mission_config_;
  sim::SimulationConfig sim_config_;
  std::uint64_t base_;
  int missions_;
};

Report run_large_swarm(const WorkloadDef& def, const Options& options,
                       std::uint64_t base) {
  const SwarmWorkload workload(def, options, base);
  const int n = workload.missions();
  Report report;
  report.notes.push_back(
      "large_swarm: success_rate is the share of missions flown without a "
      "collision (no fuzzing on this workload)");

  if (!options.trace) {
    Timings timings;
    std::vector<SwarmMission> first;
    const std::unique_ptr<SwarmState> state =
        timed_passes(workload, def.passes, options.seed, first, timings, report);
    workload.check(*state, first, report);
    const auto clear = std::count_if(first.begin(), first.end(),
                                     [](const SwarmMission& m) { return !m.collided; });
    emit_end_to_end(timings, def.workers, double(clear) / n, report);
    report.correct = report.failed == 0;
    return report;
  }

  // Traced run: every mission flown untraced and traced back to back.
  report.notes.push_back(
      "large_swarm: no fuzzing, so sim.clean_run.busy_s, sim.steps_reused and "
      "the fuzz.* layers are bypassed and print 0");
  const std::unique_ptr<SwarmState> state = workload.setup();
  auto timed = std::make_shared<TimedController>(
      std::make_shared<sw::VasarhelyiController>());
  Tracer tracer(timed.get());
  sw::FlockingControlSystem system(timed);
  const std::vector<int> order = issue_order(n, options.seed, 0);
  std::vector<SwarmMission> plain(static_cast<std::size_t>(n));
  std::vector<SwarmMission> traced(static_cast<std::size_t>(n));
  PairedSums sums;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const int i = order[k];
    run_pair(
        k % 2 == 1,
        [&] { plain[static_cast<std::size_t>(i)] = SwarmWorkload::fly_one(*state, *state->system, i); },
        [&] {
          const Tracer::Scope mission_span(tracer, SpanKind::kMission, i);
          const Tracer::Scope run_span(tracer, SpanKind::kSimRun, i);
          traced[static_cast<std::size_t>(i)] = SwarmWorkload::fly_one(*state, system, i);
        },
        sums);
  }
  report.attempted = n;
  workload.check(*state, plain, report);
  int mismatches = 0;
  for (int i = 0; i < n; ++i) {
    if (!SwarmWorkload::same(traced[static_cast<std::size_t>(i)],
                             plain[static_cast<std::size_t>(i)])) {
      ++mismatches;
    }
  }
  report.failed += mismatches;
  report.correct = report.failed == 0;
  report.notes.push_back(format("traced flights match the plain runs on %d of %d missions",
                                n - mismatches, n));
  write_trace(options, {&tracer}, report);

  const double run_busy = tracer.busy_s(SpanKind::kSimRun);
  const Accumulated controller = sum_controllers({timed.get()}, report);
  Values v;
  note_overhead(sums, v, report);
  v["sim.steps_executed"] = double(report.counts.steps_executed);
  v["sim.host_s_per_step"] = run_busy / double(report.counts.steps_executed);
  v["sim.run.busy_s"] = run_busy;
  v["swarm.controller.busy_s"] = controller.busy_s;
  v["swarm.controller.calls"] = double(controller.calls);
  v["swarm.controller.share"] = controller.busy_s / run_busy;
  emit(report, v, kPerLayer);
  return report;
}

}  // namespace

bool is_workload(const std::string& name) {
  return std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const WorkloadDef& w) { return name == w.name; });
}

Report run_workload(const Options& options) {
  const WorkloadDef& def = find_workload(options.workload);
  const std::uint64_t base =
      options.mission_base != 0 ? options.mission_base : def.default_mission_base;
  Report report = def.kind == Kind::kLargeSwarm ? run_large_swarm(def, options, base)
                                                : run_fuzz(def, options, base);
  report.workers = def.workers;
  report.eval_threads = def.eval_threads;
  report.sim_threads = def.sim_threads;
  report.mission_base = base;
  return report;
}

}  // namespace perfbench
