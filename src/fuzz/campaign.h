// Campaign runner: evaluates a fuzzer over many randomized missions for one
// swarm configuration (paper section V-B runs 100 missions per
// configuration), and aggregates the metrics behind every table and figure.
//
// Missions are embarrassingly parallel; the runner spreads them over a
// worker pool. Results are bit-for-bit deterministic in (config, base_seed)
// regardless of thread count, because every mission derives its own streams.
// The single exception is MissionOutcome::wall_time_s, which is measured.
//
// Durability: when `checkpoint_path` is set, every completed mission is
// appended to a JSONL checkpoint (write + flush per record, CRC-framed). A
// restarted campaign replays the file, skips finished mission indices, and
// reconstructs a CampaignResult identical to an uninterrupted run's.
//
// Fault containment (DESIGN.md section 11): a mission whose fuzz() raises —
// sentinel divergence, watchdog timeout, or any other exception — is retried
// with a salted seed up to `max_fault_retries` times; a mission that faults
// on every attempt is recorded with its FaultKind, appended to the
// quarantine file with repro information, and the campaign moves on.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/fuzzer.h"
#include "fuzz/telemetry.h"
#include "sim/mission.h"
#include "util/worker_pool.h"

namespace swarmfuzz::fuzz {

// Point-in-time campaign progress, delivered to CampaignConfig::on_progress
// after each completed mission (serialized; callbacks never run
// concurrently).
struct CampaignProgress {
  int completed = 0;   // missions done, including those replayed on resume
  int resumed = 0;     // missions satisfied from the checkpoint
  int total = 0;       // config.num_missions
  int found = 0;       // SPVs discovered so far
  int faulted = 0;     // missions recorded with a terminal fault so far
  double elapsed_s = 0.0;  // wall-clock since this run_campaign() call

  // Missions actually executed since run_campaign() started — the resumed
  // ones were replayed from the checkpoint in (effectively) zero time and
  // must not enter any throughput math.
  [[nodiscard]] int completed_this_run() const noexcept {
    return completed - resumed;
  }
  // Throughput in missions/s over *this run only*. A rate based on
  // `completed / elapsed_s` would count checkpoint replays as work done this
  // session and, right after a resume, overstate throughput by orders of
  // magnitude (and make the ETA wildly optimistic). Returns 0 until the
  // first fresh mission lands.
  [[nodiscard]] double rate_per_s() const noexcept {
    const int fresh = completed_this_run();
    return fresh > 0 && elapsed_s > 0.0 ? fresh / elapsed_s : 0.0;
  }
  // Estimated seconds to finish the remaining missions at rate_per_s();
  // 0 until a rate exists.
  [[nodiscard]] double eta_s() const noexcept {
    const double rate = rate_per_s();
    return rate > 0.0 ? (total - completed) / rate : 0.0;
  }
};

// Deterministic fault injection for one mission of a campaign — test
// machinery for the containment paths (see sim::FaultInjection).
struct MissionFaultInjection {
  int mission_index = -1;
  sim::FaultInjection injection{};
  // The injection fires on the first `fail_attempts` fault attempts of the
  // mission, then stops — so tests can exercise a successful salted retry.
  // Default: every attempt faults and the mission is quarantined.
  int fail_attempts = std::numeric_limits<int>::max();
};

// Parses a fault plan of comma-separated `<mode>@<index>[:<time>][x<n>]`
// items, e.g. "nan@2:10,throw@3,hang@4x1": inject `mode` (nan|throw|hang)
// into mission `index` from sim time `time` (default 0) on its first `n`
// attempts (default: all). Throws std::invalid_argument on malformed specs.
[[nodiscard]] std::vector<MissionFaultInjection> parse_fault_plan(
    std::string_view spec);

struct CampaignConfig {
  sim::MissionConfig mission{};
  FuzzerConfig fuzzer{};
  FuzzerKind kind = FuzzerKind::kSwarmFuzz;
  int num_missions = 60;
  std::uint64_t base_seed = 1000;  // mission i's seed is mission_seed(base, i, 0)
  int num_threads = 0;             // 0 = hardware concurrency
  // The paper's missions never collide without an attack (section V-A); a
  // small fraction of our randomly generated ones do. When > 0, such
  // missions are re-drawn (with a salted seed) up to this many times so the
  // campaign evaluates the configured number of attack-free missions.
  int clean_failure_retries = 5;
  // Optional custom controller factory (per worker); null = Vasarhelyi.
  std::function<std::shared_ptr<const swarm::SwarmController>()> controller_factory;

  // JSONL checkpoint file; empty disables checkpointing. With `resume` set,
  // records already in the file satisfy their mission indices (after
  // validation against this config) and only missing missions run;
  // otherwise the file is truncated and the campaign starts over.
  std::string checkpoint_path;
  bool resume = true;
  // Optional additional sink (live dashboards, tests). Not owned; must stay
  // alive for the duration of run_campaign(). Receives one record per
  // mission completed *in this run* (resumed missions are not re-emitted).
  TelemetrySink* telemetry = nullptr;
  // Optional progress observer; see CampaignProgress.
  std::function<void(const CampaignProgress&)> on_progress;
  // When > 0, at most this many *new* missions are executed in this call
  // (resumed missions don't count); the result is partial unless combined
  // with a checkpoint and re-run. Used for incremental/batched operation
  // and for exercising interruption in tests.
  int max_new_missions = 0;

  // Fault containment. A faulted mission (sentinel divergence, watchdog
  // timeout, or any exception out of fuzz()) is re-run with a salted seed up
  // to this many times; attempt a of fault retry f uses
  // mission_seed(base, index, f * (clean_failure_retries + 1) + a), so fault
  // salts extend the clean-failure ladder without colliding with it.
  int max_fault_retries = 2;
  // Stop claiming new missions as soon as any mission records a terminal
  // fault (the default keeps going and quarantines).
  bool fail_fast = false;
  // JSONL file that receives one QuarantineRecord per terminally-faulted
  // mission (seed, fuzzer, config hash, fault — enough to reproduce it
  // offline). Empty disables quarantine output.
  std::string quarantine_path;
  // Deterministic per-mission fault injections (tests).
  std::vector<MissionFaultInjection> fault_injections;
};

// Short stable hash (16 hex chars, FNV-1a over the outcome-determining
// fields) identifying a campaign configuration in quarantine records, so a
// quarantined seed can be matched back to the exact campaign that shed it.
[[nodiscard]] std::string campaign_config_hash(const CampaignConfig& config);

struct MissionOutcome {
  int mission_index = -1;
  bool completed = false;         // false only in partial (interrupted) results
  std::uint64_t mission_seed = 0;
  double wall_time_s = 0.0;       // measured; the one non-deterministic field
  FuzzResult result;
  // Terminal fault classification. kNone: fuzzed normally. kCleanRunFailed:
  // every clean re-draw collided (result keeps the last clean run's
  // accounting). Anything else: every fault retry faulted; result is
  // default-constructed and the mission is excluded from num_fuzzable().
  sim::FaultKind fault = sim::FaultKind::kNone;
  std::string fault_detail;
  int fault_attempts = 0;         // fault retries consumed (0 when none)
};

struct CampaignResult {
  CampaignConfig config;
  std::vector<MissionOutcome> outcomes;

  // Missions actually executed or replayed (equals outcomes.size() except
  // in a max_new_missions-limited partial run).
  [[nodiscard]] int num_completed() const;

  // Success rate over fuzzable missions (clean-run failures excluded, as in
  // the paper where no mission collides without attack). Like every average
  // below, an empty denominator yields NaN — "undefined", which serializes
  // as JSON null — rather than a fabricated 0.
  [[nodiscard]] double success_rate() const;
  [[nodiscard]] int num_found() const;
  [[nodiscard]] int num_fuzzable() const;

  // Missions recorded with a terminal fault (any kind but kNone), and the
  // count for one specific kind.
  [[nodiscard]] int num_faulted() const;
  [[nodiscard]] int fault_count(sim::FaultKind kind) const;

  // Missions whose seed scheduling produced nothing to fuzz (FuzzResult::
  // no_seeds) — zero-iteration runs that would otherwise masquerade as
  // cheap failures in the success-rate denominator.
  [[nodiscard]] int num_no_seeds() const;

  // Average attempts actually tried (seeds searched / parameter draws) over
  // fuzzable missions; unlike attempts.size() this is unaffected by the
  // failed-attempt recording cap.
  [[nodiscard]] double avg_attempts_all() const;

  // Average search iterations: over successful missions only (Table II's
  // "iterations taken to find SPVs") and over all fuzzable missions.
  [[nodiscard]] double avg_iterations_successful() const;
  [[nodiscard]] double avg_iterations_all() const;

  // Spoofing parameters of the SPVs found (Fig. 7 series).
  [[nodiscard]] std::vector<double> found_start_times() const;
  [[nodiscard]] std::vector<double> found_durations() const;

  // Clean-run mission VDOs, one per fuzzable mission (Fig. 6d series).
  [[nodiscard]] std::vector<double> mission_vdos() const;

  // Prefix-reuse accounting, summed over all missions: control ticks
  // actually simulated vs skipped by resuming from clean-run checkpoints.
  // The reuse fraction is reused / (executed + reused).
  [[nodiscard]] std::int64_t total_sim_steps_executed() const;
  [[nodiscard]] std::int64_t total_prefix_steps_reused() const;

  // Cumulative success rate: for each x, the success rate over missions with
  // VDO <= x (Fig. 6a-6c). Returns (x, rate) points at each distinct VDO.
  [[nodiscard]] std::vector<std::pair<double, double>> cumulative_success_by_vdo()
      const;
};

// Derives mission `index`'s seed (attempt > 0 for clean-failure re-draws and
// fault retries; see CampaignConfig::max_fault_retries for the salt layout)
// from the campaign base seed via splitmix64-style mixing, so adjacent base
// seeds produce disjoint mission sets.
[[nodiscard]] std::uint64_t mission_seed(std::uint64_t base_seed, int index,
                                         int attempt) noexcept;

// Equality over every deterministic field (everything but wall_time_s, the
// step counters — performance accounting that legitimately differs between
// prefix-reuse configurations — and the fault detail/attempt fields, whose
// wording and count can vary for wall-clock timeouts; the fault *kind* is
// compared). This is the invariant behind
// thread-count independence, checkpoint/resume, and prefix reuse: an
// interrupted-and-resumed campaign — or one re-run with --no-prefix-reuse —
// must compare equal to an uninterrupted one.
// The FuzzResult overload is what the parallel-evaluation golden tests
// assert: a search run with --eval-threads N must compare equal to the
// serial run (eval_batches/eval_parallelism are performance accounting,
// excluded like the step counters; attempts_tried/no_seeds are search
// state, included).
[[nodiscard]] bool deterministic_equal(const FuzzResult& a,
                                       const FuzzResult& b) noexcept;
[[nodiscard]] bool deterministic_equal(const MissionOutcome& a,
                                       const MissionOutcome& b) noexcept;
[[nodiscard]] bool deterministic_equal(const CampaignResult& a,
                                       const CampaignResult& b) noexcept;

using util::hardware_threads;
using util::ThreadBudget;

// Splits `hardware` threads across `workers` campaign workers into an
// eval x sim budget per worker. Explicit (> 0) requests are first clamped to
// the worker's share (hardware / workers; sim to what eval leaves of it),
// then util::resolve_thread_budget fills the auto fields from the share.
// Both auto is all eval threads with serial ticks: intra-simulation
// parallelism never silently steals cores from batch parallelism, which
// saturates the machine with less synchronization. Every field is >= 1 for
// any input, so the fully oversubscribed request (workers = eval = sim =
// hardware) clamps to {1, 1}.
[[nodiscard]] ThreadBudget split_thread_budget(int workers, int requested_eval,
                                               int requested_sim,
                                               int hardware) noexcept;

// The thread budget one campaign worker runs with when `workers` workers
// share the machine: split_thread_budget over hardware_threads(), warning
// when an explicit over-budget request is clamped. Pure configuration;
// neither width ever changes outcomes.
[[nodiscard]] FuzzerConfig worker_fuzzer_config(const CampaignConfig& config,
                                                int workers);

// Supervised execution of single campaign missions — the unit a campaign
// worker runs. One runner per worker: it owns a fuzzer built from the
// worker's fuzzer configuration, and run(index) performs the full
// containment ladder — clean-failure re-draws nested inside salted fault
// retries, every exception out of fuzz() classified into the
// sim::FaultKind taxonomy, deterministic fault injections armed per
// config.fault_injections. Outcomes depend only on (config, base_seed,
// index), never on which worker executes them, which is what makes a
// campaign at any thread count bit-identical to a serial run.
class MissionRunner {
 public:
  // `worker_fuzzer` is the per-worker fuzzer configuration (normally
  // worker_fuzzer_config(config, workers)); `config.fuzzer` itself is not
  // used so campaigns can pre-split eval threads.
  MissionRunner(const CampaignConfig& config, const FuzzerConfig& worker_fuzzer);

  // Runs mission `index` under supervision and returns its outcome with
  // completed=true and wall_time_s measured.
  [[nodiscard]] MissionOutcome run(int index);

 private:
  CampaignConfig config_;
  FuzzerConfig worker_fuzzer_;
  std::unique_ptr<Fuzzer> fuzzer_;
};

// Runs the campaign. Progress (one line per 10% of missions when there are
// at least 10) is logged at info level; completion is always logged.
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

}  // namespace swarmfuzz::fuzz
