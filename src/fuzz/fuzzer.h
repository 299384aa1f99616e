// The fuzzers (paper sections IV and V-C, plus the evolutionary extension).
//
//   SwarmFuzz : SVG/PageRank seed scheduling + gradient-guided search
//   R_Fuzz    : random pairs, random parameters   (neither heuristic)
//   G_Fuzz    : random pairs, gradient search     (no SVG)
//   S_Fuzz    : SVG seed scheduling, random params (no gradient)
//   E_Fuzz    : SVG-seeded corpus + mutation + behavioral-novelty feedback
//               (AFL-style anytime search; DESIGN.md section 17)
//
// All fuzzers share the same mission-level iteration budget; gradient-based
// fuzzers additionally stop early when a seed's search stalls, which is why
// their runtime is ~3x lower (Table III).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/mutation.h"
#include "fuzz/optimizer.h"
#include "fuzz/seeds.h"
#include "math/rng.h"
#include "sim/simulator.h"
#include "swarm/flocking_system.h"

namespace swarmfuzz::fuzz {

enum class FuzzerKind {
  kSwarmFuzz,
  kRandom,        // R_Fuzz
  kGradientOnly,  // G_Fuzz
  kSvgOnly,       // S_Fuzz
  kEvolutionary,  // E_Fuzz
};

[[nodiscard]] std::string_view fuzzer_kind_name(FuzzerKind kind) noexcept;

// E_Fuzz settings (kEvolutionary only). Everything except corpus_dir
// affects search outcomes and therefore enters campaign_config_hash.
struct EvolutionConfig {
  NoveltyConfig novelty{};
  MutationConfig mutation{};
  // Candidates per evaluation batch. A fixed constant — deliberately NOT
  // derived from eval_threads, or results would differ across thread counts
  // and break the bit-identical determinism contract.
  int batch_size = 8;
  int minimize_period = 32;  // admissions between corpus minimizations
  int max_corpus = 256;      // minimization triggers above this many entries
  // Anytime mode: when set, each mission loads `<dir>/corpus_<seed>.jsonl`
  // before searching and saves its minimized corpus back afterwards, so a
  // later campaign resumes the exploration where this one stopped. Off by
  // default — a pre-populated corpus intentionally changes results.
  std::string corpus_dir;
};

struct FuzzerConfig {
  double spoof_distance = 10.0;          // d, m
  sim::SimulationConfig sim{};           // simulator settings
  swarm::CommConfig comm{};              // communication model
  OptimizerConfig optimizer{};           // gradient-search settings
  SeedScheduleConfig seeds{};            // SVG scheduling settings
  int mission_budget = 60;               // total search iterations per mission
  int per_seed_budget = 20;              // paper: cap 20 per seed
  std::uint64_t rng_seed = 7;            // stream for the random fuzzers
  // Initial guess: spoofing starts `lead_time` before the victim's clean
  // closest approach, for `initial_duration` seconds.
  double lead_time = 15.0;
  double initial_duration = 20.0;
  // Prefix reuse: checkpoint the clean run every `checkpoint_period` seconds
  // of sim time and resume each objective evaluation from the latest
  // checkpoint preceding its spoofing window. Bit-identical results either
  // way (see sim/checkpoint.h); off only for benchmarking/debugging.
  bool prefix_reuse = true;
  double checkpoint_period = 1.0;
  // Eval-thread count for the gradient search's batch evaluations (the
  // multi-start candidates and each iteration's FD stencil): 1 (default)
  // evaluates serially, N > 1 fans batches out over an EvalPool N lanes
  // wide, 0 = auto: the hardware concurrency divided by an explicit
  // sim.sim_threads (util::resolve_thread_budget). Results are bit-identical
  // for any value (see Objective::evaluate_batch); campaigns split the
  // machine between mission workers, eval threads and intra-tick sim
  // threads (fuzz::split_thread_budget) so
  // workers x eval_threads x sim.sim_threads stays within the hardware.
  // sim.sim_threads composes with this: each eval lane's simulator may
  // additionally parallelize inside a tick (sim.sim_threads = 0 here means
  // auto = whatever the eval fan-out leaves of the machine).
  int eval_threads = 1;
  // Fault containment (see sim/fault.h and DESIGN.md section 11). The
  // wall-clock budget covers one whole fuzz() call — the clean run and every
  // objective evaluation share the same absolute deadline — so a mission
  // cannot stall a campaign worker indefinitely. The step budget bounds each
  // individual simulation. Zero disables a guard; a tripped guard raises
  // sim::RunFaultError{kTimeout} out of fuzz().
  double mission_timeout_s = 0.0;
  std::int64_t eval_max_steps = 0;
  // Deterministic fault injection for containment tests; kNone in production.
  sim::FaultInjection fault_injection{};
  // E_Fuzz settings; ignored by every other kind.
  EvolutionConfig evolution{};
};

// One fuzzed seed's outcome (for diagnostics and the ablation bench).
struct SeedAttempt {
  Seed seed;
  OptimizationResult outcome;
};

struct FuzzResult {
  bool clean_run_failed = false;  // mission collided without any attack
  bool found = false;             // an SPV was discovered
  attack::SpoofingPlan plan;      // the successful attack (when found)
  int victim = -1;                // the drone that crashed (when found)
  double victim_vdo = 0.0;        // that drone's clean-run VDO
  int iterations = 0;             // total search iterations consumed
  int simulations = 0;            // total mission simulations (incl. stencil)
  double mission_vdo = 0.0;       // min over drones of clean-run VDO
  double clean_mission_time = 0.0;
  // Search-state accounting (part of deterministic_equal, unlike the
  // performance counters below): attempts actually tried — seeds searched
  // by the gradient fuzzers, parameter draws by the random ones — which can
  // exceed attempts.size() once the recording cap kicks in, and whether
  // seed scheduling came up empty (a mission that *looks* like a zero-cost
  // success-free run but was never fuzzed at all).
  int attempts_tried = 0;
  bool no_seeds = false;
  // E_Fuzz search state (zero for every other kind), also part of
  // deterministic_equal: corpus size after the final minimization, distinct
  // novelty bins lit, and total admissions (including entries later
  // minimized away).
  int corpus_size = 0;
  int novelty_bins = 0;
  int corpus_admissions = 0;
  // Performance accounting (not part of the search outcome, and excluded
  // from deterministic_equal like wall time): control ticks simulated vs
  // skipped by resuming from a checkpoint, either a clean-run prefix or a
  // sibling window's branch point (window-tree reuse), plus the batch
  // count submitted to the parallel evaluation engine and the eval-thread
  // count it ran with.
  std::int64_t sim_steps_executed = 0;
  std::int64_t prefix_steps_reused = 0;
  int eval_batches = 0;
  int eval_parallelism = 1;
  std::vector<SeedAttempt> attempts;
};

class Fuzzer {
 public:
  virtual ~Fuzzer() = default;
  [[nodiscard]] virtual FuzzResult fuzz(const sim::MissionSpec& mission) = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

// Builds a fuzzer of `kind`, resolving config's auto (0) thread widths with
// util::resolve_thread_budget. The controller defaults to Vasarhelyi when
// `controller` is null.
[[nodiscard]] std::unique_ptr<Fuzzer> make_fuzzer(
    FuzzerKind kind, FuzzerConfig config,
    std::shared_ptr<const swarm::SwarmController> controller = nullptr);

}  // namespace swarmfuzz::fuzz
