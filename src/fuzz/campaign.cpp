#include "fuzz/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>

#include "util/logging.h"
#include "util/options.h"
#include "util/worker_pool.h"

namespace swarmfuzz::fuzz {

namespace {

// Averages over empty sets are undefined, not zero: reporting 0 for "no
// fuzzable missions" reads as "0% success over real runs". NaN serializes
// as JSON null (see util::JsonWriter), never as the invalid `nan` literal.
constexpr double kUndefined = std::numeric_limits<double>::quiet_NaN();

}  // namespace

int CampaignResult::num_completed() const {
  int completed = 0;
  for (const MissionOutcome& o : outcomes) {
    if (o.completed) ++completed;
  }
  return completed;
}

double CampaignResult::success_rate() const {
  const int fuzzable = num_fuzzable();
  return fuzzable > 0 ? static_cast<double>(num_found()) / fuzzable : kUndefined;
}

int CampaignResult::num_found() const {
  int found = 0;
  for (const MissionOutcome& o : outcomes) {
    if (o.completed && o.result.found) ++found;
  }
  return found;
}

int CampaignResult::num_fuzzable() const {
  int fuzzable = 0;
  for (const MissionOutcome& o : outcomes) {
    // Terminally-faulted missions never produced a trustworthy search
    // outcome; counting them as fuzzable would deflate success rates with
    // infrastructure noise. Fault-free campaigns are unaffected (every
    // fault is kNone there).
    if (o.completed && !o.result.clean_run_failed &&
        o.fault == sim::FaultKind::kNone) {
      ++fuzzable;
    }
  }
  return fuzzable;
}

int CampaignResult::num_faulted() const {
  int faulted = 0;
  for (const MissionOutcome& o : outcomes) {
    if (o.completed && o.fault != sim::FaultKind::kNone) ++faulted;
  }
  return faulted;
}

int CampaignResult::fault_count(sim::FaultKind kind) const {
  int count = 0;
  for (const MissionOutcome& o : outcomes) {
    if (o.completed && o.fault == kind) ++count;
  }
  return count;
}

int CampaignResult::num_no_seeds() const {
  int count = 0;
  for (const MissionOutcome& o : outcomes) {
    if (o.completed && o.result.no_seeds) ++count;
  }
  return count;
}

double CampaignResult::avg_attempts_all() const {
  double sum = 0.0;
  int count = 0;
  for (const MissionOutcome& o : outcomes) {
    if (o.completed && !o.result.clean_run_failed &&
        o.fault == sim::FaultKind::kNone) {
      sum += o.result.attempts_tried;
      ++count;
    }
  }
  return count > 0 ? sum / count : kUndefined;
}

double CampaignResult::avg_iterations_successful() const {
  double sum = 0.0;
  int count = 0;
  for (const MissionOutcome& o : outcomes) {
    if (o.completed && o.result.found) {
      sum += o.result.iterations;
      ++count;
    }
  }
  return count > 0 ? sum / count : kUndefined;
}

double CampaignResult::avg_iterations_all() const {
  double sum = 0.0;
  int count = 0;
  for (const MissionOutcome& o : outcomes) {
    if (o.completed && !o.result.clean_run_failed &&
        o.fault == sim::FaultKind::kNone) {
      sum += o.result.iterations;
      ++count;
    }
  }
  return count > 0 ? sum / count : kUndefined;
}

std::vector<double> CampaignResult::found_start_times() const {
  std::vector<double> values;
  for (const MissionOutcome& o : outcomes) {
    if (o.completed && o.result.found) values.push_back(o.result.plan.start_time);
  }
  return values;
}

std::vector<double> CampaignResult::found_durations() const {
  std::vector<double> values;
  for (const MissionOutcome& o : outcomes) {
    if (o.completed && o.result.found) values.push_back(o.result.plan.duration);
  }
  return values;
}

std::vector<double> CampaignResult::mission_vdos() const {
  std::vector<double> values;
  for (const MissionOutcome& o : outcomes) {
    if (o.completed && !o.result.clean_run_failed &&
        o.fault == sim::FaultKind::kNone) {
      values.push_back(o.result.mission_vdo);
    }
  }
  return values;
}

std::int64_t CampaignResult::total_sim_steps_executed() const {
  std::int64_t total = 0;
  for (const MissionOutcome& o : outcomes) total += o.result.sim_steps_executed;
  return total;
}

std::int64_t CampaignResult::total_prefix_steps_reused() const {
  std::int64_t total = 0;
  for (const MissionOutcome& o : outcomes) total += o.result.prefix_steps_reused;
  return total;
}

std::vector<std::pair<double, double>> CampaignResult::cumulative_success_by_vdo()
    const {
  // Sort fuzzable missions by VDO; sweep, accumulating successes.
  struct Point {
    double vdo;
    bool found;
  };
  std::vector<Point> points;
  for (const MissionOutcome& o : outcomes) {
    // Non-finite VDOs (obstacle-free or otherwise degenerate clean runs)
    // have no place on a VDO axis; worse, a NaN poisons the adjacent-dedup
    // comparison below (NaN - x < 1e-9 is false either way, so the NaN
    // point itself would be emitted). Drop them up front.
    if (o.completed && !o.result.clean_run_failed &&
        o.fault == sim::FaultKind::kNone && std::isfinite(o.result.mission_vdo)) {
      points.push_back({o.result.mission_vdo, o.result.found});
    }
  }
  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) { return a.vdo < b.vdo; });

  std::vector<std::pair<double, double>> curve;
  int found = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].found) ++found;
    // Emit one point per distinct VDO value (last of a run of equal VDOs).
    if (i + 1 < points.size() && points[i + 1].vdo - points[i].vdo < 1e-9) continue;
    curve.emplace_back(points[i].vdo,
                       static_cast<double>(found) / static_cast<double>(i + 1));
  }
  return curve;
}

namespace {

std::uint64_t splitmix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t mission_seed(std::uint64_t base_seed, int index,
                           int attempt) noexcept {
  // Each input is fed through a full splitmix64 round before mixing in the
  // next, so neighbouring (base, index, attempt) tuples land in unrelated
  // parts of the seed space. With the naive `base + index` scheme two
  // campaigns at adjacent base seeds shared nearly all of their missions.
  std::uint64_t z = splitmix64(base_seed);
  z = splitmix64(z ^ (static_cast<std::uint64_t>(static_cast<unsigned>(index)) +
                      0x517cc1b727220a95ull));
  z = splitmix64(z ^ (static_cast<std::uint64_t>(static_cast<unsigned>(attempt)) +
                      0x2545f4914f6cdd1dull));
  return z;
}

std::vector<MissionFaultInjection> parse_fault_plan(std::string_view spec) {
  std::vector<MissionFaultInjection> plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string item{spec.substr(
        start, (comma == std::string_view::npos ? spec.size() : comma) - start)};
    start = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (item.empty()) continue;
    const auto fail = [&item](const std::string& why) {
      return std::invalid_argument("parse_fault_plan: " + why + " in '" + item +
                                   "'");
    };
    const std::size_t at = item.find('@');
    if (at == std::string::npos) throw fail("missing '@<mission-index>'");
    const std::string mode = item.substr(0, at);
    MissionFaultInjection injection;
    if (mode == "nan") {
      injection.injection.mode = sim::FaultInjection::Mode::kNan;
    } else if (mode == "throw") {
      injection.injection.mode = sim::FaultInjection::Mode::kThrow;
    } else if (mode == "hang") {
      injection.injection.mode = sim::FaultInjection::Mode::kHang;
    } else {
      throw fail("unknown fault mode '" + mode + "' (nan|throw|hang)");
    }
    // Each number must be the whole token: "1junk" is no mission index.
    const auto number = [&fail]<typename T>(std::string_view token, T& value) {
      const std::optional<T> parsed = util::parse_number<T>(token);
      if (!parsed) {
        throw fail("malformed or out-of-range number '" + std::string{token} +
                   "'");
      }
      value = *parsed;
    };
    std::string_view rest = std::string_view{item}.substr(at + 1);
    if (const std::size_t x = rest.find('x'); x != std::string_view::npos) {
      number(rest.substr(x + 1), injection.fail_attempts);
      rest = rest.substr(0, x);
    }
    if (const std::size_t colon = rest.find(':'); colon != std::string_view::npos) {
      number(rest.substr(colon + 1), injection.injection.at_time);
      rest = rest.substr(0, colon);
    }
    number(rest, injection.mission_index);
    if (injection.mission_index < 0 || injection.fail_attempts < 1 ||
        !std::isfinite(injection.injection.at_time) ||
        injection.injection.at_time < 0.0) {
      throw fail("negative index, negative or non-finite time, or non-positive "
                 "attempt count");
    }
    plan.push_back(injection);
  }
  return plan;
}

std::string campaign_config_hash(const CampaignConfig& config) {
  // Canonical key=value rendering of the outcome-determining fields; doubles
  // with %.17g so the hash moves iff a mission-affecting bit moves.
  std::string canon;
  const auto add = [&canon](std::string_view key, const std::string& value) {
    canon.append(key);
    canon.push_back('=');
    canon.append(value);
    canon.push_back(';');
  };
  const auto exact = [](double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return std::string{buffer};
  };
  add("kind", std::string{fuzzer_kind_name(config.kind)});
  add("missions", std::to_string(config.num_missions));
  add("base_seed", std::to_string(config.base_seed));
  add("clean_retries", std::to_string(config.clean_failure_retries));
  add("fault_retries", std::to_string(config.max_fault_retries));
  const sim::MissionConfig& m = config.mission;
  add("drones", std::to_string(m.num_drones));
  add("spawn_range", exact(m.spawn_range));
  add("min_sep", exact(m.min_spawn_separation));
  add("length", exact(m.mission_length));
  add("altitude", exact(m.cruise_altitude));
  add("obstacles", std::to_string(m.num_obstacles));
  add("obs_r", exact(m.obstacle_radius_min) + ":" + exact(m.obstacle_radius_max));
  add("obs_jitter",
      exact(m.obstacle_lateral_jitter) + ":" + exact(m.obstacle_along_jitter));
  add("max_time", exact(m.max_time));
  add("arrival", exact(m.arrival_radius));
  add("drone_r", exact(m.drone_radius));
  const FuzzerConfig& f = config.fuzzer;
  add("distance", exact(f.spoof_distance));
  add("budget", std::to_string(f.mission_budget));
  add("seed_budget", std::to_string(f.per_seed_budget));
  add("rng", std::to_string(f.rng_seed));
  add("lead", exact(f.lead_time));
  add("init_dur", exact(f.initial_duration));
  add("dt", exact(f.sim.dt));
  add("noise_seed", std::to_string(f.sim.noise_seed));
  // E_Fuzz knobs: every field except corpus_dir changes search outcomes
  // (corpus_dir is a persistence location, like checkpoint_path — excluded).
  const EvolutionConfig& e = f.evolution;
  add("novelty_bins", std::to_string(e.novelty.bins));
  add("novelty_widths", exact(e.novelty.clearance_bin_m) + ":" +
                            exact(e.novelty.separation_bin_m) + ":" +
                            exact(e.novelty.near_miss_m));
  add("mutation", exact(e.mutation.shift_max_s) + ":" +
                      exact(e.mutation.stretch_min) + ":" +
                      exact(e.mutation.stretch_max));
  add("evo_batch", std::to_string(e.batch_size));
  add("evo_minimize", std::to_string(e.minimize_period));
  add("evo_corpus_max", std::to_string(e.max_corpus));

  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (const char ch : canon) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string{hex};
}

namespace {

// Double equality with NaN == NaN: a non-finite mission VDO (obstacle-free
// clean run) round-trips through telemetry as null -> NaN, and IEEE
// `NaN != NaN` would make a resumed campaign compare unequal to the run
// that produced the checkpoint.
bool same_double(double a, double b) noexcept {
  return a == b || (std::isnan(a) && std::isnan(b));
}

bool plans_equal(const attack::SpoofingPlan& a,
                 const attack::SpoofingPlan& b) noexcept {
  return a.target == b.target && a.direction == b.direction &&
         same_double(a.start_time, b.start_time) &&
         same_double(a.duration, b.duration) &&
         same_double(a.distance, b.distance);
}

bool attempts_equal(const SeedAttempt& a, const SeedAttempt& b) noexcept {
  return a.seed.target == b.seed.target && a.seed.victim == b.seed.victim &&
         a.seed.direction == b.seed.direction &&
         same_double(a.seed.vdo, b.seed.vdo) &&
         same_double(a.seed.influence, b.seed.influence) &&
         a.outcome.success == b.outcome.success &&
         a.outcome.stalled == b.outcome.stalled &&
         same_double(a.outcome.t_start, b.outcome.t_start) &&
         same_double(a.outcome.duration, b.outcome.duration) &&
         same_double(a.outcome.best_f, b.outcome.best_f) &&
         a.outcome.crashed_drone == b.outcome.crashed_drone &&
         a.outcome.iterations == b.outcome.iterations;
}

}  // namespace

bool deterministic_equal(const FuzzResult& a, const FuzzResult& b) noexcept {
  if (a.clean_run_failed != b.clean_run_failed || a.found != b.found ||
      a.victim != b.victim || !same_double(a.victim_vdo, b.victim_vdo) ||
      a.iterations != b.iterations || a.simulations != b.simulations ||
      !same_double(a.mission_vdo, b.mission_vdo) ||
      !same_double(a.clean_mission_time, b.clean_mission_time) ||
      a.attempts_tried != b.attempts_tried || a.no_seeds != b.no_seeds ||
      a.corpus_size != b.corpus_size || a.novelty_bins != b.novelty_bins ||
      a.corpus_admissions != b.corpus_admissions ||
      !plans_equal(a.plan, b.plan) || a.attempts.size() != b.attempts.size()) {
    return false;
  }
  for (size_t i = 0; i < a.attempts.size(); ++i) {
    if (!attempts_equal(a.attempts[i], b.attempts[i])) return false;
  }
  return true;
}

bool deterministic_equal(const MissionOutcome& a,
                         const MissionOutcome& b) noexcept {
  if (a.mission_index != b.mission_index || a.completed != b.completed ||
      a.mission_seed != b.mission_seed || a.fault != b.fault) {
    return false;
  }
  return deterministic_equal(a.result, b.result);
}

bool deterministic_equal(const CampaignResult& a,
                         const CampaignResult& b) noexcept {
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    if (!deterministic_equal(a.outcomes[i], b.outcomes[i])) return false;
  }
  return true;
}

namespace {

// Checks a checkpoint record against the campaign it is being replayed into;
// throws std::runtime_error when the record cannot belong to this
// configuration (index out of range, wrong fuzzer, or a seed that does not
// derive from the campaign base seed), so a resume never fabricates results
// from a foreign file.
void validate_checkpoint_record(const TelemetryRecord& record,
                                const CampaignConfig& config) {
  if (record.mission_index < 0 || record.mission_index >= config.num_missions) {
    throw std::runtime_error(
        "checkpoint: mission index " + std::to_string(record.mission_index) +
        " outside campaign of " + std::to_string(config.num_missions));
  }
  if (record.fuzzer != fuzzer_kind_name(config.kind)) {
    throw std::runtime_error("checkpoint: fuzzer '" + record.fuzzer +
                             "' does not match campaign fuzzer '" +
                             std::string{fuzzer_kind_name(config.kind)} + "'");
  }
  // Accept any salt the supervisor can have used: clean re-draws nested
  // inside fault retries (see CampaignConfig::max_fault_retries).
  const int max_salt =
      (config.clean_failure_retries + 1) * (config.max_fault_retries + 1);
  for (int attempt = 0; attempt < max_salt; ++attempt) {
    if (record.mission_seed ==
        mission_seed(config.base_seed, record.mission_index, attempt)) {
      return;
    }
  }
  throw std::runtime_error(
      "checkpoint: mission " + std::to_string(record.mission_index) +
      " seed does not derive from base seed " + std::to_string(config.base_seed) +
      " (different campaign?)");
}

// The two directions between a mission outcome and its checkpoint record;
// outcome_from_record marks the outcome completed.
MissionOutcome outcome_from_record(const TelemetryRecord& record) {
  return MissionOutcome{.mission_index = record.mission_index,
                        .completed = true,
                        .mission_seed = record.mission_seed,
                        .wall_time_s = record.wall_time_s,
                        .result = record.result,
                        .fault = record.fault,
                        .fault_detail = record.fault_detail,
                        .fault_attempts = record.fault_attempts};
}

TelemetryRecord record_from_outcome(const CampaignConfig& config,
                                    const MissionOutcome& outcome) {
  TelemetryRecord record;
  record.mission_index = outcome.mission_index;
  record.fuzzer = std::string{fuzzer_kind_name(config.kind)};
  record.mission_seed = outcome.mission_seed;
  record.wall_time_s = outcome.wall_time_s;
  record.result = outcome.result;
  record.fault = outcome.fault;
  record.fault_detail = outcome.fault_detail;
  record.fault_attempts = outcome.fault_attempts;
  return record;
}

// A campaign's quarantine file. add() appends one QuarantineRecord per
// terminally faulted mission, deduplicated against the records already in
// the file, so a mission re-run after a resume never quarantines twice. Not
// thread-safe.
class QuarantineLog {
 public:
  // Loads the existing records of `path`; an empty path disables the log.
  QuarantineLog(const CampaignConfig& config, std::string path)
      : path_(std::move(path)),
        fuzzer_(fuzzer_kind_name(config.kind)),
        config_hash_(campaign_config_hash(config)) {
    if (path_.empty()) return;
    for (const QuarantineRecord& record : load_quarantine(path_)) {
      recorded_.emplace(record.config_hash, record.mission_seed,
                        record.mission_index);
    }
  }

  // Appends `outcome` when it is faulted and not yet recorded. A write
  // failure is logged, not thrown: quarantine is observability, and losing
  // a record must not lose the campaign.
  void add(const MissionOutcome& outcome) {
    if (path_.empty() || outcome.fault == sim::FaultKind::kNone ||
        !recorded_.emplace(config_hash_, outcome.mission_seed, outcome.mission_index)
             .second) {
      return;
    }
    QuarantineRecord record;
    record.mission_index = outcome.mission_index;
    record.fuzzer = fuzzer_;
    record.mission_seed = outcome.mission_seed;
    record.config_hash = config_hash_;
    record.fault = outcome.fault;
    record.detail = outcome.fault_detail;
    record.attempts = outcome.fault_attempts;
    try {
      append_jsonl_line(path_, to_jsonl(record));
    } catch (const std::exception& e) {
      SWARMFUZZ_ERROR("campaign: cannot write quarantine record: {}", e.what());
    }
  }

 private:
  std::string path_;
  std::string fuzzer_;
  std::string config_hash_;
  std::set<std::tuple<std::string, std::uint64_t, int>> recorded_;
};

}  // namespace

ThreadBudget split_thread_budget(int workers, int requested_eval,
                                 int requested_sim, int hardware) noexcept {
  const int share = std::max(std::max(hardware, 1) / std::max(workers, 1), 1);
  const int eval = std::min(requested_eval, share);
  const int sim = std::min(requested_sim, std::max(share / std::max(eval, 1), 1));
  return util::resolve_thread_budget(eval, sim, share);
}

FuzzerConfig worker_fuzzer_config(const CampaignConfig& config, int workers) {
  // Explicit over-budget requests are clamped (with one warning per
  // campaign — this runs once per campaign, not per mission) rather
  // than oversubscribing. Neither knob affects outcomes (evaluation
  // batching and the tick pool are bit-identical for any width), so both
  // are excluded from campaign_config_hash and checkpoint validation.
  FuzzerConfig worker_fuzzer = config.fuzzer;
  const int hardware = hardware_threads();
  const ThreadBudget budget =
      split_thread_budget(workers, config.fuzzer.eval_threads,
                          config.fuzzer.sim.sim_threads, hardware);
  worker_fuzzer.eval_threads = budget.eval_threads;
  worker_fuzzer.sim.sim_threads = budget.sim_threads;
  if (config.fuzzer.eval_threads > budget.eval_threads) {
    SWARMFUZZ_WARN(
        "campaign: clamping eval threads {} -> {} ({} mission workers on {} "
        "hardware threads)",
        config.fuzzer.eval_threads, budget.eval_threads, workers, hardware);
  }
  if (config.fuzzer.sim.sim_threads > budget.sim_threads) {
    SWARMFUZZ_WARN(
        "campaign: clamping sim threads {} -> {} ({} mission workers x {} "
        "eval threads on {} hardware threads)",
        config.fuzzer.sim.sim_threads, budget.sim_threads, workers,
        budget.eval_threads, hardware);
  }
  return worker_fuzzer;
}

MissionRunner::MissionRunner(const CampaignConfig& config,
                             const FuzzerConfig& worker_fuzzer)
    : config_(config),
      worker_fuzzer_(worker_fuzzer),
      fuzzer_(make_fuzzer(
          config.kind, worker_fuzzer,
          config.controller_factory ? config.controller_factory() : nullptr)) {}

MissionOutcome MissionRunner::run(int index) {
  MissionOutcome outcome;
  outcome.mission_index = index;
  const auto mission_start = std::chrono::steady_clock::now();

  const MissionFaultInjection* injected = nullptr;
  for (const MissionFaultInjection& injection : config_.fault_injections) {
    if (injection.mission_index == index) injected = &injection;
  }

  const int clean_attempts = config_.clean_failure_retries + 1;
  for (int fault_attempt = 0;; ++fault_attempt) {
    Fuzzer* active = fuzzer_.get();
    std::unique_ptr<Fuzzer> armed;
    if (injected != nullptr && fault_attempt < injected->fail_attempts) {
      // One-off fuzzer with the injection armed, so the long-lived worker
      // fuzzer stays pristine for every other mission.
      FuzzerConfig armed_config = worker_fuzzer_;
      armed_config.fault_injection = injected->injection;
      armed = make_fuzzer(config_.kind, armed_config,
                          config_.controller_factory ? config_.controller_factory()
                                                     : nullptr);
      active = armed.get();
    }
    bool done = false;
    try {
      for (int attempt = 0; attempt < clean_attempts; ++attempt) {
        // Salted re-draws keep retried missions deterministic and distinct
        // from every base seed; fault retries extend the same ladder.
        const std::uint64_t seed = mission_seed(
            config_.base_seed, index, fault_attempt * clean_attempts + attempt);
        const sim::MissionSpec mission =
            sim::generate_mission(config_.mission, seed);
        outcome.mission_seed = seed;
        outcome.result = active->fuzz(mission);
        if (!outcome.result.clean_run_failed) {
          outcome.fault = sim::FaultKind::kNone;
          outcome.fault_detail.clear();
          done = true;
          break;
        }
      }
      if (!done) {
        // Every re-draw collided without an attack: a mission-generation
        // failure, not an infrastructure fault; keep the last clean run's
        // accounting (matches pre-taxonomy records, which derive this kind
        // from result.clean_run_failed on load).
        outcome.fault = sim::FaultKind::kCleanRunFailed;
        outcome.fault_detail = "mission collided without attack on all " +
                               std::to_string(clean_attempts) + " re-draws";
        done = true;
      }
    } catch (const sim::RunFaultError& e) {
      outcome.fault = e.fault().kind;
      outcome.fault_detail = e.what();
    } catch (const std::exception& e) {
      outcome.fault = sim::FaultKind::kException;
      outcome.fault_detail = e.what();
    }
    if (done) break;
    outcome.fault_attempts = fault_attempt + 1;
    if (fault_attempt >= config_.max_fault_retries) {
      // Terminal: no trustworthy search outcome exists; a partial result
      // must not masquerade as one.
      outcome.result = FuzzResult{};
      break;
    }
    SWARMFUZZ_WARN(
        "campaign [{}]: mission {} faulted ({}: {}); retrying with salted "
        "seed ({}/{})",
        fuzzer_kind_name(config_.kind), index,
        sim::fault_kind_name(outcome.fault), outcome.fault_detail,
        fault_attempt + 1, config_.max_fault_retries);
  }

  outcome.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    mission_start)
          .count();
  outcome.completed = true;
  return outcome;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  if (config.num_missions < 1) {
    throw std::invalid_argument("run_campaign: num_missions < 1");
  }
  CampaignResult result;
  result.config = config;
  result.outcomes.resize(static_cast<size_t>(config.num_missions));
  for (int i = 0; i < config.num_missions; ++i) {
    result.outcomes[static_cast<size_t>(i)].mission_index = i;
  }

  // Replay the checkpoint, then reopen it truncated and re-emit the records
  // we kept: this normalizes away torn trailing lines and duplicates while
  // preserving crash safety for the missions that follow.
  int resumed = 0;
  std::unique_ptr<JsonlTelemetrySink> checkpoint;
  if (!config.checkpoint_path.empty()) {
    std::vector<TelemetryRecord> records;
    if (config.resume) {
      records = load_telemetry(config.checkpoint_path);
    }
    // Validate every record before truncating the file: a checkpoint from a
    // different campaign must be rejected with its contents intact.
    for (const TelemetryRecord& record : records) {
      validate_checkpoint_record(record, config);
    }
    checkpoint = std::make_unique<JsonlTelemetrySink>(config.checkpoint_path,
                                                      /*append=*/false);
    for (const TelemetryRecord& record : records) {
      MissionOutcome& outcome =
          result.outcomes[static_cast<size_t>(record.mission_index)];
      if (outcome.completed) continue;  // duplicate line; keep the first
      outcome = outcome_from_record(record);
      checkpoint->record(record);
      ++resumed;
    }
    if (resumed > 0) {
      SWARMFUZZ_INFO("campaign [{}]: resumed {}/{} missions from {}",
                     fuzzer_kind_name(config.kind), resumed, config.num_missions,
                     config.checkpoint_path);
    }
  }

  // hardware_threads() never reports 0 (unknown concurrency), so the worker
  // count and the eval-thread split below can never compute 0 workers.
  int threads =
      config.num_threads > 0 ? config.num_threads : hardware_threads();
  threads = std::clamp(threads, 1, config.num_missions);
  const FuzzerConfig worker_fuzzer = worker_fuzzer_config(config, threads);

  const auto campaign_start = std::chrono::steady_clock::now();
  std::atomic<int> completed{resumed};
  std::atomic<int> found{0};
  std::atomic<int> faulted{0};
  std::atomic<bool> aborted{false};  // fail-fast or a dead worker
  std::atomic<int> new_budget{config.max_new_missions > 0 ? config.max_new_missions
                                                          : config.num_missions};
  for (const MissionOutcome& o : result.outcomes) {
    if (o.completed && o.result.found) found.fetch_add(1);
    if (o.completed && o.fault != sim::FaultKind::kNone) faulted.fetch_add(1);
  }
  std::mutex observer_mutex;  // serializes checkpoint order + progress callbacks

  // Quarantine is append-only across resumes: a mission whose checkpoint
  // line was lost (torn tail, deleted file) re-runs and would re-quarantine
  // without the log's dedup against the existing file.
  QuarantineLog quarantine(config, config.quarantine_path);

  // The mission workers are the lanes of one pool, claiming missions in
  // index order. One runner (and thus one fuzzer) per lane: fuzzers are
  // stateful but mission outcomes only depend on per-mission seeds, so
  // the split over lanes is deterministic.
  util::WorkerPool workers(threads);
  std::vector<std::optional<MissionRunner>> runners(static_cast<size_t>(threads));
  workers.for_each(config.num_missions, [&](int index, int lane) {
    if (aborted.load()) return;  // fail-fast or a dead worker
    MissionOutcome& outcome = result.outcomes[static_cast<size_t>(index)];
    if (outcome.completed) return;  // satisfied by the checkpoint
    if (new_budget.fetch_sub(1) <= 0) return;  // max_new_missions reached
    // The whole body is supervised: an exception anywhere outside the
    // per-mission containment (fuzzer construction, checkpoint I/O) must
    // stop the campaign cleanly instead of std::terminate-ing the process.
    try {
      std::optional<MissionRunner>& runner = runners[static_cast<size_t>(lane)];
      if (!runner) runner.emplace(config, worker_fuzzer);
      outcome = runner->run(index);
      if (outcome.result.found) found.fetch_add(1);
      if (outcome.fault != sim::FaultKind::kNone) {
        faulted.fetch_add(1);
        if (config.fail_fast) aborted.store(true);
      }
      const int done = completed.fetch_add(1) + 1;

      {
        const std::lock_guard<std::mutex> lock(observer_mutex);
        const TelemetryRecord record = record_from_outcome(config, outcome);
        if (checkpoint) checkpoint->record(record);
        if (config.telemetry) config.telemetry->record(record);
        quarantine.add(outcome);
        if (config.on_progress) {
          CampaignProgress progress;
          progress.completed = done;
          progress.resumed = resumed;
          progress.total = config.num_missions;
          progress.found = found.load();
          progress.faulted = faulted.load();
          progress.elapsed_s =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            campaign_start)
                  .count();
          config.on_progress(progress);
        }
      }
      if (config.num_missions >= 10 && done % (config.num_missions / 10) == 0) {
        SWARMFUZZ_INFO("campaign [{}]: {}/{} missions",
                       fuzzer_kind_name(config.kind), done, config.num_missions);
      }
    } catch (const std::exception& e) {
      SWARMFUZZ_ERROR("campaign worker aborted: {}", e.what());
      aborted.store(true);
    } catch (...) {
      SWARMFUZZ_ERROR("campaign worker aborted: unknown exception");
      aborted.store(true);
    }
  });

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    campaign_start)
          .count();
  SWARMFUZZ_INFO(
      "campaign [{}] {}: {}/{} missions, {} SPVs over {} fuzzable, {} faulted, "
      "{:.1f}s",
      fuzzer_kind_name(config.kind),
      result.num_completed() == config.num_missions ? "complete" : "interrupted",
      result.num_completed(), config.num_missions, result.num_found(),
      result.num_fuzzable(), result.num_faulted(), elapsed);
  if (result.num_faulted() > 0) {
    SWARMFUZZ_WARN(
        "campaign [{}]: faults — {} divergence, {} timeout, {} exception, {} "
        "clean-run failed{}",
        fuzzer_kind_name(config.kind),
        result.fault_count(sim::FaultKind::kNumericalDivergence),
        result.fault_count(sim::FaultKind::kTimeout),
        result.fault_count(sim::FaultKind::kException),
        result.fault_count(sim::FaultKind::kCleanRunFailed),
        config.quarantine_path.empty()
            ? ""
            : std::string{"; quarantined to "} + config.quarantine_path);
  }
  return result;
}

}  // namespace swarmfuzz::fuzz
