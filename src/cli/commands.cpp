#include "cli/commands.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/spoofing.h"
#include "defense/detector.h"
#include "fuzz/campaign.h"
#include "fuzz/coordinator.h"
#include "fuzz/fuzzer.h"
#include "fuzz/serialize.h"
#include "fuzz/service.h"
#include "fuzz/shard_merge.h"
#include "graph/pagerank.h"
#include "math/stats.h"
#include "swarm/flocking_system.h"
#include "swarm/olfati_saber.h"
#include "swarm/reynolds.h"
#include "swarm/vasarhelyi.h"
#include "util/fileio.h"
#include "util/retry.h"
#include "util/table.h"

namespace swarmfuzz::cli {
namespace {

sim::MissionSpec mission_from(const util::Options& options) {
  sim::MissionConfig config;
  config.num_drones = options.get_int("drones", 5);
  config.num_obstacles = options.get_int("obstacles", 1);
  // The default 50 m box only fits ~30 drones at the default 8 m
  // separation; large swarms need a wider box or generation throws.
  config.spawn_range = options.get_double("spawn-range", config.spawn_range);
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 1013));
  return sim::generate_mission(config, seed);
}

sim::SimulationConfig sim_from(const util::Options& options) {
  sim::SimulationConfig config;
  config.dt = options.get_double("dt", 0.05);
  config.gps.rate_hz = options.get_double("gps-rate", 20.0);
  config.gps.noise_stddev = options.get_double("gps-noise", 0.0);
  config.use_navigation_filter = options.get_bool("nav-filter", false);
  // Intra-tick worker threads: 1 = serial (default), 0 = auto (all
  // hardware); bit-identical results for any value.
  config.sim_threads = options.get_int("sim-threads", 1);
  const std::string vehicle = options.get("vehicle", "pointmass");
  if (vehicle == "quadrotor" || vehicle == "quad") {
    config.vehicle = sim::VehicleType::kQuadrotor;
  } else if (vehicle == "pointmass" || vehicle == "point_mass") {
    config.vehicle = sim::VehicleType::kPointMass;
  } else {
    throw std::invalid_argument("unknown --vehicle: " + vehicle);
  }
  return config;
}

fuzz::FuzzerKind fuzzer_kind_from(const util::Options& options) {
  const std::string name = options.get("fuzzer", "swarmfuzz");
  if (name == "swarmfuzz") return fuzz::FuzzerKind::kSwarmFuzz;
  if (name == "random" || name == "r_fuzz") return fuzz::FuzzerKind::kRandom;
  if (name == "gradient" || name == "g_fuzz") return fuzz::FuzzerKind::kGradientOnly;
  if (name == "svg" || name == "s_fuzz") return fuzz::FuzzerKind::kSvgOnly;
  if (name == "evolutionary" || name == "e_fuzz") {
    return fuzz::FuzzerKind::kEvolutionary;
  }
  throw std::invalid_argument("unknown --fuzzer: " + name);
}

// The --fuzzer spelling that parses back to `kind` (fuzzer_kind_name() is a
// display name, not a flag value).
std::string_view fuzzer_flag_of(fuzz::FuzzerKind kind) {
  switch (kind) {
    case fuzz::FuzzerKind::kSwarmFuzz: return "swarmfuzz";
    case fuzz::FuzzerKind::kRandom: return "r_fuzz";
    case fuzz::FuzzerKind::kGradientOnly: return "g_fuzz";
    case fuzz::FuzzerKind::kSvgOnly: return "s_fuzz";
    case fuzz::FuzzerKind::kEvolutionary: return "e_fuzz";
  }
  return "swarmfuzz";
}

// The outcome-determining campaign configuration, shared by `campaign` and
// the sharded-service commands (serve/shard/merge must all rebuild the
// *same* configuration or campaign_config_hash validation rejects them).
// Observer/durability fields (checkpoint, telemetry, progress) are not set
// here — they are per-command concerns.
fuzz::CampaignConfig campaign_config_from(const util::Options& options) {
  fuzz::CampaignConfig config;
  config.mission.num_drones = options.get_int("drones", 5);
  config.fuzzer.sim = sim_from(options);
  config.fuzzer.spoof_distance = options.get_double("distance", 10.0);
  config.fuzzer.mission_budget = options.get_int("budget", 60);
  config.fuzzer.prefix_reuse = !options.get_bool("no-prefix-reuse", false);
  config.fuzzer.checkpoint_period = options.get_double("checkpoint-period", 1.0);
  config.num_missions = options.get_int("missions", 30);
  config.base_seed = static_cast<std::uint64_t>(options.get_int("seed", 1000));
  config.num_threads = options.get_int("threads", 0);
  // 0 = auto: run_campaign splits the hardware between mission workers and
  // per-worker eval threads (workers x eval threads <= hardware); an
  // explicit value is clamped to that budget.
  config.fuzzer.eval_threads = options.get_int("eval-threads", 0);
  config.kind = fuzzer_kind_from(options);
  // Fault containment: --mission-timeout bounds one mission's wall clock,
  // --eval-max-steps bounds each simulation's ticks; tripping either (or any
  // exception) retries the mission with a salted seed up to
  // --max-fault-retries times before it is quarantined.
  config.fuzzer.mission_timeout_s = options.get_double("mission-timeout", 0.0);
  config.fuzzer.eval_max_steps = options.get_int("eval-max-steps", 0);
  // E_Fuzz knobs (outcome-affecting, so they enter the config hash and the
  // service manifest; inert for every other --fuzzer). --corpus-dir is a
  // persistence location like --checkpoint and stays a per-command concern.
  config.fuzzer.evolution.novelty.bins =
      options.get_int("novelty-bins", config.fuzzer.evolution.novelty.bins);
  config.fuzzer.evolution.batch_size =
      options.get_int("evo-batch", config.fuzzer.evolution.batch_size);
  config.fuzzer.evolution.max_corpus =
      options.get_int("max-corpus", config.fuzzer.evolution.max_corpus);
  config.max_fault_retries = options.get_int("max-fault-retries", 2);
  config.clean_failure_retries =
      options.get_int("clean-retries", config.clean_failure_retries);
  config.fail_fast = options.get_bool("fail-fast", false);
  // Deterministic fault injection (tests/CI): also honoured from the
  // SWARMFUZZ_FAULT_INJECT environment variable via the usual env fallback.
  const std::string fault_plan = options.get("fault-inject", "");
  if (!fault_plan.empty()) {
    config.fault_injections = fuzz::parse_fault_plan(fault_plan);
  }
  if (options.has("controller")) {
    const std::string name = options.get("controller", "vasarhelyi");
    config.controller_factory = [name] { return make_controller(name); };
  }
  return config;
}

// Renders the *resolved* configuration back into canonical flags that
// campaign_config_from() parses to the identical CampaignConfig — the
// manifest payload of a sharded service. Values come from the built config
// (not the raw command line) so environment-variable fallbacks resolve at
// serve time, once, and every shard sees the same campaign. Doubles render
// with %.17g for bit-exact round-trips; the config hash stored alongside
// catches anything this list would ever miss.
std::vector<std::string> campaign_args_from(const fuzz::CampaignConfig& config,
                                            const util::Options& options) {
  std::vector<std::string> args;
  const auto add = [&args](std::string_view flag, const std::string& value) {
    args.push_back("--" + std::string{flag} + "=" + value);
  };
  const auto exact = [](double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return std::string{buffer};
  };
  add("drones", std::to_string(config.mission.num_drones));
  add("dt", exact(config.fuzzer.sim.dt));
  add("gps-rate", exact(config.fuzzer.sim.gps.rate_hz));
  add("gps-noise", exact(config.fuzzer.sim.gps.noise_stddev));
  add("nav-filter", config.fuzzer.sim.use_navigation_filter ? "true" : "false");
  add("vehicle", config.fuzzer.sim.vehicle == sim::VehicleType::kQuadrotor
                     ? "quadrotor"
                     : "pointmass");
  add("distance", exact(config.fuzzer.spoof_distance));
  add("budget", std::to_string(config.fuzzer.mission_budget));
  add("no-prefix-reuse", config.fuzzer.prefix_reuse ? "false" : "true");
  add("checkpoint-period", exact(config.fuzzer.checkpoint_period));
  add("missions", std::to_string(config.num_missions));
  add("seed", std::to_string(config.base_seed));
  add("fuzzer", std::string{fuzzer_flag_of(config.kind)});
  add("eval-threads", std::to_string(config.fuzzer.eval_threads));
  add("sim-threads", std::to_string(config.fuzzer.sim.sim_threads));
  add("mission-timeout", exact(config.fuzzer.mission_timeout_s));
  add("eval-max-steps", std::to_string(config.fuzzer.eval_max_steps));
  add("novelty-bins", std::to_string(config.fuzzer.evolution.novelty.bins));
  add("evo-batch", std::to_string(config.fuzzer.evolution.batch_size));
  add("max-corpus", std::to_string(config.fuzzer.evolution.max_corpus));
  add("max-fault-retries", std::to_string(config.max_fault_retries));
  add("clean-retries", std::to_string(config.clean_failure_retries));
  // Opaque option passthrough: the factory and injection list cannot be
  // rendered from the config, so their source flags carry over verbatim.
  // Both are rendered unconditionally (defaulted when unset) because
  // Options falls back to SWARMFUZZ_* environment variables for *absent*
  // flags — a shard process's environment must never skew the campaign
  // away from what serve resolved.
  add("controller", options.get("controller", "vasarhelyi"));
  add("fault-inject", options.get("fault-inject", ""));
  return args;
}

// Re-parses manifest args through the normal option parser, so shards and
// merges rebuild the campaign exactly as serve resolved it.
fuzz::CampaignConfig campaign_config_from_manifest(
    const fuzz::ServiceManifest& manifest) {
  std::vector<const char*> argv;
  argv.push_back("swarmfuzz");
  argv.reserve(manifest.campaign_args.size() + 1);
  for (const std::string& arg : manifest.campaign_args) {
    argv.push_back(arg.c_str());
  }
  const util::Options options =
      util::Options::parse(static_cast<int>(argv.size()), argv.data());
  fuzz::CampaignConfig config = campaign_config_from(options);
  const std::string hash = fuzz::campaign_config_hash(config);
  if (hash != manifest.config_hash) {
    throw std::runtime_error(
        "service: rebuilt campaign hashes to " + hash + " but the manifest "
        "says " + manifest.config_hash +
        " (edited manifest, or a drifted binary?); refusing to shard");
  }
  return config;
}

// What `--wait` timeouts print instead of a bare exit code: every incomplete
// lease with its range, progress, owner, and last-heartbeat age.
void print_incomplete_report(const char* who, const std::string& dir,
                             const fuzz::ServiceManifest& manifest) {
  try {
    const fuzz::LeaseTable table = fuzz::load_lease_table(
        dir, manifest.num_missions, manifest.num_leases);
    const auto now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::system_clock::now().time_since_epoch())
                            .count();
    const std::string report = fuzz::describe_incomplete_leases(
        fuzz::probe_lease_health(dir, table, manifest.lease_ttl_ms, now_ms));
    if (!report.empty()) {
      std::fprintf(stderr, "%s: incomplete leases:\n%s", who, report.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: cannot probe lease health: %s\n", who, e.what());
  }
}

fuzz::CoordinatorConfig coordinator_config_from(
    const util::Options& options, const std::string& dir,
    const fuzz::ServiceManifest& manifest) {
  fuzz::CoordinatorConfig config;
  config.dir = dir;
  config.num_missions = manifest.num_missions;
  config.num_leases = manifest.num_leases;
  config.lease_ttl_ms = manifest.lease_ttl_ms;
  config.poll_ms = static_cast<std::int64_t>(
      options.get_double("coordinate-poll", 1.0) * 1000.0);
  if (config.poll_ms < 1) {
    throw std::invalid_argument("serve: --coordinate-poll must be positive");
  }
  config.stale_heartbeat_periods =
      options.get_double("stale-heartbeat-periods", config.stale_heartbeat_periods);
  config.straggler_rate_fraction =
      options.get_double("straggler-rate-fraction", config.straggler_rate_fraction);
  config.min_observations =
      options.get_int("min-observations", config.min_observations);
  config.stall_factor = options.get_double("stall-factor", config.stall_factor);
  config.min_recarve_missions =
      options.get_int("min-recarve-missions", config.min_recarve_missions);
  config.recarve_pieces = options.get_int("recarve-pieces", config.recarve_pieces);
  return config;
}

}  // namespace

// Shared report tail of `campaign` and `merge`: --summary / --json / the
// human-readable stats block. Defined below cmd_campaign.
int emit_campaign_report(const fuzz::CampaignResult& result,
                         const util::Options& options,
                         const std::string& quarantine_path);

std::shared_ptr<const swarm::SwarmController> make_controller(std::string_view name) {
  if (name == "vasarhelyi" || name == "vicsek" || name.empty()) {
    return std::make_shared<swarm::VasarhelyiController>();
  }
  if (name == "olfati" || name == "olfati_saber") {
    return std::make_shared<swarm::OlfatiSaberController>();
  }
  if (name == "reynolds" || name == "boids") {
    return std::make_shared<swarm::ReynoldsController>();
  }
  throw std::invalid_argument("unknown --controller: " + std::string{name});
}

int cmd_run(const util::Options& options) {
  const sim::MissionSpec mission = mission_from(options);
  auto controller = make_controller(options.get("controller", "vasarhelyi"));
  swarm::FlockingControlSystem system(controller);
  const sim::Simulator simulator(sim_from(options));
  const sim::RunResult result = simulator.run(mission, system);

  std::printf("controller=%s drones=%d seed=%llu\n", controller->name().data(),
              mission.num_drones(), static_cast<unsigned long long>(mission.seed));
  std::printf("%s in %.1f s, collisions: %s\n",
              result.reached_destination ? "arrived" : "timed out", result.end_time,
              result.collided ? "YES" : "none");
  for (int i = 0; i < mission.num_drones(); ++i) {
    std::printf("  drone %2d VDO %.2f m\n", i, result.vdo(i));
  }
  return result.collided ? 1 : 0;
}

int cmd_fuzz(const util::Options& options) {
  const sim::MissionSpec mission = mission_from(options);
  fuzz::FuzzerConfig config;
  config.sim = sim_from(options);
  config.spoof_distance = options.get_double("distance", 10.0);
  config.mission_budget = options.get_int("budget", 60);
  config.prefix_reuse = !options.get_bool("no-prefix-reuse", false);
  config.checkpoint_period = options.get_double("checkpoint-period", 1.0);
  config.mission_timeout_s = options.get_double("mission-timeout", 0.0);
  config.eval_max_steps = options.get_int("eval-max-steps", 0);
  // --eval-threads=N fans the gradient search's evaluation batches out over
  // N worker threads (0 = hardware concurrency divided by an explicit
  // --sim-threads); results are bit-identical to --eval-threads=1.
  config.eval_threads = options.get_int("eval-threads", 1);
  // E_Fuzz: novelty resolution, batch size, and the anytime corpus
  // directory (load before searching, save the minimized corpus after).
  config.evolution.novelty.bins =
      options.get_int("novelty-bins", config.evolution.novelty.bins);
  config.evolution.batch_size =
      options.get_int("evo-batch", config.evolution.batch_size);
  config.evolution.max_corpus =
      options.get_int("max-corpus", config.evolution.max_corpus);
  config.evolution.corpus_dir = options.get("corpus-dir", "");
  if (!config.evolution.corpus_dir.empty()) {
    std::filesystem::create_directories(config.evolution.corpus_dir);
  }
  auto fuzzer = fuzz::make_fuzzer(fuzzer_kind_from(options), config,
                                  make_controller(options.get("controller", "")));
  const fuzz::FuzzResult result = fuzzer->fuzz(mission);
  if (options.get_bool("json", false)) {
    std::printf("%s\n", fuzz::to_json(result).c_str());
    return result.clean_run_failed ? 2 : 0;
  }
  if (result.clean_run_failed) {
    std::printf("clean run collided; mission not fuzzable\n");
    return 2;
  }
  std::printf("%s: %d iterations, %d simulations, mission VDO %.2f m\n",
              fuzzer->name().data(), result.iterations, result.simulations,
              result.mission_vdo);
  if (result.corpus_admissions > 0) {
    std::printf("  corpus  %d entries, %d novelty bins, %d admissions\n",
                result.corpus_size, result.novelty_bins,
                result.corpus_admissions);
  }
  if (result.eval_parallelism > 1) {
    std::printf("  eval parallelism  %d threads, %d batches\n",
                result.eval_parallelism, result.eval_batches);
  }
  if (result.no_seeds) {
    std::printf("no seeds: SVG scheduling found no target-victim pairs\n");
    return 0;
  }
  if (!result.found) {
    std::printf("no SPV found: mission resilient at %.0f m spoofing\n",
                config.spoof_distance);
    return 0;
  }
  std::printf("SPV: %s -> victim %d (clean VDO %.2f m)\n",
              result.plan.to_string().c_str(), result.victim, result.victim_vdo);
  return 0;
}

int cmd_campaign(const util::Options& options) {
  fuzz::CampaignConfig config = campaign_config_from(options);

  // Durability/observability: --checkpoint=PATH appends one JSONL record per
  // completed mission; with --resume, records already at PATH satisfy their
  // missions and only the remainder runs. --telemetry=PATH streams the same
  // records to a separate file (useful when the checkpoint is per-run).
  config.checkpoint_path = options.get("checkpoint", "");
  config.resume = options.get_bool("resume", false);
  // Quarantine defaults to riding alongside the checkpoint.
  config.quarantine_path =
      options.get("quarantine", config.checkpoint_path.empty()
                                    ? ""
                                    : config.checkpoint_path + ".quarantine");
  std::unique_ptr<fuzz::JsonlTelemetrySink> telemetry;
  const std::string telemetry_path = options.get("telemetry", "");
  if (!telemetry_path.empty()) {
    telemetry = std::make_unique<fuzz::JsonlTelemetrySink>(telemetry_path,
                                                           /*append=*/true);
    config.telemetry = telemetry.get();
  }
  if (options.get_bool("progress", true)) {
    config.on_progress = [](const fuzz::CampaignProgress& p) {
      // Live status line. Rate and ETA come from CampaignProgress itself,
      // which bases both on missions completed *this session* — checkpoint
      // replays are free and must not inflate throughput after a resume.
      if (p.faulted > 0) {
        std::fprintf(stderr,
                     "\r%d/%d missions  %d SPVs  %d faulted  %.2f/s  "
                     "%.0fs elapsed  ETA %.0fs ",
                     p.completed, p.total, p.found, p.faulted, p.rate_per_s(),
                     p.elapsed_s, p.eta_s());
      } else {
        std::fprintf(stderr,
                     "\r%d/%d missions  %d SPVs  %.2f/s  %.0fs elapsed  "
                     "ETA %.0fs ",
                     p.completed, p.total, p.found, p.rate_per_s(), p.elapsed_s,
                     p.eta_s());
      }
      if (p.completed == p.total) std::fputc('\n', stderr);
      std::fflush(stderr);
    };
  }

  const fuzz::CampaignResult result = fuzz::run_campaign(config);
  return emit_campaign_report(result, options, config.quarantine_path);
}

int emit_campaign_report(const fuzz::CampaignResult& result,
                         const util::Options& options,
                         const std::string& quarantine_path) {
  const fuzz::CampaignConfig& config = result.config;
  // --summary=FILE persists the JSON report atomically (write-temp-then-
  // rename), so a crash mid-write can never leave a half-written report
  // where a dashboard or a later pipeline stage expects a complete one.
  const std::string summary_path = options.get("summary", "");
  if (!summary_path.empty()) {
    util::write_file_atomic(summary_path, fuzz::to_json(result) + "\n");
  }
  if (options.get_bool("json", false)) {
    std::printf("%s\n", fuzz::to_json(result).c_str());
    return 0;
  }
  const auto ci = math::wilson_interval(result.num_found(), result.num_fuzzable());
  std::printf("%s, %d drones, %.0f m spoofing, %d missions:\n",
              fuzz::fuzzer_kind_name(config.kind).data(), config.mission.num_drones,
              config.fuzzer.spoof_distance, config.num_missions);
  std::printf("  success rate      %.1f%%  (95%% CI %.1f%% - %.1f%%)\n",
              result.success_rate() * 100.0, ci.low * 100.0, ci.high * 100.0);
  std::printf("  avg iterations    %s (all) / %s (successful)\n",
              util::format_double(result.avg_iterations_all()).c_str(),
              util::format_double(result.avg_iterations_successful()).c_str());
  const auto vdos = result.mission_vdos();
  std::printf("  mission VDO       median %.2f m\n", math::median(vdos));
  const std::int64_t executed = result.total_sim_steps_executed();
  const std::int64_t reused = result.total_prefix_steps_reused();
  if (executed + reused > 0) {
    std::printf("  prefix reuse      %.1f%% of %lld sim steps skipped\n",
                100.0 * static_cast<double>(reused) /
                    static_cast<double>(executed + reused),
                static_cast<long long>(executed + reused));
  }
  if (result.num_no_seeds() > 0) {
    std::printf("  no-seed missions  %d (SVG scheduling found nothing to fuzz)\n",
                result.num_no_seeds());
  }
  if (result.num_faulted() > 0) {
    std::printf(
        "  faults            %d (%d divergence, %d timeout, %d exception, "
        "%d clean-run failed)\n",
        result.num_faulted(),
        result.fault_count(sim::FaultKind::kNumericalDivergence),
        result.fault_count(sim::FaultKind::kTimeout),
        result.fault_count(sim::FaultKind::kException),
        result.fault_count(sim::FaultKind::kCleanRunFailed));
    if (!quarantine_path.empty()) {
      std::printf("  quarantine        %s\n", quarantine_path.c_str());
    }
  }
  return 0;
}

int cmd_serve(const util::Options& options) {
  const std::string dir = options.get("dir", "");
  if (dir.empty()) {
    throw std::invalid_argument("serve: --dir=DIR is required");
  }
  const fuzz::CampaignConfig config = campaign_config_from(options);

  fuzz::ServiceManifest manifest;
  manifest.config_hash = fuzz::campaign_config_hash(config);
  manifest.num_missions = config.num_missions;
  // Default carve: a few leases per expected worker keeps tail latency low
  // (a straggler only strands one small range) without per-mission file
  // churn.
  manifest.num_leases =
      std::clamp(options.get_int("leases", 8), 1, config.num_missions);
  manifest.lease_ttl_ms = static_cast<std::int64_t>(
      options.get_double("lease-ttl", 30.0) * 1000.0);
  if (manifest.lease_ttl_ms < 1) {
    throw std::invalid_argument("serve: --lease-ttl must be positive");
  }
  manifest.campaign_args = campaign_args_from(config, options);
  fuzz::write_manifest(dir, manifest);

  std::printf("service %s: %d missions in %d leases, ttl %.1fs, config %s\n",
              dir.c_str(), manifest.num_missions, manifest.num_leases,
              static_cast<double>(manifest.lease_ttl_ms) / 1000.0,
              manifest.config_hash.c_str());
  for (const fuzz::LeaseRange& lease :
       fuzz::carve_leases(manifest.num_missions, manifest.num_leases)) {
    std::printf("  lease %-3d missions %d..%d\n", lease.lease_id, lease.begin,
                lease.end - 1);
  }
  std::printf("start workers:  swarmfuzz shard --dir=%s --owner=<unique>\n",
              dir.c_str());
  std::printf("then merge:     swarmfuzz merge --dir=%s [--wait]\n", dir.c_str());

  // --coordinate: stay resident as the adaptive coordinator — watch
  // heartbeats and completion rates, re-carve stragglers' unfinished tails
  // (fuzz/coordinator.h) — until the service completes or the timeout hits.
  if (options.get_bool("coordinate", false)) {
    fuzz::Coordinator coordinator(
        coordinator_config_from(options, dir, manifest));
    const double timeout_s = options.get_double("coordinate-timeout", 0.0);
    const bool complete =
        coordinator.run(static_cast<std::int64_t>(timeout_s * 1000.0));
    const fuzz::CoordinatorStats& stats = coordinator.stats();
    std::printf(
        "coordinator: %d polls, %d re-carves (%d sub-leases, %d heals)\n",
        stats.polls, stats.recarves, stats.subleases, stats.heals);
    if (!complete) {
      std::fprintf(stderr, "serve: coordination timed out after %.1fs\n",
                   timeout_s);
      print_incomplete_report("serve", dir, manifest);
      return 1;
    }
    return 0;
  }

  // --wait: passively block until every active lease is done (external
  // workers drive all progress), reporting the stuck leases on timeout.
  if (options.get_bool("wait", false)) {
    const double timeout_s = options.get_double("wait-timeout", 0.0);
    if (!fuzz::wait_for_service(dir, manifest.num_missions,
                                manifest.num_leases,
                                static_cast<std::int64_t>(timeout_s * 1000.0))) {
      std::fprintf(stderr, "serve: timed out waiting for service %s\n",
                   dir.c_str());
      print_incomplete_report("serve", dir, manifest);
      return 1;
    }
  }
  return 0;
}

int cmd_shard(const util::Options& options) {
  const std::string dir = options.get("dir", "");
  if (dir.empty()) {
    throw std::invalid_argument("shard: --dir=DIR is required");
  }
  const fuzz::ServiceManifest manifest = fuzz::load_manifest(dir);

  fuzz::ShardWorkerConfig worker;
  worker.campaign = campaign_config_from_manifest(manifest);
  worker.dir = dir;
  worker.num_leases = manifest.num_leases;
  worker.lease_ttl_ms = manifest.lease_ttl_ms;
  // Default owner: hostname-independent but unique per process.
  worker.owner = options.get(
      "owner", "shard-" + std::to_string(static_cast<long long>(getpid())));
  // --chaos=kill@i,torn-write@i,hang@i,eio@i[xN] (also SWARMFUZZ_CHAOS):
  // deterministic failure injection for tests and the CI chaos-smoke job.
  worker.chaos = fuzz::parse_chaos_plan(options.get("chaos", ""));
  // Transport retry jitter is seeded from the campaign seed so chaos runs
  // replay the exact same backoff schedule.
  util::io_retrier().set_jitter_seed(worker.campaign.base_seed);

  const fuzz::ShardWorkerStats stats = fuzz::run_shard_worker(worker);
  const util::RetryCounters retries = util::io_retrier().counters();
  std::printf(
      "shard %s: %d leases claimed (%d abandoned, %d on I/O), %d missions "
      "run, %d resumed; transport: %lld attempts, %lld retries\n",
      worker.owner.c_str(), stats.leases_claimed, stats.leases_abandoned,
      stats.io_aborts, stats.missions_run, stats.missions_resumed,
      static_cast<long long>(retries.attempts),
      static_cast<long long>(retries.retries));
  return 0;
}

int cmd_merge(const util::Options& options) {
  const std::string dir = options.get("dir", "");
  if (dir.empty()) {
    throw std::invalid_argument("merge: --dir=DIR is required");
  }
  const fuzz::ServiceManifest manifest = fuzz::load_manifest(dir);
  const fuzz::CampaignConfig config = campaign_config_from_manifest(manifest);

  if (options.get_bool("wait", false)) {
    const double timeout_s = options.get_double("wait-timeout", 0.0);
    if (!fuzz::wait_for_service(dir, manifest.num_missions,
                                manifest.num_leases,
                                static_cast<std::int64_t>(timeout_s * 1000.0))) {
      std::fprintf(stderr, "merge: timed out waiting for service %s\n",
                   dir.c_str());
      print_incomplete_report("merge", dir, manifest);
      return 1;
    }
  }

  const bool allow_partial = options.get_bool("allow-partial", false);
  fuzz::ShardMergeStats stats;
  const fuzz::CampaignResult result =
      fuzz::merge_shards(config, dir, allow_partial, &stats);
  std::fprintf(stderr, "merge: %d shard files, %d records, %d duplicates\n",
               stats.shard_files, stats.records, stats.duplicates);

  // --allow-partial: record what is missing machine-readably. holes.json +
  // `resume-holes` turn an abandoned campaign's gaps back into claimable
  // leases. Any complete merge — partial-tolerant or not — deletes a stale
  // manifest so nothing ever resumes holes that no longer exist.
  {
    const std::vector<fuzz::MissionHole> holes =
        fuzz::missing_mission_ranges(result);
    if (holes.empty()) {
      std::error_code ec;
      std::filesystem::remove(fuzz::holes_path(dir), ec);
    } else {
      fuzz::HolesManifest manifest_out;
      manifest_out.config_hash = manifest.config_hash;
      manifest_out.num_missions = manifest.num_missions;
      manifest_out.holes = holes;
      fuzz::write_holes(dir, manifest_out);
      int missing = 0;
      for (const fuzz::MissionHole& hole : holes) missing += hole.size();
      std::fprintf(stderr,
                   "merge: partial — %d missions in %d hole(s); wrote %s "
                   "(finish with `swarmfuzz resume-holes --dir=%s`)\n",
                   missing, static_cast<int>(holes.size()),
                   fuzz::holes_path(dir).c_str(), dir.c_str());
    }
  }

  // --golden=FILE: compare the merged result against a single-process run's
  // checkpoint/telemetry stream; exit 3 on divergence. This is the CI
  // bit-identical guarantee, executable anywhere.
  const std::string golden_path = options.get("golden", "");
  if (!golden_path.empty()) {
    fuzz::CampaignResult golden;
    golden.config = config;
    golden.outcomes.resize(static_cast<std::size_t>(config.num_missions));
    for (int i = 0; i < config.num_missions; ++i) {
      golden.outcomes[static_cast<std::size_t>(i)].mission_index = i;
    }
    for (const fuzz::TelemetryRecord& record :
         fuzz::load_telemetry(golden_path)) {
      fuzz::validate_checkpoint_record(record, config);
      fuzz::MissionOutcome& outcome =
          golden.outcomes[static_cast<std::size_t>(record.mission_index)];
      if (outcome.completed) continue;
      outcome.completed = true;
      outcome.mission_seed = record.mission_seed;
      outcome.wall_time_s = record.wall_time_s;
      outcome.result = record.result;
      outcome.fault = record.fault;
      outcome.fault_detail = record.fault_detail;
      outcome.fault_attempts = record.fault_attempts;
    }
    if (!fuzz::deterministic_equal(result, golden)) {
      std::fprintf(stderr,
                   "merge: MISMATCH against golden %s (merged report is not "
                   "bit-identical)\n",
                   golden_path.c_str());
      return 3;
    }
    std::printf("merge: bit-identical to golden %s\n", golden_path.c_str());
  }

  return emit_campaign_report(result, options, "");
}

int cmd_resume_holes(const util::Options& options) {
  const std::string dir = options.get("dir", "");
  if (dir.empty()) {
    throw std::invalid_argument("resume-holes: --dir=DIR is required");
  }
  const fuzz::ServiceManifest manifest = fuzz::load_manifest(dir);
  const fuzz::HolesManifest holes = fuzz::load_holes(dir);
  const int created = fuzz::resume_holes(dir, manifest, holes);
  int missing = 0;
  for (const fuzz::MissionHole& hole : holes.holes) missing += hole.size();
  std::printf(
      "resume-holes %s: %d missing missions in %d hole(s), %d new lease(s) "
      "created\n",
      dir.c_str(), missing, static_cast<int>(holes.holes.size()), created);
  std::printf("start workers:  swarmfuzz shard --dir=%s --owner=<unique>\n",
              dir.c_str());
  return 0;
}

int cmd_svg(const util::Options& options) {
  const sim::MissionSpec mission = mission_from(options);
  auto controller = make_controller(options.get("controller", "vasarhelyi"));
  swarm::FlockingControlSystem system(controller);
  const sim::Simulator simulator(sim_from(options));
  const sim::RunResult clean = simulator.run(mission, system);
  if (clean.collided) {
    std::printf("clean run collided; no SVG\n");
    return 2;
  }
  const double distance = options.get_double("distance", 10.0);
  const auto seeds = fuzz::schedule_seeds(clean, mission, system, distance);
  util::TextTable table({"#", "target", "victim", "dir", "VDO", "influence"});
  int index = 0;
  for (const fuzz::Seed& s : seeds) {
    table.add_row({std::to_string(index++), std::to_string(s.target),
                   std::to_string(s.victim),
                   std::string{attack::direction_name(s.direction)},
                   util::format_double(s.vdo), util::format_double(s.influence, 3)});
  }
  std::printf("%s", table.render("Seedpool (fuzzing order)").c_str());
  return 0;
}

int cmd_replay(const util::Options& options) {
  const sim::MissionSpec mission = mission_from(options);
  const attack::SpoofingPlan plan{
      .target = options.get_int("target", 0),
      .direction = options.get("direction", "right") == "left"
                       ? attack::SpoofDirection::kLeft
                       : attack::SpoofDirection::kRight,
      .start_time = options.get_double("start", 30.0),
      .duration = options.get_double("duration", 10.0),
      .distance = options.get_double("distance", 10.0),
  };
  auto controller = make_controller(options.get("controller", "vasarhelyi"));
  swarm::FlockingControlSystem system(controller);
  const sim::Simulator simulator(sim_from(options));
  const attack::GpsSpoofer spoofer(plan, mission);

  defense::SwarmDetectionMonitor monitor(
      mission.num_drones(),
      defense::DetectorConfig{.threshold = options.get_double("detect-threshold", 10.0)});
  const bool detect = options.get_bool("detect", false);
  const sim::RunResult result =
      simulator.run(mission, system, &spoofer, detect ? &monitor : nullptr);

  std::printf("replayed %s\n", plan.to_string().c_str());
  if (result.first_collision) {
    const auto& event = *result.first_collision;
    std::printf("collision: drone %d vs %s %d at t=%.1f s\n", event.drone,
                event.kind == sim::CollisionKind::kDroneObstacle ? "obstacle" : "drone",
                event.other, event.time);
  } else {
    std::printf("no collision (mission %s in %.1f s)\n",
                result.reached_destination ? "completed" : "ended", result.end_time);
  }
  if (detect) {
    const defense::DetectionReport report = monitor.report();
    if (report.detected) {
      std::printf("defense: spoofing DETECTED on drone %d at t=%.1f s\n",
                  report.drone, report.time);
    } else {
      std::printf("defense: not detected (peak innovation %.2f m)\n",
                  report.peak_innovation);
    }
  }
  return 0;
}

int print_usage() {
  std::printf(
      "swarmfuzz - discovering GPS-spoofing attacks in drone swarms\n\n"
      "usage: swarmfuzz <command> [options]\n\n"
      "commands:\n"
      "  run        fly one mission without attack\n"
      "             [--sim-threads=N] (intra-tick worker threads, 0 = all\n"
      "             cores, 1 = serial; bit-identical results for any N)\n"
      "  fuzz       search one mission for SPVs\n"
      "             (--fuzzer=swarmfuzz|random|gradient|svg|evolutionary)\n"
      "             [--no-prefix-reuse] [--checkpoint-period=S]\n"
      "             [--mission-timeout=S] [--eval-max-steps=N]\n"
      "             evolutionary (E_Fuzz): [--novelty-bins=N] (signature\n"
      "             resolution, default 16) [--evo-batch=N] [--max-corpus=N]\n"
      "             [--corpus-dir=DIR] (anytime mode: resume/save the\n"
      "             per-mission corpus)\n"
      "             [--eval-threads=N] (parallel batch evaluation, 0 = auto\n"
      "             from what sim threads leave free; bit-identical results\n"
      "             for any N)\n"
      "             [--sim-threads=N] (intra-tick threads per simulation,\n"
      "             0 = auto from what eval threads leave free)\n"
      "  campaign   evaluate a configuration over many missions\n"
      "             [--telemetry=FILE] [--checkpoint=FILE [--resume]]\n"
      "             [--progress=false] [--no-prefix-reuse] [--checkpoint-period=S]\n"
      "             [--eval-threads=N] [--sim-threads=N] (per-worker budget;\n"
      "             0 = auto-split so workers x eval x sim <= hardware)\n"
      "             [--summary=FILE] (atomic JSON report)\n"
      "             fault containment: [--mission-timeout=S] (wall-clock budget\n"
      "             per mission) [--eval-max-steps=N] (sim-step budget per\n"
      "             evaluation) [--max-fault-retries=N] (salted re-runs before\n"
      "             quarantine, default 2) [--fail-fast] [--quarantine=FILE]\n"
      "             (default <checkpoint>.quarantine)\n"
      "             [--fault-inject=mode@idx[:t][xN],...] (nan|throw|hang; test\n"
      "             hook, also read from SWARMFUZZ_FAULT_INJECT)\n"
      "             [--novelty-bins=N] [--evo-batch=N] [--max-corpus=N]\n"
      "             (E_Fuzz knobs; enter the campaign config hash)\n"
      "  svg        print the Swarm Vulnerability Graph seedpool\n"
      "  replay     execute an explicit spoofing plan (--target --direction\n"
      "             --start --duration --distance) [--detect]\n"
      "  serve      initialize a sharded campaign service: --dir=DIR plus the\n"
      "             campaign options above; [--leases=K] (default 8)\n"
      "             [--lease-ttl=S] (worker heartbeat TTL, default 30)\n"
      "             [--coordinate [--coordinate-timeout=S]] (stay resident:\n"
      "             watch heartbeats/progress, re-carve stragglers' tails;\n"
      "             knobs: --coordinate-poll=S --stale-heartbeat-periods=X\n"
      "             --straggler-rate-fraction=X --min-observations=N\n"
      "             --stall-factor=X --min-recarve-missions=N\n"
      "             --recarve-pieces=N)\n"
      "             [--wait [--wait-timeout=S]] (block until workers finish;\n"
      "             on timeout, report each incomplete lease)\n"
      "  shard      run one worker against a service: --dir=DIR\n"
      "             [--owner=NAME] (unique per worker; default shard-<pid>)\n"
      "             claims leases, reclaims expired ones, resumes partial\n"
      "             ranges; exits when every lease is done\n"
      "             [--chaos=kill|hang|torn-write|eio@idx[xN],...] (failure\n"
      "             injection; also read from SWARMFUZZ_CHAOS)\n"
      "  merge      merge shard streams into the campaign report: --dir=DIR\n"
      "             [--wait [--wait-timeout=S]] (on timeout, report each\n"
      "             incomplete lease) [--allow-partial] (merge what exists;\n"
      "             writes machine-readable holes.json for resume-holes)\n"
      "             [--golden=FILE] (exit 3 unless bit-identical to a\n"
      "             single-process checkpoint) [--summary=FILE] [--json]\n"
      "  resume-holes  turn a partial merge's holes.json back into claimable\n"
      "             leases: --dir=DIR; then restart shard workers\n\n"
      "common options: --drones=N --seed=N --distance=M --controller=vasarhelyi|\n"
      "                olfati|reynolds --dt=S --gps-rate=HZ --nav-filter\n"
      "                --vehicle=pointmass|quadrotor --spawn-range=M (spawn box\n"
      "                edge; widen for swarms above ~30 drones)\n"
      "<command> --help prints this usage; a flag the command does not read\n"
      "is an error (exit 2).\n");
  return 64;
}

namespace {

// The flags each subcommand reads, grouped the way the option readers above
// share them. Anything else on a command line is a typo the command would
// silently ignore (running with its defaults), so dispatch rejects it.
constexpr std::string_view kMissionFlags[] = {"drones", "obstacles", "spawn-range", "seed"};
constexpr std::string_view kSimFlags[] = {"dt", "gps-rate", "gps-noise", "nav-filter",
                                          "sim-threads", "vehicle"};
constexpr std::string_view kCampaignFlags[] = {
    "drones", "distance", "budget", "no-prefix-reuse", "checkpoint-period",
    "missions", "seed", "threads", "eval-threads", "fuzzer", "mission-timeout",
    "eval-max-steps", "novelty-bins", "evo-batch", "max-corpus",
    "max-fault-retries", "clean-retries", "fail-fast", "fault-inject",
    "controller"};
constexpr std::string_view kReportFlags[] = {"summary", "json"};
constexpr std::string_view kRunFlags[] = {"controller"};
constexpr std::string_view kFuzzFlags[] = {
    "distance", "budget", "no-prefix-reuse", "checkpoint-period",
    "mission-timeout", "eval-max-steps", "eval-threads", "novelty-bins",
    "evo-batch", "max-corpus", "corpus-dir", "fuzzer", "controller", "json"};
constexpr std::string_view kCampaignOnlyFlags[] = {"checkpoint", "resume", "quarantine",
                                                   "telemetry", "progress"};
constexpr std::string_view kSvgFlags[] = {"controller", "distance"};
constexpr std::string_view kReplayFlags[] = {"target", "direction", "start",
                                             "duration", "distance", "controller",
                                             "detect", "detect-threshold"};
constexpr std::string_view kServeFlags[] = {
    "dir", "leases", "lease-ttl", "coordinate", "coordinate-timeout",
    "coordinate-poll", "stale-heartbeat-periods", "straggler-rate-fraction",
    "min-observations", "stall-factor", "min-recarve-missions", "recarve-pieces",
    "wait", "wait-timeout"};
constexpr std::string_view kShardFlags[] = {"dir", "owner", "chaos"};
constexpr std::string_view kMergeFlags[] = {"dir", "wait", "wait-timeout",
                                            "allow-partial", "golden"};
constexpr std::string_view kDirFlag[] = {"dir"};

struct Command {
  std::string_view name;
  int (*run)(const util::Options&);
  std::vector<std::span<const std::string_view>> flags;
};

const Command* find_command(std::string_view name) {
  static const std::vector<Command> table = {
      {"run", cmd_run, {kMissionFlags, kSimFlags, kRunFlags}},
      {"fuzz", cmd_fuzz, {kMissionFlags, kSimFlags, kFuzzFlags}},
      {"campaign", cmd_campaign,
       {kCampaignFlags, kSimFlags, kCampaignOnlyFlags, kReportFlags}},
      {"svg", cmd_svg, {kMissionFlags, kSimFlags, kSvgFlags}},
      {"replay", cmd_replay, {kMissionFlags, kSimFlags, kReplayFlags}},
      {"serve", cmd_serve, {kCampaignFlags, kSimFlags, kServeFlags}},
      {"shard", cmd_shard, {kShardFlags}},
      {"merge", cmd_merge, {kMergeFlags, kReportFlags}},
      {"resume-holes", cmd_resume_holes, {kDirFlag}},
  };
  for (const Command& command : table) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

bool has_help_flag(const util::Options& options) {
  const std::vector<std::string> given = options.flags();
  return std::find(given.begin(), given.end(), "help") != given.end();
}

}  // namespace

std::vector<std::string> unknown_flags(std::string_view command,
                                       const util::Options& options) {
  const Command* entry = find_command(command);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown command: " + std::string{command});
  }
  std::vector<std::string> unknown;
  for (const std::string& flag : options.flags()) {
    const auto reads = [&](std::span<const std::string_view> group) {
      return std::find(group.begin(), group.end(), flag) != group.end();
    };
    if (flag != "help" && std::none_of(entry->flags.begin(), entry->flags.end(), reads)) {
      unknown.push_back(flag);
    }
  }
  return unknown;
}

int dispatch(int argc, const char* const* argv) {
  const util::Options options = util::Options::parse(argc, argv);
  const bool help = has_help_flag(options);
  if (options.positional().empty()) {
    const int code = print_usage();
    return help ? 0 : code;
  }
  const std::string& name = options.positional().front();
  const Command* command = find_command(name);
  if (command == nullptr) {
    std::fprintf(stderr, "unknown command: %s\n\n", name.c_str());
    return print_usage();
  }
  if (help) {
    print_usage();
    return 0;
  }
  if (const std::vector<std::string> unknown = unknown_flags(name, options);
      !unknown.empty()) {
    for (const std::string& flag : unknown) {
      std::fprintf(stderr, "swarmfuzz %s: unknown flag --%s\n", name.c_str(),
                   flag.c_str());
    }
    std::fprintf(stderr, "see 'swarmfuzz %s --help'\n", name.c_str());
    return 2;
  }
  try {
    return command->run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace swarmfuzz::cli
