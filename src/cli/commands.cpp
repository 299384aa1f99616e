#include "cli/commands.h"

#include <algorithm>
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
#include "fuzz/fuzzer.h"
#include "fuzz/serialize.h"
#include "graph/pagerank.h"
#include "math/stats.h"
#include "swarm/flocking_system.h"
#include "swarm/olfati_saber.h"
#include "swarm/reynolds.h"
#include "swarm/vasarhelyi.h"
#include "util/fileio.h"
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

// The campaign configuration on the command line, except the observer and
// durability fields (checkpoint, telemetry, progress) cmd_campaign sets.
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
  // E_Fuzz knobs (outcome-affecting, so they enter the config hash; inert
  // for every other --fuzzer). --corpus-dir is a persistence location like
  // --checkpoint and stays a per-command concern.
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

}  // namespace

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
    if (!config.quarantine_path.empty()) {
      std::printf("  quarantine        %s\n", config.quarantine_path.c_str());
    }
  }
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
      "             [--threads=N] (mission workers, 0 = all cores)\n"
      "             [--checkpoint=FILE [--resume]] (one CRC-framed record per\n"
      "             mission; a killed campaign re-run with --resume runs only\n"
      "             the missing missions) [--telemetry=FILE]\n"
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
      "             --start --duration --distance) [--detect]\n\n"
      "common options: --drones=N --seed=N --distance=M --controller=vasarhelyi|\n"
      "                olfati|reynolds --dt=S --gps-rate=HZ --nav-filter\n"
      "                --vehicle=pointmass|quadrotor --spawn-range=M (spawn box\n"
      "                edge; widen for swarms above ~30 drones)\n"
      "<command> --help prints this usage; a flag the command does not read\n"
      "is an error (exit 2), and so is a malformed number or boolean (exit 1).\n");
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
constexpr std::string_view kRunFlags[] = {"controller"};
constexpr std::string_view kFuzzFlags[] = {
    "distance", "budget", "no-prefix-reuse", "checkpoint-period",
    "mission-timeout", "eval-max-steps", "eval-threads", "novelty-bins",
    "evo-batch", "max-corpus", "corpus-dir", "fuzzer", "controller", "json"};
constexpr std::string_view kCampaignOnlyFlags[] = {
    "checkpoint", "resume", "quarantine", "telemetry", "progress", "summary", "json"};
constexpr std::string_view kSvgFlags[] = {"controller", "distance"};
constexpr std::string_view kReplayFlags[] = {"target", "direction", "start",
                                             "duration", "distance", "controller",
                                             "detect", "detect-threshold"};

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
       {kCampaignFlags, kSimFlags, kCampaignOnlyFlags}},
      {"svg", cmd_svg, {kMissionFlags, kSimFlags, kSvgFlags}},
      {"replay", cmd_replay, {kMissionFlags, kSimFlags, kReplayFlags}},
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
