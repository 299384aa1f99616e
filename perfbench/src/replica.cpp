#include "replica.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

namespace fz = swarmfuzz::fuzz;
namespace sim = swarmfuzz::sim;

ReplicaSwarmFuzzer::ReplicaSwarmFuzzer(const fz::FuzzerConfig& config,
                                       std::shared_ptr<TimedController> controller,
                                       Tracer& tracer)
    : config_(config),
      controller_(std::move(controller)),
      tracer_(tracer),
      system_(controller_, config_.comm),
      simulator_(config_.sim) {
  if (!config_.prefix_reuse || config_.sim.sim_threads < 1 ||
      config_.eval_threads < 1) {
    throw std::invalid_argument(
        "ReplicaSwarmFuzzer: needs prefix reuse and explicit thread counts");
  }
  if (config_.eval_threads > 1) {
    pool_ = std::make_unique<fz::EvalPool>(config_.sim, controller_, config_.comm,
                                           config_.eval_threads);
  }
}

fz::FuzzResult ReplicaSwarmFuzzer::fuzz(const sim::MissionSpec& mission,
                                        int mission_index,
                                        ReplicaCounters& counters) {
  const Tracer::Scope mission_span(tracer_, SpanKind::kMission, mission_index);
  fz::FuzzResult result;
  guards_ = fz::EvalGuards{};
  guards_.watchdog.max_steps = config_.eval_max_steps;

  prefix_.clear();
  sim::RunHooks hooks;
  hooks.watchdog = guards_.watchdog;
  hooks.checkpoints = &prefix_;
  hooks.checkpoint_period = config_.checkpoint_period;
  const sim::RunResult clean = [&] {
    const Tracer::Scope span(tracer_, SpanKind::kCleanRun, mission_index);
    return simulator_.run(mission, system_, hooks);
  }();
  prefix_.set_source(clean.recorder);
  result.simulations = 1;
  result.sim_steps_executed = clean.steps_executed;
  result.clean_mission_time = clean.end_time;
  result.eval_parallelism = config_.eval_threads;
  if (clean.collided) {
    result.clean_run_failed = true;
    return result;
  }
  double mission_vdo = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < mission.num_drones(); ++i) {
    const double vdo = clean.recorder.min_obstacle_distance(i);
    if (std::isfinite(vdo) && !(vdo >= mission_vdo)) mission_vdo = vdo;
  }
  result.mission_vdo = mission_vdo;

  const std::vector<fz::Seed> seeds = [&] {
    const Tracer::Scope span(tracer_, SpanKind::kScheduleSeeds, mission_index);
    return fz::schedule_seeds(clean, mission, system_, config_.spoof_distance,
                              config_.seeds);
  }();
  if (seeds.empty()) {
    result.no_seeds = true;
    return result;
  }

  for (const fz::Seed& seed : seeds) {
    const int remaining = config_.mission_budget - result.iterations;
    if (remaining <= 0) break;
    fz::Objective objective(mission, simulator_, system_, seed,
                            config_.spoof_distance, clean.end_time, &prefix_,
                            &guards_, pool_.get());
    TimedObjective timed(objective, tracer_, mission_index);
    // The fuzzer's initial guesses: a window ending at the victim's clean
    // closest approach, one well before it, and one short late window.
    const double t_ca = clean.recorder.time_of_min_obstacle_distance(seed.victim);
    const double lead = config_.lead_time;
    const double dur = config_.initial_duration;
    const std::vector<fz::StartPoint> starts = {
        fz::StartPoint{std::max(t_ca - lead, 0.0), dur},
        fz::StartPoint{std::max(t_ca - 2.0 * lead - dur, 0.0), dur},
        fz::StartPoint{std::max(t_ca - lead / 2.0, 0.0), dur / 2.0},
    };
    const fz::OptimizationResult outcome = [&] {
      const Tracer::Scope span(tracer_, SpanKind::kOptimize, mission_index);
      return fz::optimize(timed, starts,
                          std::min(remaining, config_.per_seed_budget),
                          config_.optimizer);
    }();
    ++result.attempts_tried;
    result.iterations += outcome.iterations;
    result.simulations += objective.evaluations();
    result.sim_steps_executed += objective.sim_steps_executed();
    result.prefix_steps_reused += objective.prefix_steps_reused();
    result.eval_batches += objective.eval_batches();
    result.attempts.push_back(fz::SeedAttempt{seed, outcome});
    counters.memo_hits += objective.memo_hits();
    counters.objective_batches += timed.batches();
    counters.objective_requests += timed.requests();
    if (outcome.success) {
      result.found = true;
      result.plan = swarmfuzz::attack::SpoofingPlan{
          .target = seed.target,
          .direction = seed.direction,
          .start_time = outcome.t_start,
          .duration = outcome.duration,
          .distance = config_.spoof_distance,
      };
      result.victim = outcome.crashed_drone >= 0 ? outcome.crashed_drone : seed.victim;
      result.victim_vdo = clean.recorder.min_obstacle_distance(result.victim);
      return result;
    }
  }
  return result;
}

}  // namespace perfbench
