#include "fuzz/objective.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "fuzz/eval_pool.h"

namespace swarmfuzz::fuzz {

void ObjectiveFunction::evaluate_batch(std::span<const EvalRequest> batch,
                                       const BatchConsumer& consume) {
  // Lazy serial default: an entry is only evaluated once every earlier
  // entry was consumed, so implementations without a pool behave exactly
  // like the pre-batching caller-driven loop (same evaluation counts).
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!consume(i, evaluate(batch[i].t_start, batch[i].duration))) {
      return;
    }
  }
}

void PrefixCache::on_checkpoint(sim::SimulationCheckpoint&& checkpoint) {
  if (!checkpoints_.empty() && checkpoint.time <= checkpoints_.back().time) {
    throw std::invalid_argument("PrefixCache: checkpoints must advance in time");
  }
  checkpoints_.push_back(std::move(checkpoint));
}

const sim::SimulationCheckpoint* PrefixCache::latest_at_or_before(
    double t) const noexcept {
  // Checkpoints are captured *before* sensing, so one taken exactly at the
  // spoofing start is still a valid resume point; allow the simulator's
  // cadence epsilon to avoid rejecting t == checkpoint.time by a rounding
  // hair.
  const sim::SimulationCheckpoint* best = nullptr;
  for (const sim::SimulationCheckpoint& cp : checkpoints_) {
    if (cp.time <= t + 1e-9) {
      best = &cp;
    } else {
      break;  // ascending order: later entries are even further past t
    }
  }
  return best;
}

namespace {

// Keeps the one checkpoint a RunHooks::branch_sink capture emits.
class BranchCapture final : public sim::CheckpointSink {
 public:
  void on_checkpoint(sim::SimulationCheckpoint&& checkpoint) override {
    captured = std::move(checkpoint);
  }
  std::optional<sim::SimulationCheckpoint> captured;
};

}  // namespace

AttackEvalOutcome evaluate_attack(const sim::MissionSpec& mission,
                                  const sim::Simulator& simulator,
                                  swarm::FlockingControlSystem& system,
                                  const Seed& seed, double spoof_distance,
                                  const PrefixCache* prefix,
                                  const EvalGuards* guards, double t_start,
                                  double duration, WindowBranch* branch) {
  const attack::SpoofingPlan plan{
      .target = seed.target,
      .direction = seed.direction,
      .start_time = t_start,
      .duration = duration,
      .distance = spoof_distance,
  };
  const attack::GpsSpoofer spoofer(plan, mission);

  sim::RunHooks hooks;
  hooks.spoofer = &spoofer;
  if (branch != nullptr && branch->checkpoint &&
      branch->time <= t_start + duration) {
    // A sibling flew the same offsets up to its branch point.
    hooks.resume_from = &*branch->checkpoint;
    hooks.resume_recorder = &*branch->recorder;
  } else if (const sim::SimulationCheckpoint* resume =
                 prefix != nullptr ? prefix->latest_at_or_before(t_start)
                                   : nullptr) {
    // Until t_start the attacked run is bit-identical to the clean run, so
    // a clean-run checkpoint taken at or before t_start is a valid prefix.
    if (prefix->source() == nullptr) {
      throw std::logic_error(
          "Objective: prefix cache has checkpoints but no source recorder; "
          "call PrefixCache::set_source(clean.recorder) after the clean run");
    }
    hooks.resume_from = resume;
    hooks.resume_recorder = prefix->source();
  }
  BranchCapture capture;
  if (branch != nullptr && !branch->checkpoint) {
    hooks.branch_sink = &capture;
    hooks.branch_time = branch->time;
  }
  if (guards != nullptr) {
    hooks.watchdog = guards->watchdog;
    hooks.inject_fault = guards->inject;
  }
  const bool full_horizon = guards != nullptr && guards->full_horizon;
  if (!full_horizon) {
    hooks.stop_when_decided_after =
        t_start + duration + 1.0 / simulator.config().gps.rate_hz;
  }
  sim::RunResult run = simulator.run(mission, system, hooks);

  AttackEvalOutcome out;
  out.steps_executed = run.steps_executed;
  out.steps_resumed = run.steps_resumed;
  out.eval.end_time = run.end_time;
  out.eval.f =
      run.recorder.min_obstacle_distance(seed.victim) - mission.drone_radius;
  // Behavioral features for the novelty signature: where every drone ended
  // up relative to the obstacle field, when the globally tightest approach
  // happened, and how tightly the swarm packed. The recorder already
  // tracked the clearance minima; the packing term scans every sample
  // (O(samples * n^2)), so it runs only on full-horizon runs — E_Fuzz's,
  // its only reader. Decided-horizon runs leave it at 0.0.
  const int n = mission.num_drones();
  out.eval.drone_clearance.resize(static_cast<std::size_t>(n));
  double tightest = std::numeric_limits<double>::infinity();
  out.eval.min_clearance_time = 0.0;
  for (int i = 0; i < n; ++i) {
    const double clearance = run.recorder.min_obstacle_distance(i);
    out.eval.drone_clearance[static_cast<std::size_t>(i)] = clearance;
    if (clearance < tightest) {
      tightest = clearance;
      out.eval.min_clearance_time = run.recorder.time_of_min_obstacle_distance(i);
    }
  }
  if (full_horizon && run.recorder.num_samples() > 0 && n > 1) {
    const double t_clo = run.recorder.closest_time();
    out.eval.min_avg_separation =
        run.recorder.avg_inter_distance(run.recorder.sample_index_at(t_clo));
  }
  // +inf is legitimate (obstacle-free victim path); NaN means the recorder
  // ingested a non-finite sample the sentinel somehow let through — surface
  // it as a fault rather than feeding NaN to the optimizer's comparisons.
  if (std::isnan(out.eval.f)) {
    throw sim::RunFaultError(
        sim::RunFault{.kind = sim::FaultKind::kNumericalDivergence,
                      .time = run.end_time,
                      .drone = seed.victim,
                      .detail = "objective value is NaN"});
  }
  if (run.first_collision) {
    const sim::CollisionEvent& event = *run.first_collision;
    const bool involves_target =
        event.drone == seed.target ||
        (event.kind == sim::CollisionKind::kDroneDrone && event.other == seed.target);
    if (event.kind == sim::CollisionKind::kDroneObstacle && !involves_target) {
      // Success per the paper's metric: a victim drone (any swarm member
      // other than the target) crashed into the on-path obstacle.
      out.eval.success = true;
      out.eval.crashed_drone = event.drone;
      if (event.drone != seed.victim) {
        // Another drone than the scheduled victim crashed; reflect that in f
        // so the optimizer sees the success.
        out.eval.f = std::min(
            out.eval.f,
            run.recorder.min_obstacle_distance(event.drone) - mission.drone_radius);
      }
    } else {
      out.eval.target_caused = involves_target;
    }
  }
  if (capture.captured) {
    branch->checkpoint = std::move(capture.captured);
    branch->recorder = std::move(run.recorder);
  }
  return out;
}

Objective::Objective(const sim::MissionSpec& mission, const sim::Simulator& simulator,
                     swarm::FlockingControlSystem& system, Seed seed,
                     double spoof_distance, double t_mission,
                     const PrefixCache* prefix, const EvalGuards* guards,
                     EvalPool* pool)
    : mission_(mission),
      simulator_(simulator),
      system_(system),
      seed_(seed),
      spoof_distance_(spoof_distance),
      t_mission_(t_mission),
      prefix_(prefix),
      guards_(guards),
      pool_(pool) {
  if (seed.target < 0 || seed.target >= mission.num_drones() || seed.victim < 0 ||
      seed.victim >= mission.num_drones() || seed.target == seed.victim) {
    throw std::invalid_argument("Objective: invalid seed pair");
  }
  if (spoof_distance <= 0.0 || t_mission <= 0.0) {
    throw std::invalid_argument("Objective: non-positive parameter");
  }
}

void project_window(double& t_start, double& duration, double t_mission,
                    double dt_min) noexcept {
  t_start = std::min(std::max(t_start, 0.0), t_mission - dt_min);
  duration = std::min(std::max(duration, dt_min), t_mission - t_start);
}

void Objective::project(double& t_start, double& duration) const {
  project_window(t_start, duration, t_mission_, simulator_.config().dt);
}

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

std::pair<std::uint64_t, std::uint64_t> memo_key(double t_start,
                                                 double duration) noexcept {
  return {std::bit_cast<std::uint64_t>(t_start),
          std::bit_cast<std::uint64_t>(duration)};
}

// Window-tree families (DESIGN.md §10) among projected windows that are
// each simulated once: positions grouped by the bits of t_s, in
// first-occurrence order, keeping only groups of two or more.
std::vector<std::vector<std::size_t>> window_families(
    std::span<const EvalRequest> windows) {
  std::vector<std::vector<std::size_t>> families;
  std::map<std::uint64_t, std::size_t> by_start;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto [it, inserted] = by_start.try_emplace(
        std::bit_cast<std::uint64_t>(windows[i].t_start), families.size());
    if (inserted) families.emplace_back();
    families[it->second].push_back(i);
  }
  std::erase_if(families, [](const auto& family) { return family.size() < 2; });
  return families;
}

// A family's branch time: t_s + its shortest Δt, the window end as
// SpoofingPlan::active_at computes it.
double branch_time(std::span<const EvalRequest> windows,
                   std::span<const std::size_t> family) {
  double shortest = std::numeric_limits<double>::infinity();
  for (const std::size_t i : family) shortest = std::min(shortest, windows[i].duration);
  return windows[family.front()].t_start + shortest;
}

}  // namespace

ObjectiveEval Objective::evaluate(double t_start, double duration) {
  project(t_start, duration);
  return evaluate_projected({.t_start = t_start, .duration = duration}, nullptr);
}

ObjectiveEval Objective::evaluate_projected(const EvalRequest& window,
                                            WindowBranch* branch) {
  const MemoKey key = memo_key(window.t_start, window.duration);
  if (const auto it = memo_.find(key); it != memo_.end()) {
    ++memo_hits_;
    return it->second;
  }

  const AttackEvalOutcome out =
      evaluate_attack(mission_, simulator_, system_, seed_, spoof_distance_,
                      prefix_, guards_, window.t_start, window.duration, branch);
  ++evaluations_;
  sim_steps_executed_ += out.steps_executed;
  prefix_steps_reused_ += out.steps_resumed;
  memo_.emplace(key, out.eval);
  return out.eval;
}

void Objective::evaluate_batch(std::span<const EvalRequest> batch,
                               const BatchConsumer& consume) {
  const ObjectiveBatch group{.objective = this, .requests = batch};
  evaluate_groups({&group, 1},
                  [&](std::size_t, std::size_t i, const ObjectiveEval& eval) {
                    return consume(i, eval);
                  });
}

void Objective::evaluate_groups(std::span<const ObjectiveBatch> groups,
                                const GroupConsumer& consume) {
  if (groups.empty()) {
    return;
  }
  const Objective* lead = groups.front().objective;
  std::size_t total = 0;
  for (const ObjectiveBatch& group : groups) {
    const Objective* o = group.objective;
    if (o == nullptr || &o->mission_ != &lead->mission_ ||
        o->spoof_distance_ != lead->spoof_distance_ ||
        o->prefix_ != lead->prefix_ || o->guards_ != lead->guards_ ||
        o->pool_ != lead->pool_) {
      throw std::invalid_argument(
          "Objective::evaluate_groups: groups must share mission, spoof "
          "distance, prefix cache, guards and pool");
    }
    total += group.requests.size();
  }
  EvalPool* const pool = lead->pool_;
  if (pool == nullptr || pool->threads() <= 1 || total <= 1) {
    // Lazy serial path: an entry is only evaluated once every earlier entry
    // was consumed. A family's branch lives until its last member has flown.
    for (std::size_t g = 0; g < groups.size(); ++g) {
      Objective& objective = *groups[g].objective;
      ++objective.eval_batches_;
      const std::span<const EvalRequest> requests = groups[g].requests;
      std::vector<EvalRequest> windows(requests.begin(), requests.end());
      for (EvalRequest& w : windows) objective.project(w.t_start, w.duration);
      std::vector<WindowBranch> branches;
      std::vector<std::size_t> last_member;  // per family
      std::vector<std::size_t> family_of(windows.size(), kNone);
      if (objective.prefix_ != nullptr) {
        // The group's windows to simulate: first occurrences of keys not
        // yet memoised.
        std::vector<EvalRequest> fresh;
        std::vector<std::size_t> position;
        std::set<MemoKey> seen;
        for (std::size_t i = 0; i < windows.size(); ++i) {
          const MemoKey key = memo_key(windows[i].t_start, windows[i].duration);
          if (!objective.memo_.contains(key) && seen.insert(key).second) {
            fresh.push_back(windows[i]);
            position.push_back(i);
          }
        }
        const auto families = window_families(fresh);
        branches.resize(families.size());
        for (std::size_t f = 0; f < families.size(); ++f) {
          branches[f].time = branch_time(fresh, families[f]);
          for (const std::size_t k : families[f]) family_of[position[k]] = f;
          last_member.push_back(position[families[f].back()]);
        }
      }
      for (std::size_t i = 0; i < windows.size(); ++i) {
        const std::size_t f = family_of[i];
        WindowBranch* branch = f != kNone ? &branches[f] : nullptr;
        const ObjectiveEval eval = objective.evaluate_projected(windows[i], branch);
        if (branch != nullptr && i == last_member[f]) {
          *branch = WindowBranch{};  // release the recorder
        }
        if (!consume(g, i, eval)) {
          return;
        }
      }
    }
    return;
  }

  // Speculative fan-out: simulate every non-memoised candidate of every
  // group in one pool call (including entries a serial run might never
  // reach), then replay in submission order and commit — counter
  // increments, memo inserts — only the entries the consumer accepts.
  // Discarded speculative work touches no observable state, so every
  // objective's counters and memo match the serial path bit for bit.
  struct Candidate {
    MemoKey key{};
    std::size_t job = kNone;  // index into `pending`, then into `jobs`
  };
  std::vector<Candidate> candidates;
  candidates.reserve(total);
  std::vector<EvalPool::Job> pending;  // each simulated key once, in order
  std::vector<std::vector<std::size_t>> families;  // positions in `pending`
  std::vector<EvalPool::Family> family_tasks;      // one per family
  std::map<std::pair<const Objective*, MemoKey>, std::size_t> queued;
  for (const ObjectiveBatch& group : groups) {
    const Objective& objective = *group.objective;
    std::vector<EvalRequest> fresh;  // this group's share of `pending`
    for (const EvalRequest& request : group.requests) {
      double t_start = request.t_start;
      double duration = request.duration;
      objective.project(t_start, duration);
      Candidate& c = candidates.emplace_back();
      c.key = memo_key(t_start, duration);
      if (objective.memo_.contains(c.key)) {
        continue;  // replay will serve it as a memo hit
      }
      // Duplicate keys of one objective simulate once; during replay the
      // first occurrence commits the memo entry and later ones hit it,
      // exactly as serial evaluation would.
      const auto [it, inserted] =
          queued.try_emplace({&objective, c.key}, pending.size());
      if (inserted) {
        pending.push_back({.t_start = t_start,
                           .duration = duration,
                           .seed = objective.seed_});
        fresh.push_back({.t_start = t_start, .duration = duration});
      }
      c.job = it->second;
    }
    // The serial path's families: a group that runs at all runs after
    // every earlier group was fully consumed, so its fresh windows are
    // exactly the ones the serial path finds un-memoised.
    if (lead->prefix_ != nullptr) {
      const std::size_t first = pending.size() - fresh.size();
      for (std::vector<std::size_t>& family : window_families(fresh)) {
        family_tasks.push_back({.size = family.size(),
                                .branch_time = branch_time(fresh, family)});
        for (std::size_t& k : family) k += first;
        families.push_back(std::move(family));
      }
    }
  }

  // Families go first, each one pool task, so lane 0 starts on the
  // largest; the remaining jobs follow one task each.
  std::vector<EvalPool::Job> jobs;
  jobs.reserve(pending.size());
  std::vector<std::size_t> job_of(pending.size(), kNone);
  for (const std::vector<std::size_t>& family : families) {
    for (const std::size_t k : family) {
      job_of[k] = jobs.size();
      jobs.push_back(pending[k]);
    }
  }
  for (std::size_t k = 0; k < pending.size(); ++k) {
    if (job_of[k] == kNone) {
      job_of[k] = jobs.size();
      jobs.push_back(pending[k]);
    }
  }
  for (Candidate& c : candidates) {
    if (c.job != kNone) c.job = job_of[c.job];
  }

  std::vector<EvalPool::JobResult> results;
  if (!jobs.empty()) {
    const EvalPool::BatchContext context{.mission = &lead->mission_,
                                         .spoof_distance = lead->spoof_distance_,
                                         .prefix = lead->prefix_,
                                         .guards = lead->guards_};
    results = pool->evaluate(context, jobs, family_tasks);
  }

  std::size_t next = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    Objective& objective = *groups[g].objective;
    ++objective.eval_batches_;
    for (std::size_t i = 0; i < groups[g].requests.size(); ++i) {
      const Candidate& c = candidates[next++];
      const ObjectiveEval* eval = nullptr;
      if (const auto it = objective.memo_.find(c.key);
          it != objective.memo_.end()) {
        ++objective.memo_hits_;
        eval = &it->second;
      } else {
        const EvalPool::JobResult& r = results[c.job];
        if (r.error) {
          // Rethrown at the entry's replay position: everything committed
          // so far matches the serial run, and the exception aborts the
          // search before any counter becomes externally observable.
          std::rethrow_exception(r.error);
        }
        ++objective.evaluations_;
        objective.sim_steps_executed_ += r.steps_executed;
        objective.prefix_steps_reused_ += r.steps_resumed;
        eval = &objective.memo_.emplace(c.key, r.eval).first->second;
      }
      if (!consume(g, i, *eval)) {
        return;
      }
    }
  }
}

}  // namespace swarmfuzz::fuzz
