// The fuzzing objective f(t_s, dt) - paper section IV-C.
//
// Given a seed <T-V, theta> and the spoofing deviation d, f(t_s, dt) is the
// minimum distance between the victim drone and the obstacle over the
// attacked mission, minus the drone's collision radius; a collision occurs
// iff f <= 0. Each evaluation is one mission simulation, trimmed at both
// ends. It starts from the prefix cache's latest checkpoint with time <= t_s
// when there is one (the attacked run is bit-identical to the clean run
// until the spoofing window opens, so the clean run's checkpoints are valid
// prefixes for every (t_s, dt)). It stops once the outcome is decided: the
// window is over and every drone is past every obstacle and moving on, so
// no per-drone minimum can change (DESIGN.md §10, "Decided horizon").
// end_time and target_caused then cover only the simulated part, and
// min_avg_separation is not computed (0.0); E_Fuzz, whose novelty
// signature reads the tail, asks for the full run
// (EvalGuards::full_horizon).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "attack/spoofing.h"
#include "fuzz/seeds.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"
#include "swarm/flocking_system.h"

namespace swarmfuzz::fuzz {

// Execution guards applied to every simulation an Objective runs: the
// per-evaluation watchdog (sim-step budget + wall-clock deadline, both
// raising RunFaultError{kTimeout}), the deterministic fault-injection
// hook used by the containment tests, and the evaluation horizon. Borrowed
// by the Objective so the fuzzer can tighten the deadline between
// evaluations.
struct EvalGuards {
  sim::RunWatchdog watchdog{};
  sim::FaultInjection inject{};
  // false (the default, also with no guards at all): each attacked run
  // stops once its outcome is decided (see evaluate_attack). true: it flies
  // to arrival, for searches that read the tail — E_Fuzz's novelty
  // signature packs tightest at arrival.
  bool full_horizon = false;
};

struct ObjectiveEval {
  double f = 0.0;               // victim-obstacle clearance, m (<= 0: crash)
  bool success = false;         // a victim drone hit the obstacle
  int crashed_drone = -1;       // which drone hit the obstacle (on success)
  bool target_caused = false;   // collision involved the target (excluded by
                                // the paper's success metric)
  double end_time = 0.0;        // where the simulated run ended
  // Behavioral probe of the attacked run, the raw material of E_Fuzz's
  // novelty signature (fuzz/corpus.h). Deterministic — derived from the
  // recorder of a deterministic simulation — and carried through the memo
  // and EvalPool untouched, so replayed and memo-served evaluations report
  // the identical features.
  std::vector<double> drone_clearance;  // per-drone min obstacle distance, m
  double min_clearance_time = 0.0;      // when the tightest approach happened
  // Tightest average swarm packing, m. An O(samples * n^2) scan, so only
  // full-horizon runs (EvalGuards::full_horizon, E_Fuzz) compute it;
  // decided-horizon runs leave it at 0.0.
  double min_avg_separation = 0.0;
};

// One candidate of an evaluation batch (raw, pre-projection coordinates —
// evaluate_batch projects exactly like evaluate does).
struct EvalRequest {
  double t_start = 0.0;
  double duration = 0.0;
};

// Receives batch results replayed in submission order: called once per
// entry with the entry's index and its evaluation. Return false to stop —
// later entries are then discarded without touching any observable state,
// exactly as a serial caller that stopped issuing evaluate() calls.
using BatchConsumer = std::function<bool(std::size_t, const ObjectiveEval&)>;

// Clamps (t_s, dt) into the feasible region 0 <= t_s <= t_mission - dt_min,
// dt_min <= dt <= t_mission - t_s. When t_mission - t_s rounds below dt_min
// the upper bound wins (dt = t_mission - t_s): the result is min(max(v, lo),
// hi) for both coordinates, bit for bit what std::clamp computes where its
// lo <= hi precondition holds, and defined where it does not.
void project_window(double& t_start, double& duration, double t_mission,
                    double dt_min) noexcept;

// Abstract objective over (t_s, dt): what the gradient search minimises.
// Split from the simulator-backed Objective so the optimizer can be tested
// (and reused) against synthetic landscapes.
class ObjectiveFunction {
 public:
  virtual ~ObjectiveFunction() = default;
  [[nodiscard]] virtual ObjectiveEval evaluate(double t_start, double duration) = 0;
  // Clamps (t_s, dt) into the feasible region.
  virtual void project(double& t_start, double& duration) const = 0;

  // Evaluates a batch of independent candidates and replays the outcomes
  // through `consume` in submission order. The default is a lazy serial
  // loop (evaluate each entry only when the previous consume returned
  // true), so for any implementation the observable behaviour — results,
  // evaluation counts, memoisation — is that of the equivalent sequence of
  // evaluate() calls; overrides may evaluate speculatively in parallel but
  // must preserve that contract (see Objective::evaluate_batch).
  virtual void evaluate_batch(std::span<const EvalRequest> batch,
                              const BatchConsumer& consume);
};

// Collects the clean run's checkpoints, ordered by capture time. One cache
// per mission: the pre-spoof prefix is seed-independent, so every Objective
// of that mission (any target-victim pair) can resume from it. After the
// clean run finishes, hand its recorder to set_source(): checkpoints store
// only accumulator state, and resume rebuilds each prefix's trajectory
// samples from the source recorder (see sim/recorder.h). Populate from one
// thread (on_checkpoint/set_source/clear are not synchronised); once
// populated, the const lookups (latest_at_or_before/source) are safe to
// call concurrently — EvalPool lanes share one cache this way.
class PrefixCache final : public sim::CheckpointSink {
 public:
  void on_checkpoint(sim::SimulationCheckpoint&& checkpoint) override;

  // Latest checkpoint with time <= t (within a small epsilon, matching the
  // simulator's capture cadence); nullptr when none qualifies.
  [[nodiscard]] const sim::SimulationCheckpoint* latest_at_or_before(
      double t) const noexcept;

  // Stores (a copy of) the recorder of the run that produced the collected
  // checkpoints. Must be called before any resume; Objective throws
  // std::logic_error on a cache with checkpoints but no source.
  void set_source(const sim::Recorder& recorder) { source_ = recorder; }
  [[nodiscard]] const sim::Recorder* source() const noexcept {
    return source_ ? &*source_ : nullptr;
  }

  void clear() noexcept {
    checkpoints_.clear();
    source_.reset();
  }
  [[nodiscard]] size_t size() const noexcept { return checkpoints_.size(); }

 private:
  std::vector<sim::SimulationCheckpoint> checkpoints_;  // ascending time
  std::optional<sim::Recorder> source_;
};

class EvalPool;
class Objective;

// One group of a multi-objective batch: candidates (raw coordinates, like
// EvalRequest) for one objective.
struct ObjectiveBatch {
  Objective* objective = nullptr;
  std::span<const EvalRequest> requests;
};

// Receives a multi-group batch's results in replay order: the group's
// index, the entry's index within the group, and its evaluation. Return
// false to stop the whole call (see Objective::evaluate_groups).
using GroupConsumer =
    std::function<bool(std::size_t, std::size_t, const ObjectiveEval&)>;

// The branch point one window-tree family shares (DESIGN.md §10,
// "Window-tree reuse"). Windows with the same projected t_s spoof
// identically until the shortest of them closes, at `time` = t_s + min Δt
// (SpoofingPlan::active_at's expression). A member that finds no checkpoint
// here captures one at `time` and hands over its recorder, which supplies
// the sample prefix; later members resume from it instead of from the
// PrefixCache. When the first member's run ends before `time`, every
// member's does, and the whole family flies from the PrefixCache.
struct WindowBranch {
  double time = 0.0;
  std::optional<sim::SimulationCheckpoint> checkpoint{};
  std::optional<sim::Recorder> recorder{};  // the capturing run's, moved in
};

// Result of one attack simulation, before any Objective bookkeeping.
struct AttackEvalOutcome {
  ObjectiveEval eval{};
  std::int64_t steps_executed = 0;
  std::int64_t steps_resumed = 0;
};

// Runs one attacked mission for the (already projected) spoofing window:
// the stateless core of Objective::evaluate, also executed by EvalPool
// lanes against their own simulator/system clones. Mutates only `system`
// (each caller must own its clone); `prefix` is only read. Unless
// guards->full_horizon, the run stops once its outcome is decided
// (sim::RunHooks::stop_when_decided_after, armed one GPS period after the
// window closes, since a spoofed fix is held until the next one). With a
// `branch` (optional) of the window's family, the run resumes from the
// branch's checkpoint when there is one and branch->time <= t_start +
// duration; without one, it captures it, moving its recorder into the
// branch. Throws sim::RunFaultError on guard trips or numerical divergence
// and std::logic_error on a prefix cache with checkpoints but no source.
[[nodiscard]] AttackEvalOutcome evaluate_attack(
    const sim::MissionSpec& mission, const sim::Simulator& simulator,
    swarm::FlockingControlSystem& system, const Seed& seed,
    double spoof_distance, const PrefixCache* prefix, const EvalGuards* guards,
    double t_start, double duration, WindowBranch* branch = nullptr);

// Evaluates attacked missions for a fixed seed. Not thread-safe (owns the
// control system it mutates); create one per worker.
class Objective final : public ObjectiveFunction {
 public:
  // `system` must outlive the objective. `t_mission` (timing constraint
  // t_s + dt < t_mission) is taken from the clean run's end time. `prefix`
  // (optional, borrowed) supplies clean-run checkpoints for prefix reuse;
  // results are bit-identical with or without it. `guards` (optional,
  // borrowed) bounds each evaluation's execution; a tripped guard raises
  // sim::RunFaultError from evaluate(). `pool` (optional, borrowed) lets
  // evaluate_batch() fan batches out over worker threads — results stay
  // bit-identical to the serial path (see evaluate_batch).
  Objective(const sim::MissionSpec& mission, const sim::Simulator& simulator,
            swarm::FlockingControlSystem& system, Seed seed, double spoof_distance,
            double t_mission, const PrefixCache* prefix = nullptr,
            const EvalGuards* guards = nullptr, EvalPool* pool = nullptr);

  [[nodiscard]] ObjectiveEval evaluate(double t_start, double duration) override;

  // The one-group case of evaluate_groups.
  void evaluate_batch(std::span<const EvalRequest> batch,
                      const BatchConsumer& consume) override;

  // Evaluates several groups of candidates, each against its own objective,
  // and replays the outcomes group by group, in submission order within
  // each group. Stopping (consume returning false) ends the whole call, so
  // the observable result is that of calling each group's evaluate_batch in
  // turn until the first stop. With a prefix cache, each group's
  // non-memoised windows that share a projected t_s form a window-tree
  // family (WindowBranch): its first member to fly captures the branch
  // point and the later ones resume from it. With a pool of two or more
  // threads and more than one request in total: projects every candidate,
  // simulates the non-memoised ones of *all* groups in one pool call
  // (speculatively — including entries a serial run would never reach;
  // duplicates are simulated once per objective; each family is one pool
  // task, flown in submission order on one lane), then replays, committing
  // counters and memo entries only for the entries the consumer actually
  // accepts.
  // Evaluations, memo hits, step counters, batch counts and memo contents
  // end up exactly as on the lazy serial path; a captured worker exception
  // is rethrown at its entry's replay position. eval_batches() counts one
  // batch per group whose replay began. All groups must share the mission,
  // spoof distance, prefix cache, guards and pool — they differ only in
  // seed (std::invalid_argument otherwise).
  static void evaluate_groups(std::span<const ObjectiveBatch> groups,
                              const GroupConsumer& consume);

  // Clamps (t_s, dt) into the feasible region 0 <= t_s, dt_min <= dt,
  // t_s + dt <= t_mission.
  void project(double& t_start, double& duration) const override;

  // Simulations actually run. Memoised repeats of an already-evaluated
  // projected (t_s, dt) are served from the memo and do not count.
  [[nodiscard]] int evaluations() const noexcept { return evaluations_; }
  [[nodiscard]] int memo_hits() const noexcept { return memo_hits_; }

  // Batches submitted through evaluate_batch (pooled or not); equal across
  // serial and parallel runs of the same search.
  [[nodiscard]] int eval_batches() const noexcept { return eval_batches_; }

  // Control ticks simulated vs skipped by resuming from a checkpoint (a
  // clean-run prefix or a sibling's branch point), summed over all
  // evaluations.
  [[nodiscard]] std::int64_t sim_steps_executed() const noexcept {
    return sim_steps_executed_;
  }
  [[nodiscard]] std::int64_t prefix_steps_reused() const noexcept {
    return prefix_steps_reused_;
  }

  [[nodiscard]] double t_mission() const noexcept { return t_mission_; }
  [[nodiscard]] const Seed& seed() const noexcept { return seed_; }

 private:
  const sim::MissionSpec& mission_;
  const sim::Simulator& simulator_;
  swarm::FlockingControlSystem& system_;
  Seed seed_;
  double spoof_distance_;
  double t_mission_;
  const PrefixCache* prefix_;
  const EvalGuards* guards_;
  EvalPool* pool_;
  int evaluations_ = 0;
  int memo_hits_ = 0;
  int eval_batches_ = 0;
  std::int64_t sim_steps_executed_ = 0;
  std::int64_t prefix_steps_reused_ = 0;
  // Evaluation memo keyed on the exact bits of the *projected* (t_s, dt):
  // the simulation is a pure function of those bits, so a repeat probe
  // (e.g. the optimizer re-evaluating its multi-start winner) costs zero
  // simulations.
  using MemoKey = std::pair<std::uint64_t, std::uint64_t>;
  std::map<MemoKey, ObjectiveEval> memo_;

  // evaluate() for an already projected window, optionally as a member of
  // a window-tree family.
  ObjectiveEval evaluate_projected(const EvalRequest& window, WindowBranch* branch);
};

}  // namespace swarmfuzz::fuzz
