// Deterministic parallel evaluation engine for the fuzzing search.
//
// The searches submit their independent simulations as batches — the
// gradient search's multi-start candidates and FD stencils, E_Fuzz's whole
// mutant round across target-victim pairs; the pool fans a batch out over
// the lanes of a util::WorkerPool and hands every outcome back in job order.
// Each lane owns its own Simulator + FlockingControlSystem clone (the only
// mutable per-run state), and all lanes resume from the same read-only
// PrefixCache, so a batch's simulations are bit-identical to the serial
// runs they replace. Determinism is then the *caller's* contract: Objective
// replays pool outcomes in submission order and commits (memo, counters)
// only the prefix a serial run would have consumed (see objective.h).
//
// This is the find-then-batch shape CGF engines use to saturate cores
// (AFL's fork-server/persistent modes); PR 3's prefix reuse made each
// evaluation cheap, the pool makes independent evaluations concurrent.
#pragma once

#include <exception>
#include <memory>
#include <span>
#include <vector>

#include "fuzz/objective.h"
#include "util/worker_pool.h"

namespace swarmfuzz::fuzz {

class EvalPool {
 public:
  // One (already projected) candidate of a batch, with the seed it is
  // evaluated under, so one batch can mix the windows of several
  // target-victim pairs.
  struct Job {
    double t_start = 0.0;
    double duration = 0.0;
    Seed seed{};
  };

  // A window-tree family (WindowBranch, DESIGN.md §10): `size` consecutive
  // jobs sharing one seed and one t_s, with their branch time.
  struct Family {
    std::size_t size = 0;
    double branch_time = 0.0;
  };

  // Outcome of one job: either an evaluation plus its step accounting, or
  // the exception the simulation raised (watchdog trip, sentinel, ...).
  struct JobResult : AttackEvalOutcome {
    std::exception_ptr error;
  };

  // Everything a batch's jobs share. All pointers are borrowed and must
  // outlive the evaluate() call; `prefix` is only ever read (concurrent
  // lookups are safe — see PrefixCache).
  struct BatchContext {
    const sim::MissionSpec* mission = nullptr;
    double spoof_distance = 0.0;
    const PrefixCache* prefix = nullptr;
    const EvalGuards* guards = nullptr;
  };

  // A pool `threads` lanes wide (clamped to >= 1): the caller plus
  // threads - 1 persistent workers. `controller` must not be null
  // (std::invalid_argument).
  EvalPool(const sim::SimulationConfig& sim,
           std::shared_ptr<const swarm::SwarmController> controller,
           const swarm::CommConfig& comm, int threads);

  [[nodiscard]] int threads() const noexcept { return pool_.threads(); }

  // Evaluates every job of the batch (concurrently when the pool has more
  // than one lane) and returns the outcomes in job order. Blocking; one
  // batch in flight at a time per pool. Exceptions are captured per job,
  // never thrown from here. `families` (optional) are the families the job
  // list opens with, in order. One lane flies each family's jobs in order,
  // the later ones resuming from the first one's branch point, and keeps
  // that branch only while it flies the family.
  [[nodiscard]] std::vector<JobResult> evaluate(
      const BatchContext& context, std::span<const Job> jobs,
      std::span<const Family> families = {});

 private:
  struct Lane {
    sim::Simulator simulator;
    swarm::FlockingControlSystem system;
  };

  static void run_job(Lane& lane, const BatchContext& context, const Job& job,
                      JobResult& out, WindowBranch* branch) noexcept;

  std::vector<std::unique_ptr<Lane>> lanes_;  // one clone per pool lane
  util::WorkerPool pool_;
};

}  // namespace swarmfuzz::fuzz
