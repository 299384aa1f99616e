#include "fuzz/eval_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/tick_pool.h"

namespace swarmfuzz::fuzz {

int hardware_threads() noexcept { return sim::hardware_threads(); }

int split_eval_threads(int workers, int requested, int hardware) noexcept {
  workers = std::max(workers, 1);
  hardware = std::max(hardware, 1);
  const int per_worker = std::max(hardware / workers, 1);
  if (requested <= 0) {
    return per_worker;  // auto: divide the machine evenly
  }
  return std::min(requested, per_worker);
}

ThreadBudget split_thread_budget(int workers, int requested_eval,
                                 int requested_sim, int hardware) noexcept {
  workers = std::max(workers, 1);
  hardware = std::max(hardware, 1);
  const int per_worker = std::max(hardware / workers, 1);
  ThreadBudget budget;
  if (requested_eval > 0) {
    // Explicit eval width wins; sim threads take (or are clamped to) the
    // rest of this worker's share.
    budget.eval_threads = std::min(requested_eval, per_worker);
    const int sim_share = std::max(per_worker / budget.eval_threads, 1);
    budget.sim_threads =
        requested_sim <= 0 ? sim_share : std::min(requested_sim, sim_share);
  } else if (requested_sim > 0) {
    // Explicit sim width wins; eval threads absorb the rest of the share.
    budget.sim_threads = std::min(requested_sim, per_worker);
    budget.eval_threads = std::max(per_worker / budget.sim_threads, 1);
  } else {
    // Both auto: historical split — all batch parallelism, serial ticks.
    budget.eval_threads = per_worker;
    budget.sim_threads = 1;
  }
  return budget;
}

EvalPool::EvalPool(const sim::SimulationConfig& sim,
                   std::shared_ptr<const swarm::SwarmController> controller,
                   const swarm::CommConfig& comm, int threads)
    : sim_config_(sim),
      controller_(std::move(controller)),
      comm_(comm),
      threads_(std::max(threads, 1)) {
  if (controller_ == nullptr) {
    throw std::invalid_argument("EvalPool: controller must not be null");
  }
  if (threads_ > 1) {
    workers_.reserve(static_cast<std::size_t>(threads_));
    for (int i = 0; i < threads_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

EvalPool::~EvalPool() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

std::vector<EvalPool::JobResult> EvalPool::evaluate(const BatchContext& context,
                                                    std::span<const Job> jobs) {
  if (jobs.empty()) {
    return {};
  }
  if (workers_.empty()) {
    // Single-threaded pool: run inline on the caller with a per-call clone.
    // Objective skips the pool entirely in this configuration, so this path
    // only serves direct (test) callers.
    std::vector<JobResult> results(jobs.size());
    const sim::Simulator simulator(sim_config_);
    swarm::FlockingControlSystem system(controller_, comm_);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      run_job(simulator, system, context, jobs[i], results[i]);
    }
    return results;
  }

  std::unique_lock lock(mutex_);
  results_.assign(jobs.size(), JobResult{});
  context_ = &context;
  jobs_ = jobs.data();
  num_jobs_ = jobs.size();
  next_.store(0, std::memory_order_relaxed);
  // Count down *workers*, not jobs: a worker reports only after it has
  // drained the claim cursor, so once every worker has reported, no thread
  // can touch this batch's cursor or results again — making it safe to
  // reset them for the next batch.
  remaining_ = workers_.size();
  ++generation_;
  work_ready_.notify_all();
  batch_done_.wait(lock, [this] { return remaining_ == 0; });
  context_ = nullptr;
  jobs_ = nullptr;
  num_jobs_ = 0;
  return std::move(results_);
}

void EvalPool::worker_loop() {
  // Per-worker clones of the only mutable simulation state; everything the
  // jobs share (mission, prefix cache, guards) is read-only.
  const sim::Simulator simulator(sim_config_);
  swarm::FlockingControlSystem system(controller_, comm_);
  std::uint64_t seen = 0;
  for (;;) {
    const BatchContext* context = nullptr;
    const Job* jobs = nullptr;
    std::size_t num_jobs = 0;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
      context = context_;
      jobs = jobs_;
      num_jobs = num_jobs_;
    }
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_jobs) {
        break;
      }
      run_job(simulator, system, *context, jobs[i], results_[i]);
    }
    {
      const std::lock_guard lock(mutex_);
      if (--remaining_ == 0) {
        batch_done_.notify_one();
      }
    }
  }
}

void EvalPool::run_job(const sim::Simulator& simulator,
                       swarm::FlockingControlSystem& system,
                       const BatchContext& context, const Job& job,
                       JobResult& out) noexcept {
  try {
    const AttackEvalOutcome result =
        evaluate_attack(*context.mission, simulator, system,
                        job.seed ? *job.seed : context.seed,
                        context.spoof_distance, context.prefix, context.guards,
                        job.t_start, job.duration);
    out.eval = result.eval;
    out.steps_executed = result.steps_executed;
    out.steps_resumed = result.steps_resumed;
  } catch (...) {
    // Captured, not thrown: the Objective replays outcomes in submission
    // order and rethrows this at the job's serial position.
    out.error = std::current_exception();
  }
}

}  // namespace swarmfuzz::fuzz
