#include "fuzz/eval_pool.h"

#include <algorithm>

namespace swarmfuzz::fuzz {

EvalPool::EvalPool(const sim::SimulationConfig& sim,
                   std::shared_ptr<const swarm::SwarmController> controller,
                   const swarm::CommConfig& comm, int threads)
    : lanes_(static_cast<std::size_t>(std::max(threads, 1))), pool_(threads) {
  // Each lane builds its clone on its own thread, so the clone's memory
  // comes from that thread's allocator arena instead of sitting beside the
  // other lanes' clones, where one lane's per-tick scratch writes could
  // share cache lines with another's.
  pool_.parallel_for(pool_.threads(), [&](int /*begin*/, int /*end*/, int lane) {
    lanes_[static_cast<std::size_t>(lane)] = std::make_unique<Lane>(
        Lane{sim::Simulator(sim), swarm::FlockingControlSystem(controller, comm)});
  });
}

std::vector<EvalPool::JobResult> EvalPool::evaluate(const BatchContext& context,
                                                    std::span<const Job> jobs,
                                                    std::span<const Family> families) {
  std::vector<JobResult> results(jobs.size());
  // Task f < families.size() flies family f; every later task one job.
  std::vector<std::size_t> family_begin(families.size() + 1, 0);
  for (std::size_t f = 0; f < families.size(); ++f) {
    family_begin[f + 1] = family_begin[f] + families[f].size;
  }
  const std::size_t singles_begin = family_begin.back();
  const auto tasks = static_cast<int>(families.size() + jobs.size() - singles_begin);
  pool_.for_each(tasks, [&](int task, int lane_index) {
    Lane& lane = *lanes_[static_cast<std::size_t>(lane_index)];
    const auto f = static_cast<std::size_t>(task);
    if (f >= families.size()) {
      const std::size_t i = singles_begin + f - families.size();
      run_job(lane, context, jobs[i], results[i], nullptr);
      return;
    }
    WindowBranch branch{.time = families[f].branch_time};
    for (std::size_t i = family_begin[f]; i < family_begin[f + 1]; ++i) {
      run_job(lane, context, jobs[i], results[i], &branch);
    }
  });
  return results;
}

void EvalPool::run_job(Lane& lane, const BatchContext& context, const Job& job,
                       JobResult& out, WindowBranch* branch) noexcept {
  try {
    static_cast<AttackEvalOutcome&>(out) = evaluate_attack(
        *context.mission, lane.simulator, lane.system, job.seed,
        context.spoof_distance, context.prefix, context.guards, job.t_start,
        job.duration, branch);
  } catch (...) {
    // Captured, not thrown: the Objective replays outcomes in submission
    // order and rethrows this at the job's serial position.
    out.error = std::current_exception();
  }
}

}  // namespace swarmfuzz::fuzz
