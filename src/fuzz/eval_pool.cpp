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
                                                    std::span<const Job> jobs) {
  std::vector<JobResult> results(jobs.size());
  pool_.for_each(static_cast<int>(jobs.size()), [&](int i, int lane) {
    const auto index = static_cast<std::size_t>(i);
    run_job(*lanes_[static_cast<std::size_t>(lane)], context, jobs[index],
            results[index]);
  });
  return results;
}

void EvalPool::run_job(Lane& lane, const BatchContext& context, const Job& job,
                       JobResult& out) noexcept {
  try {
    static_cast<AttackEvalOutcome&>(out) = evaluate_attack(
        *context.mission, lane.simulator, lane.system, job.seed,
        context.spoof_distance, context.prefix, context.guards, job.t_start,
        job.duration);
  } catch (...) {
    // Captured, not thrown: the Objective replays outcomes in submission
    // order and rethrows this at the job's serial position.
    out.error = std::current_exception();
  }
}

}  // namespace swarmfuzz::fuzz
