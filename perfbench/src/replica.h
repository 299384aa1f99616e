// A replica of SwarmFuzz's fuzz() pipeline built only from the library's
// public calls (Simulator::run, schedule_seeds, Objective, optimize), so a
// traced run can record a span around every layer of a mission:
//
//   mission
//     sim.clean_run
//     fuzz.schedule_seeds
//     fuzz.optimize            (one per seed searched)
//       fuzz.objective.batch   (one per evaluate/evaluate_batch call)
//
// Its results must equal make_fuzzer(kSwarmFuzz)->fuzz() on the same
// mission; the traced run checks that for every mission.
#pragma once

#include <cstdint>
#include <memory>

#include "fuzz/eval_pool.h"
#include "fuzz/fuzzer.h"
#include "trace.h"

namespace perfbench {

// Replica-only counters that FuzzResult does not carry.
struct ReplicaCounters {
  std::int64_t memo_hits = 0;
  std::int64_t objective_batches = 0;
  std::int64_t objective_requests = 0;
};

class ReplicaSwarmFuzzer {
 public:
  // `config` must have prefix reuse on and an explicit sim_threads >= 1.
  // `controller` is shared with this replica's EvalPool workers.
  ReplicaSwarmFuzzer(const swarmfuzz::fuzz::FuzzerConfig& config,
                     std::shared_ptr<TimedController> controller, Tracer& tracer);

  [[nodiscard]] swarmfuzz::fuzz::FuzzResult fuzz(
      const swarmfuzz::sim::MissionSpec& mission, int mission_index,
      ReplicaCounters& counters);

 private:
  swarmfuzz::fuzz::FuzzerConfig config_;
  std::shared_ptr<TimedController> controller_;
  Tracer& tracer_;
  swarmfuzz::swarm::FlockingControlSystem system_;
  swarmfuzz::sim::Simulator simulator_;
  swarmfuzz::fuzz::PrefixCache prefix_;
  swarmfuzz::fuzz::EvalGuards guards_{};
  std::unique_ptr<swarmfuzz::fuzz::EvalPool> pool_;  // iff eval_threads > 1
};

}  // namespace perfbench
