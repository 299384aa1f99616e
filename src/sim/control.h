// Control-system boundary between the simulator and the swarm algorithms.
//
// The interface lives in sim/ (not swarm/) so the simulator does not depend
// on concrete flocking implementations; swarm/ provides FlockingControlSystem
// on top of this.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/mission.h"
#include "sim/types.h"
#include "util/worker_pool.h"

namespace swarmfuzz::sim {

// Computes one desired velocity per drone from the shared broadcast picture.
// Implementations may keep state (e.g. a communication model with packet
// drops); reset() is called once per mission before the first compute().
class ControlSystem {
 public:
  virtual ~ControlSystem() = default;

  virtual void reset(const MissionSpec& mission, std::uint64_t seed) = 0;

  // Hands the implementation a borrowed intra-tick worker pool before the
  // first compute() of a run (nullptr detaches it afterwards; the pool
  // outlives the binding). Implementations that opt in MUST stay
  // bit-identical for every pool size — the pool exists to move wall time,
  // never results. The default ignores the pool and stays serial.
  virtual void set_tick_pool(util::WorkerPool* pool) { (void)pool; }

  // `desired` has exactly snapshot.size() entries, filled in id order.
  virtual void compute(const WorldSnapshot& snapshot, const MissionSpec& mission,
                       std::span<Vec3> desired) = 0;

  // Mid-run state capture for simulation checkpoints (sim/checkpoint.h):
  // save_state() serializes whatever compute() evolves between ticks (RNG
  // streams, filters) into an opaque word blob; restore_state() — called
  // after reset() with a blob from the same implementation — reinstates it
  // so the next compute() behaves bit-identically to the uninterrupted run.
  // Stateless systems (the default) save an empty blob and ignore restores.
  virtual void save_state(std::vector<std::uint64_t>& out) const { out.clear(); }
  virtual void restore_state(std::span<const std::uint64_t> state) {
    (void)state;
  }
};

}  // namespace swarmfuzz::sim
