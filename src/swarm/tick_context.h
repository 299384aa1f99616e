// Per-tick shared evaluation context for the parallel hot loops.
//
// Before the tick pool, every pair-scan kernel (the controller batch paths,
// comm filtering, collision detection, metrics) kept its own copy-pasted
// `thread_local SpatialGrid` + candidate-buffer block. Those blocks served
// two very different roles that thread_local conflated:
//   * the spatial grid — TICK-SHARED state, built once from the broadcast
//     and only ever *read* by the per-drone scans (all SpatialGrid queries
//     are const and touch no mutable state), and
//   * the gather/selection buffers — LANE-PRIVATE mutable scratch.
// TickContext makes the split explicit: one grid built by the calling
// thread before the workers start, plus one PairScanScratch lane per pool
// thread. Workers index their lane by the lane id the pool hands them, so
// no two lanes ever share a buffer and nothing is thread_local.
//
// Scratch contents never influence results (every buffer is cleared or
// overwritten before use); they exist purely so the steady-state tick loop
// performs no heap allocation. thread_tick_context() keeps a one-lane
// fallback for serial callers (per-view kernels, probes, metrics, tests),
// deduplicating the old thread_local blocks into this single shared type.
#pragma once

#include <limits>
#include <utility>
#include <vector>

#include "math/vec3.h"
#include "swarm/spatial_grid.h"
#include "util/worker_pool.h"

namespace swarmfuzz::swarm {

// First-event slots of one collision-scan lane (sim/collision.cpp): the
// lane's earliest obstacle hit and earliest drone-drone hit, as
// (drone, other) index pairs; -1 = this lane found none. `min_pair_d2` is
// the smallest squared distance among the pairs the lane scanned (the
// pair-distance bound's lane minimum).
struct FirstEventSlots {
  int obstacle_drone = -1;
  int obstacle_other = -1;
  int pair_drone = -1;
  int pair_other = -1;
  double min_pair_d2 = std::numeric_limits<double>::infinity();
};

// Reusable mutable scratch for one evaluation lane of a pair-scan kernel.
// Kept generic (indices, distances, Vec3 accumulators) so one type serves
// every kernel; each kernel documents which fields it uses.
struct PairScanScratch {
  std::vector<std::pair<double, math::Vec3>> neighbours;  // (dist, self-other)
  std::vector<int> cand;          // grid gather output
  std::vector<int> cand_near;     // gather_nearest output
  std::vector<int> members;       // comm-filter member slots
  std::vector<int> contributors;  // per-drone counters (dense batch path)
  std::vector<double> dist;       // pairwise distance cache (dense batch path)
  std::vector<math::Vec3> vec_a;  // per-drone Vec3 accumulator (dense path)
  std::vector<math::Vec3> vec_b;  // second per-drone Vec3 accumulator
  std::vector<math::Vec3> pos;    // position staging (collision, metrics)
  FirstEventSlots first_event;    // parallel collision reduction slot
};

class TickContext {
 public:
  explicit TickContext(int lanes = 1) { resize_lanes(lanes); }

  // Grows/shrinks the lane set; existing lanes keep their capacity.
  void resize_lanes(int lanes) {
    lanes_.resize(static_cast<std::size_t>(lanes < 1 ? 1 : lanes));
  }

  [[nodiscard]] int lanes() const noexcept {
    return static_cast<int>(lanes_.size());
  }

  // The tick-shared grid: built by the calling thread before any worker
  // reads it; all queries are const and safe to run concurrently.
  [[nodiscard]] SpatialGrid& grid() noexcept { return grid_; }
  [[nodiscard]] const SpatialGrid& grid() const noexcept { return grid_; }

  [[nodiscard]] PairScanScratch& lane(int lane) noexcept {
    return lanes_[static_cast<std::size_t>(lane)];
  }

 private:
  SpatialGrid grid_;
  std::vector<PairScanScratch> lanes_;
};

// Borrowed pool + context handed down the batch entry points. Default
// (both null) = serial with the thread-local fallback context. parallel()
// is the single gate every kernel checks: a pool with real workers AND a
// context with a scratch lane for each of them.
struct TickExecutor {
  util::WorkerPool* pool = nullptr;
  TickContext* context = nullptr;

  [[nodiscard]] bool parallel() const noexcept {
    return pool != nullptr && pool->threads() > 1 && context != nullptr &&
           context->lanes() >= pool->threads();
  }

  // Runs fn(begin, end, lane) over [0, n): the pool's static contiguous
  // chunks when parallel(), otherwise the whole range inline as lane 0 —
  // one code path for both, with lane-indexed scratch either way.
  template <typename Fn>
  void for_range(int n, Fn&& fn) const {
    if (parallel()) {
      pool->parallel_for(n, fn);
    } else if (n > 0) {
      fn(0, n, 0);
    }
  }
};

// One-lane fallback context for callers outside a parallel tick (per-view
// kernels, counterfactual probes, metrics, direct test calls). Thread-local
// so concurrent pool workers each reuse their own — persistent
// worker threads keep their buffers across ticks, so steady state stays
// allocation-free on every thread.
[[nodiscard]] TickContext& thread_tick_context() noexcept;

}  // namespace swarmfuzz::swarm
