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

#include <utility>
#include <vector>

#include "math/vec3.h"
#include "swarm/spatial_grid.h"
#include "util/worker_pool.h"

namespace swarmfuzz::swarm {

// Reusable mutable scratch for one evaluation lane of a pair-scan kernel.
// Kept generic (indices, distances, Vec3 accumulators) so one type serves
// every kernel; each kernel documents which fields it uses.
struct PairScanScratch {
  std::vector<std::pair<double, math::Vec3>> neighbours;  // (dist, self-other)
  std::vector<int> cand;          // grid gather output
  std::vector<int> contributors;  // per-drone counters (dense batch path)
  std::vector<double> dist;       // pairwise distance cache (dense batch path)
  std::vector<math::Vec3> vec_a;  // per-drone Vec3 accumulator (dense path)
  std::vector<math::Vec3> vec_b;  // second per-drone Vec3 accumulator
  std::vector<math::Vec3> pos;    // position staging (collision, metrics)
  // The lane's share of the neighbour lists (NeighbourLists below): CSR
  // over the drones of the lane's chunk, list_off[i - begin] .. [i - begin
  // + 1] indexing drone i's ascending candidates in `list`.
  std::vector<int> list;
  std::vector<int> list_off;
};

// Verlet neighbour lists of the Vásárhelyi grid path (DESIGN.md §14,
// "Neighbour lists"). Every drone's candidate list was gathered at
// `radius` around `pos0`, so it holds every drone whose XY distance at
// pos0 is at most `radius`; the lists themselves live in the lanes'
// PairScanScratch, one chunk of the (n, chunks) partition per lane. The
// state owns its grid: the other users of TickContext::grid() rebuild that
// one from other positions between ticks, and the lists' re-gathers must
// query the grid they were built from.
struct NeighbourLists {
  SpatialGrid grid;              // built from pos0 at cell size `radius`
  std::vector<math::Vec3> pos0;  // positions the lists were gathered at
  double radius = 0.0;           // gather radius, m
  int chunks = 0;                // lane partition of the lists; 0 = none
};

class TickContext {
 public:
  explicit TickContext(int lanes = 1) { resize_lanes(lanes); }

  // Grows/shrinks the lane set; existing lanes keep their capacity. A
  // change drops the neighbour lists, whose chunks live in the lanes.
  void resize_lanes(int lanes) {
    const auto want = static_cast<std::size_t>(lanes < 1 ? 1 : lanes);
    if (want != lanes_.size()) lists_.chunks = 0;
    lanes_.resize(want);
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

  [[nodiscard]] NeighbourLists& neighbour_lists() noexcept { return lists_; }

 private:
  SpatialGrid grid_;
  std::vector<PairScanScratch> lanes_;
  NeighbourLists lists_;
};

// Borrowed pool + context handed down the batch entry points. Default
// (both null) = serial with the thread-local fallback context. parallel()
// is the gate the Vásárhelyi grid kernel checks: a pool with real workers
// AND a context with a scratch lane for each of them.
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
