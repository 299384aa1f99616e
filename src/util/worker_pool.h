// Deterministic worker pool shared by every parallel layer: the fuzzing
// search's batch evaluation (fuzz::EvalPool), the intra-tick kernels
// (swarm::TickExecutor) and the campaign's mission workers.
//
// A pool of width T keeps T - 1 persistent workers; the CALLER runs lane 0
// and worker w runs lane w + 1, so a lane always maps to the same thread and
// lane-indexed scratch never needs a lock. One handoff serves both
// schedules: run() publishes a capture-free function pointer plus a `void*`
// context under the mutex and bumps the generation, every lane runs it once,
// and the last worker's countdown (under the mutex) releases the caller — so
// every worker write is ordered before the caller's reads. The handoff
// performs no heap allocation, which keeps the steady-state tick loop
// allocation-free on the threaded path too.
//
// Exceptions are captured in preallocated per-lane slots and the lowest
// lane's is rethrown to the caller; the pool stays usable afterwards.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace swarmfuzz::util {

// std::thread::hardware_concurrency() with the unknown-concurrency zero case
// clamped to 1, so no thread-count division can ever produce zero threads.
[[nodiscard]] int hardware_threads() noexcept;

// Widths of the two nested parallel axes of one fuzzing worker: eval threads
// fan independent simulations out (fuzz::EvalPool), sim threads split each
// simulation's tick (sim::Simulator). The outer axis multiplies the inner.
struct ThreadBudget {
  int eval_threads = 1;
  int sim_threads = 1;
};

// The one `0 = auto` rule for thread counts. A request > 0 passes through;
// an auto (<= 0) field takes what the explicit fields leave of `share`
// threads, eval first: auto eval = share / sim (or all of `share` when sim
// is auto too), auto sim = share / eval. Every field is >= 1. A plain
// simulation resolves its sim width as the inner axis of one eval thread.
[[nodiscard]] ThreadBudget resolve_thread_budget(int eval_threads,
                                                 int sim_threads,
                                                 int share) noexcept;

class WorkerPool {
 public:
  // Clamped to >= 1 threads; with one thread no workers are spawned and
  // every call runs on the caller alone.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int threads() const noexcept { return threads_; }

  // Invokes fn(begin, end, lane) so that the half-open chunks [begin, end)
  // partition [0, n) into threads() STATIC CONTIGUOUS pieces (chunk c =
  // [c*n/T, (c+1)*n/T), run by lane c; empty chunks are skipped). Chunk
  // boundaries depend only on (n, threads), never on timing, which is what
  // lets per-element kernels stay bit-identical for any width. `fn` must
  // write only lane-disjoint state plus its own range.
  template <typename Fn>
  void parallel_for(int n, Fn&& fn) {
    if (n <= 0) return;
    const auto chunk = [&](int lane) {
      const int begin = chunk_bound(n, lane);
      const int end = chunk_bound(n, lane + 1);
      if (begin < end) fn(begin, end, lane);
    };
    run([](const void* f, int lane) { (*static_cast<decltype(&chunk)>(f))(lane); },
        &chunk);
  }

  // Invokes fn(i, lane) exactly once for every i in [0, n), lanes claiming
  // indices from a shared atomic cursor — the schedule for jobs of uneven
  // cost. Which lane runs which index depends on timing, so `fn` must make
  // each index's outcome independent of its lane (e.g. per-lane clones of
  // the mutable state). A lane whose `fn` throws stops claiming; the other
  // lanes finish the range.
  template <typename Fn>
  void for_each(int n, Fn&& fn) {
    if (n <= 0) return;
    std::atomic<int> next{0};
    // threads() chunks of [0, threads()) hand every lane exactly one chunk.
    parallel_for(threads_, [&](int /*begin*/, int /*end*/, int lane) {
      for (int i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i, lane);
      }
    });
  }

 private:
  using LaneFn = void (*)(const void* context, int lane);

  // Runs fn(context, lane) once on every lane and returns when all are done;
  // one call in flight at a time per pool (callers must not nest).
  void run(LaneFn fn, const void* context);
  void worker_loop(int lane);

  [[nodiscard]] int chunk_bound(int n, int lane) const noexcept {
    return static_cast<int>((static_cast<std::int64_t>(n) * lane) / threads_);
  }

  int threads_ = 1;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  LaneFn fn_ = nullptr;            // guarded by mutex_
  const void* context_ = nullptr;  // guarded by mutex_
  std::size_t remaining_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  // one slot per lane, preallocated
  std::vector<std::thread> workers_;        // threads_ - 1 persistent workers
};

}  // namespace swarmfuzz::util
