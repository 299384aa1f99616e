#include "util/worker_pool.h"

#include <algorithm>
#include <utility>

namespace swarmfuzz::util {

int hardware_threads() noexcept {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

ThreadBudget resolve_thread_budget(int eval_threads, int sim_threads,
                                   int share) noexcept {
  share = std::max(share, 1);
  ThreadBudget budget;
  budget.eval_threads = eval_threads > 0
                            ? eval_threads
                            : std::max(share / std::max(sim_threads, 1), 1);
  budget.sim_threads = sim_threads > 0
                           ? sim_threads
                           : std::max(share / budget.eval_threads, 1);
  return budget;
}

WorkerPool::WorkerPool(int threads) : threads_(std::max(threads, 1)) {
  errors_.assign(static_cast<std::size_t>(threads_), nullptr);
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int lane = 1; lane < threads_; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void WorkerPool::run(LaneFn fn, const void* context) {
  {
    const std::lock_guard lock(mutex_);
    fn_ = fn;
    context_ = context;
    remaining_ = workers_.size();
    ++generation_;
  }
  work_ready_.notify_all();
  // Lane 0 runs on the caller while the workers take lanes 1..T-1; its
  // exception is captured like theirs so the lowest-lane error wins below.
  try {
    fn(context, 0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  {
    std::unique_lock lock(mutex_);
    batch_done_.wait(lock, [this] { return remaining_ == 0; });
  }
  for (std::exception_ptr& slot : errors_) {
    if (slot != nullptr) {
      const std::exception_ptr error = std::exchange(slot, nullptr);
      for (std::exception_ptr& other : errors_) other = nullptr;
      std::rethrow_exception(error);
    }
  }
}

void WorkerPool::worker_loop(int lane) {
  std::uint64_t seen = 0;
  for (;;) {
    LaneFn fn = nullptr;
    const void* context = nullptr;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
      context = context_;
    }
    try {
      fn(context, lane);
    } catch (...) {
      errors_[static_cast<std::size_t>(lane)] = std::current_exception();
    }
    {
      const std::lock_guard lock(mutex_);
      if (--remaining_ == 0) batch_done_.notify_one();
    }
  }
}

}  // namespace swarmfuzz::util
