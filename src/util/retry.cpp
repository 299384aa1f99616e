#include "util/retry.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <thread>


namespace swarmfuzz::util {
namespace {

// splitmix64 (inlined rather than taken from math/rng.h: util sits below
// math in the dependency order). Good avalanche for little state — the same
// reason mission_seed() uses it.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char ch : text) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

IoError::IoError(const std::string& what, int error_code)
    : std::runtime_error(what), code_(error_code) {}

bool is_transient_errno(int error_code) noexcept {
  switch (error_code) {
    case ENOENT:
    case EACCES:
    case EPERM:
    case EROFS:
    case EINVAL:
    case EISDIR:
    case ENOTDIR:
    case ENAMETOOLONG:
    case EEXIST:
    case EXDEV:
      return false;
    default:
      // EINTR, EAGAIN, EIO, ENOSPC, EDQUOT, EBUSY, ENFILE, EMFILE, ESTALE
      // (NFS) and anything unidentified: retry. See header for why unknown
      // codes default to transient.
      return true;
  }
}

IoRetrier::IoRetrier(RetryPolicy policy, std::uint64_t jitter_seed, SleepFn sleep)
    : policy_(policy), jitter_seed_(jitter_seed), sleep_(std::move(sleep)) {
  if (!sleep_) {
    sleep_ = [](std::int64_t ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
}

std::int64_t IoRetrier::backoff_ms(std::string_view op, int attempt) const {
  const RetryPolicy policy = this->policy();
  double base = static_cast<double>(policy.initial_backoff_ms) *
                std::pow(policy.backoff_multiplier, attempt - 1);
  base = std::min(base, static_cast<double>(policy.max_backoff_ms));
  const std::uint64_t hash =
      splitmix64(jitter_seed_ ^ fnv1a(op) ^
                 (static_cast<std::uint64_t>(attempt) << 32));
  const double unit =
      static_cast<double>(hash >> 11) / static_cast<double>(1ULL << 53);
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  const double factor = 1.0 - jitter + 2.0 * jitter * unit;
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(base * factor));
}

RetryCounters IoRetrier::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

RetryPolicy IoRetrier::policy() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return policy_;
}

void IoRetrier::set_policy(const RetryPolicy& policy) {
  const std::lock_guard<std::mutex> lock(mutex_);
  policy_ = policy;
}

void IoRetrier::set_sleep(SleepFn sleep) {
  const std::lock_guard<std::mutex> lock(mutex_);
  sleep_ = sleep ? std::move(sleep) : SleepFn{[](std::int64_t ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }};
}

void IoRetrier::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_ = RetryCounters{};
}

void IoRetrier::note_attempt() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.attempts;
}

std::int64_t IoRetrier::on_failure(std::string_view op, int attempt,
                                   int error_code) {
  if (!is_transient_errno(error_code)) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.permanent;
    return -1;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (attempt >= policy_.max_attempts) {
      ++counters_.exhausted;
      return -1;
    }
    ++counters_.retries;
  }
  return backoff_ms(op, attempt);
}

IoRetrier& io_retrier() {
  static IoRetrier retrier;
  return retrier;
}

}  // namespace swarmfuzz::util
