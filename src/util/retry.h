// Policy-driven retry for durable-I/O ("transport") operations.
//
// Every durable write — checkpoint and telemetry appends
// (fuzz::append_jsonl_line, which JsonlTelemetrySink::record calls) and
// write_file_atomic (corpus saves, summary and report files) — goes through
// one process-wide IoRetrier, so a transient filesystem error (EINTR, a
// brief ENOSPC, an NFS EIO hiccup) degrades to a bounded retry with
// exponential backoff instead of aborting a whole campaign. Failures are classified by errno:
//
//   transient   retried up to RetryPolicy::max_attempts with exponential
//               backoff; the jitter is deterministic (seeded splitmix64 of
//               the operation name and attempt), so a backoff schedule
//               replays exactly.
//   permanent   (ENOENT, EACCES, EROFS, ...) rethrown immediately — no
//               number of retries fixes a read-only filesystem, and tight-
//               looping on one is exactly the failure mode this layer must
//               avoid.
//
// Counters (attempts/retries/exhausted/permanent) are process-wide and
// stamped into the campaign summary JSON so transport overhead is
// observable (see serialize.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

namespace swarmfuzz::util {

// An I/O failure that remembers its errno, so retry policy can tell a
// retryable hiccup from a permanent refusal. Derives
// from std::runtime_error: existing catch sites keep working unchanged.
class IoError : public std::runtime_error {
 public:
  IoError(const std::string& what, int error_code);

  // The captured errno (0 when unknown; treated as transient).
  [[nodiscard]] int code() const noexcept { return code_; }

 private:
  int code_;
};

// errno classification: true for errors worth retrying (EINTR, EAGAIN, EIO,
// ENOSPC, EBUSY, fd exhaustion), false for errors no retry fixes (ENOENT,
// EACCES, EROFS, EINVAL, ...). Unknown codes (including 0) are transient:
// misclassifying a permanent error costs a few bounded retries, while
// misclassifying a transient one aborts a campaign.
[[nodiscard]] bool is_transient_errno(int error_code) noexcept;

struct RetryPolicy {
  int max_attempts = 4;                 // total tries per operation
  std::int64_t initial_backoff_ms = 10; // before the second attempt
  double backoff_multiplier = 4.0;      // growth per further attempt
  std::int64_t max_backoff_ms = 2000;   // backoff ceiling
  double jitter = 0.5;                  // backoff scaled by [1-j, 1+j)
};

// Snapshot of the process-wide accounting.
struct RetryCounters {
  std::int64_t attempts = 0;     // operation executions (incl. retries)
  std::int64_t retries = 0;      // re-executions after a transient failure
  std::int64_t exhausted = 0;    // episodes that used every attempt and failed
  std::int64_t permanent = 0;    // failures rethrown without retrying
};

class IoRetrier {
 public:
  using SleepFn = std::function<void(std::int64_t)>;

  // `sleep` defaults to a real std::this_thread sleep; tests inject a fake
  // to assert the backoff schedule without waiting it out.
  explicit IoRetrier(RetryPolicy policy = {}, std::uint64_t jitter_seed = 0,
                     SleepFn sleep = {});

  // Runs `fn`, retrying on transient IoError with backoff as described in
  // the file header. Rethrows the final IoError on a permanent errno or on
  // attempt exhaustion. `op` names the operation class ("append_jsonl",
  // "write_file_atomic", ...) and seeds its backoff jitter.
  template <typename Fn>
  auto run(std::string_view op, Fn&& fn) -> decltype(fn()) {
    for (int attempt = 1;; ++attempt) {
      note_attempt();
      try {
        return fn();
      } catch (const IoError& error) {
        const std::int64_t backoff_ms = on_failure(op, attempt, error.code());
        if (backoff_ms < 0) throw;
        if (backoff_ms > 0) sleep_(backoff_ms);
      }
    }
  }

  // Deterministic backoff before attempt `attempt + 1` (attempt >= 1).
  [[nodiscard]] std::int64_t backoff_ms(std::string_view op, int attempt) const;

  [[nodiscard]] RetryCounters counters() const;
  [[nodiscard]] RetryPolicy policy() const;

  void set_policy(const RetryPolicy& policy);
  void set_sleep(SleepFn sleep);
  // Clears the counters (tests share the process-wide instance and must not
  // leak counts across cases).
  void reset();

 private:
  void note_attempt();
  // Bookkeeping for a failed attempt: returns the backoff to sleep before
  // retrying, or -1 when the error must be rethrown.
  [[nodiscard]] std::int64_t on_failure(std::string_view op, int attempt,
                                        int error_code);

  mutable std::mutex mutex_;
  RetryPolicy policy_;
  const std::uint64_t jitter_seed_;
  SleepFn sleep_;
  RetryCounters counters_;
};

// The process-wide retrier every transport operation routes through.
[[nodiscard]] IoRetrier& io_retrier();

}  // namespace swarmfuzz::util
