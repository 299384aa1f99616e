// Transport retry-layer tests (DESIGN.md section 16): errno classification,
// deterministic backoff with bounded jitter, attempt exhaustion, and
// process-wide counters. The retrier under test is always a local instance
// (or the process-wide one reset around the case), so cases cannot leak
// counts into each other.
#include "util/retry.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <vector>

namespace swarmfuzz::util {
namespace {

// A retrier that records sleeps instead of performing them.
struct Harness {
  std::vector<std::int64_t> sleeps;
  IoRetrier retrier;

  explicit Harness(RetryPolicy policy = {}, std::uint64_t jitter_seed = 42)
      : retrier(policy, jitter_seed,
                [this](std::int64_t ms) { sleeps.push_back(ms); }) {}
};

TEST(IoError, CarriesItsErrno) {
  const IoError error("disk went away", EIO);
  EXPECT_EQ(error.code(), EIO);
  EXPECT_STREQ(error.what(), "disk went away");
}

TEST(TransientErrno, ClassifiesKnownCodes) {
  // Worth retrying: interruptions, pressure, flaky media.
  EXPECT_TRUE(is_transient_errno(EINTR));
  EXPECT_TRUE(is_transient_errno(EAGAIN));
  EXPECT_TRUE(is_transient_errno(EIO));
  EXPECT_TRUE(is_transient_errno(ENOSPC));
  EXPECT_TRUE(is_transient_errno(EBUSY));
  // No retry fixes these.
  EXPECT_FALSE(is_transient_errno(ENOENT));
  EXPECT_FALSE(is_transient_errno(EACCES));
  EXPECT_FALSE(is_transient_errno(EROFS));
  EXPECT_FALSE(is_transient_errno(EINVAL));
  // Unknown (including "no errno captured") must err toward retrying: the
  // cost asymmetry is a few bounded sleeps vs an aborted campaign.
  EXPECT_TRUE(is_transient_errno(0));
}

TEST(IoRetrier, ReturnsResultWithoutRetryOnSuccess) {
  Harness h;
  const int value = h.retrier.run("op", [] { return 41 + 1; });
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(h.sleeps.empty());
  EXPECT_EQ(h.retrier.counters().attempts, 1);
  EXPECT_EQ(h.retrier.counters().retries, 0);
}

TEST(IoRetrier, RetriesTransientFailuresThenSucceeds) {
  Harness h;
  int calls = 0;
  const int value = h.retrier.run("op", [&calls] {
    if (++calls < 3) throw IoError("hiccup", EIO);
    return calls;
  });
  EXPECT_EQ(value, 3);
  EXPECT_EQ(h.sleeps.size(), 2u);  // slept before attempts 2 and 3
  EXPECT_EQ(h.retrier.counters().attempts, 3);
  EXPECT_EQ(h.retrier.counters().retries, 2);
  EXPECT_EQ(h.retrier.counters().exhausted, 0);
}

TEST(IoRetrier, PermanentErrnoRethrowsImmediately) {
  Harness h;
  int calls = 0;
  EXPECT_THROW(h.retrier.run("op",
                             [&calls]() -> int {
                               ++calls;
                               throw IoError("gone", ENOENT);
                             }),
               IoError);
  EXPECT_EQ(calls, 1);  // no second attempt, no sleep
  EXPECT_TRUE(h.sleeps.empty());
  EXPECT_EQ(h.retrier.counters().permanent, 1);
  EXPECT_EQ(h.retrier.counters().retries, 0);
}

TEST(IoRetrier, ExhaustsAttemptsAndRethrows) {
  Harness h;
  int calls = 0;
  EXPECT_THROW(h.retrier.run("op",
                             [&calls]() -> int {
                               ++calls;
                               throw IoError("still down", EIO);
                             }),
               IoError);
  EXPECT_EQ(calls, h.retrier.policy().max_attempts);
  EXPECT_EQ(h.retrier.counters().exhausted, 1);
}

TEST(IoRetrier, BackoffGrowsAndStaysWithinJitterBounds) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 100;
  policy.backoff_multiplier = 4.0;
  policy.max_backoff_ms = 100000;
  policy.jitter = 0.5;
  Harness h(policy);
  std::int64_t previous = 0;
  for (int attempt = 1; attempt <= 4; ++attempt) {
    const std::int64_t nominal = static_cast<std::int64_t>(
        100.0 * std::pow(4.0, attempt - 1));
    const std::int64_t backoff = h.retrier.backoff_ms("op", attempt);
    EXPECT_GE(backoff, nominal / 2) << "attempt " << attempt;
    EXPECT_LE(backoff, nominal + nominal / 2) << "attempt " << attempt;
    EXPECT_GT(backoff, previous);  // exponential through the jitter band
    previous = backoff;
  }
}

TEST(IoRetrier, BackoffIsDeterministicInSeedOpAndAttempt) {
  Harness a;
  Harness b;
  // Same seed, op and attempt -> identical schedule across instances.
  EXPECT_EQ(a.retrier.backoff_ms("append", 1), b.retrier.backoff_ms("append", 1));
  EXPECT_EQ(a.retrier.backoff_ms("append", 2), b.retrier.backoff_ms("append", 2));
  // Different op or seed -> de-synchronised (with these values; the point is
  // the jitter actually depends on its inputs).
  EXPECT_NE(a.retrier.backoff_ms("append", 1), a.retrier.backoff_ms("claim", 1));
  const Harness c({}, /*jitter_seed=*/7);
  EXPECT_NE(a.retrier.backoff_ms("append", 1), c.retrier.backoff_ms("append", 1));
}

TEST(IoRetrier, BackoffIsCappedAtMax) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_ms = 10;
  policy.backoff_multiplier = 10.0;
  policy.max_backoff_ms = 500;
  policy.jitter = 0.0;  // exact cap, no band
  Harness h(policy);
  EXPECT_EQ(h.retrier.backoff_ms("op", 8), 500);
}

TEST(IoRetrier, ResetClearsCounters) {
  RetryPolicy policy;
  policy.max_attempts = 1;
  Harness h(policy);
  EXPECT_THROW(h.retrier.run("op", []() -> int { throw IoError("down", EIO); }),
               IoError);
  ASSERT_EQ(h.retrier.counters().exhausted, 1);
  h.retrier.reset();
  EXPECT_EQ(h.retrier.counters().attempts, 0);
  EXPECT_EQ(h.retrier.counters().exhausted, 0);
}

TEST(IoRetrier, ProcessWideInstanceExists) {
  io_retrier().reset();
  (void)io_retrier().run("smoke", [] { return 1; });
  EXPECT_EQ(io_retrier().counters().attempts, 1);
  io_retrier().reset();
}

}  // namespace
}  // namespace swarmfuzz::util
