#include "fuzz/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace swarmfuzz::fuzz {
namespace {

// Synthetic convex landscape mimicking Fig. 5 of the paper: a paraboloid in
// (t_s, dt) whose minimum value is configurable. Success when f <= 0.
class Paraboloid final : public ObjectiveFunction {
 public:
  Paraboloid(double ts_opt, double dt_opt, double min_value, double t_mission = 120.0)
      : ts_opt_(ts_opt), dt_opt_(dt_opt), min_value_(min_value),
        t_mission_(t_mission) {}

  ObjectiveEval evaluate(double t_start, double duration) override {
    ++evaluations;
    ObjectiveEval eval;
    eval.f = min_value_ + 0.01 * (t_start - ts_opt_) * (t_start - ts_opt_) +
             0.01 * (duration - dt_opt_) * (duration - dt_opt_);
    eval.success = eval.f <= 0.0;
    if (eval.success) eval.crashed_drone = 1;
    return eval;
  }

  void project(double& t_start, double& duration) const override {
    project_window(t_start, duration, t_mission_, 0.05);
  }

  int evaluations = 0;

 private:
  double ts_opt_, dt_opt_, min_value_, t_mission_;
};

// A landscape that is flat everywhere (spoofing has no effect).
class Flat final : public ObjectiveFunction {
 public:
  ObjectiveEval evaluate(double, double) override {
    ++evaluations;
    return ObjectiveEval{.f = 5.0};
  }
  void project(double& t_start, double& duration) const override {
    t_start = std::max(t_start, 0.0);
    duration = std::max(duration, 0.05);
  }
  int evaluations = 0;
};

const StartPoint kStart{20.0, 20.0};

TEST(Optimizer, FindsReachableMinimum) {
  Paraboloid objective(40.0, 12.0, -0.5);
  const auto result =
      optimize(objective, std::span(&kStart, 1), 20, OptimizerConfig{});
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.crashed_drone, 1);
  EXPECT_LE(result.best_f, 0.0);
  EXPECT_LE(result.iterations, 20);
}

TEST(Optimizer, SucceedsImmediatelyAtStartPoint) {
  Paraboloid objective(20.0, 20.0, -1.0);
  const auto result =
      optimize(objective, std::span(&kStart, 1), 20, OptimizerConfig{});
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.iterations, 1);
}

TEST(Optimizer, StallsOnPositiveMinimum) {
  // Convex bowl whose floor is above zero: no collision exists; the search
  // must converge, report stalled and not claim success.
  Paraboloid objective(25.0, 18.0, 2.0);
  const auto result =
      optimize(objective, std::span(&kStart, 1), 20, OptimizerConfig{});
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.stalled);
  EXPECT_NEAR(result.best_f, 2.0, 0.5);
}

TEST(Optimizer, FlatLandscapeAbandonsQuickly) {
  Flat objective;
  const auto result =
      optimize(objective, std::span(&kStart, 1), 20, OptimizerConfig{});
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.stalled);
  EXPECT_LE(result.iterations, 5);
}

TEST(Optimizer, RespectsBudget) {
  // Distant minimum + tiny learning rate: budget is the binding constraint.
  Paraboloid objective(200.0, 100.0, -1.0, 400.0);
  OptimizerConfig config;
  config.learning_rate = 0.1;
  config.stall_tolerance = 0.0;  // never stall
  const auto result = optimize(objective, std::span(&kStart, 1), 7, config);
  EXPECT_LE(result.iterations, 7);
  EXPECT_FALSE(result.success);
}

TEST(Optimizer, MultiStartPicksBestBasin) {
  // Two starts: one near the minimum, one far. The descent must proceed from
  // the near one and succeed within a few iterations.
  Paraboloid objective(60.0, 10.0, -0.2);
  const std::vector<StartPoint> starts{{5.0, 50.0}, {58.0, 12.0}};
  const auto result = optimize(objective, starts, 20, OptimizerConfig{});
  EXPECT_TRUE(result.success);
  EXPECT_NEAR(result.t_start, 60.0, 10.0);
}

TEST(Optimizer, MultiStartEvaluationCanSucceedDirectly) {
  Paraboloid objective(60.0, 10.0, -5.0);
  const std::vector<StartPoint> starts{{200.0, 1.0}, {60.0, 10.0}};
  const auto result = optimize(objective, starts, 20, OptimizerConfig{});
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.iterations, 2);  // second start probe hit it
  EXPECT_DOUBLE_EQ(result.t_start, 60.0);
}

TEST(Optimizer, EmptyStartsReturnsFailure) {
  Paraboloid objective(10.0, 10.0, -1.0);
  const auto result = optimize(objective, {}, 20, OptimizerConfig{});
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(objective.evaluations, 0);
}

TEST(Optimizer, ZeroBudgetDoesNothing) {
  Paraboloid objective(10.0, 10.0, -1.0);
  const auto result = optimize(objective, std::span(&kStart, 1), 0, OptimizerConfig{});
  EXPECT_FALSE(result.success);
  EXPECT_EQ(objective.evaluations, 0);
}

TEST(Optimizer, ParametersStayFeasible) {
  Paraboloid objective(0.0, 0.0, 1.0);  // minimum at the boundary
  OptimizerConfig config;
  config.stall_tolerance = 0.0;
  const auto result = optimize(objective, std::span(&kStart, 1), 20, config);
  EXPECT_GE(result.t_start, 0.0);
  EXPECT_GE(result.duration, 0.0);
}

// A linear landscape with the Objective's joint projection (t_s clamped
// against t_mission, dt clamped against the remaining window) that records
// every evaluated point. Linearity makes the correctly-scaled gradient
// exactly the slope (a, b) regardless of where the stencil lands.
class RecordingLinear final : public ObjectiveFunction {
 public:
  static constexpr double kT = 40.0;      // t_mission
  static constexpr double kDtMin = 0.05;  // simulator dt
  static constexpr double kA = 0.2;       // df/dt_s
  static constexpr double kB = 0.1;       // df/ddt

  static double f(double ts, double dt) { return kA * ts + kB * dt + 50.0; }

  ObjectiveEval evaluate(double t_start, double duration) override {
    calls.emplace_back(t_start, duration);
    return ObjectiveEval{.f = f(t_start, duration)};
  }
  void project(double& t_start, double& duration) const override {
    project_window(t_start, duration, kT, kDtMin);
  }

  std::vector<std::pair<double, double>> calls;
};

TEST(Optimizer, BoundaryStencilGradientUsesProjectedDenominators) {
  // Regression for the boundary-clamped gradient bug: with the attack
  // window within fd_step of the mission end, the raw t_s + h and dt + h
  // probes are pulled back by the upper clamp, so dividing their FD by the
  // nominal span (which only accounted for the lower clamp at 0) mis-scales
  // the gradient. The fixed optimizer must probe the *projected* stencil
  // and divide by the distances actually evaluated.
  RecordingLinear objective;
  const StartPoint start{39.5, 10.0};  // projects to (39.5, 0.5): dt window 0.5
  const auto result =
      optimize(objective, std::span(&start, 1), 3, OptimizerConfig{});
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.iterations, 3);
  ASSERT_GE(objective.calls.size(), 7u);

  // Multi-start eval, then the first descent iteration's centre + stencil —
  // all at analytically projected coordinates (h = 1):
  const std::pair<double, double> expected[6] = {
      {39.5, 0.5},    // start (dt clamped from 10 to the 0.5 s window)
      {39.5, 0.5},    // descent centre
      {39.95, 0.05},  // t_s + h: clamped to t_mission - dt_min, dt squeezed
      {38.5, 0.5},    // t_s - h
      {39.5, 0.5},    // dt + h: clamped back onto the centre
      {39.5, 0.05},   // dt - h: clamped up to dt_min
  };
  for (int i = 0; i < 6; ++i) {
    EXPECT_NEAR(objective.calls[i].first, expected[i].first, 1e-12) << "call " << i;
    EXPECT_NEAR(objective.calls[i].second, expected[i].second, 1e-12)
        << "call " << i;
  }

  // The gradient over that stencil, divided by the projected spans
  // (1.45 s and 0.45 s — the buggy code divided both by 2h = 2.0):
  const double grad_ts =
      (RecordingLinear::f(39.95, 0.05) - RecordingLinear::f(38.5, 0.5)) /
      (39.95 - 38.5);
  const double grad_dt =
      (RecordingLinear::f(39.5, 0.5) - RecordingLinear::f(39.5, 0.05)) /
      (0.5 - 0.05);
  // On a linear landscape the projected-stencil dt-gradient is exact.
  EXPECT_NEAR(grad_dt, RecordingLinear::kB, 1e-12);

  // The second descent centre (7th evaluation) sits exactly where Eq. (1)
  // lands with those gradients; the mis-scaled gradients would step to a
  // measurably different point (37.05 instead of ~36.12 in t_s).
  const OptimizerConfig config{};
  const double step_ts =
      std::clamp(config.learning_rate * grad_ts, -config.max_step, config.max_step);
  const double step_dt =
      std::clamp(config.learning_rate * grad_dt, -config.max_step, config.max_step);
  double ts2 = std::max(39.5 - step_ts, 0.0);
  double dt2 = std::max(0.5 - step_dt, 0.0);
  objective.project(ts2, dt2);
  EXPECT_NEAR(objective.calls[6].first, ts2, 1e-9);
  EXPECT_NEAR(objective.calls[6].second, dt2, 1e-9);
}

// Flat landscape that logs the interleaving of evaluate and project calls,
// to pin down *when* the optimizer stops touching the parameters.
class EventLoggingFlat final : public ObjectiveFunction {
 public:
  enum class Kind { kEvaluate, kProject };
  struct Event {
    Kind kind;
    double t_start;
    double duration;
  };

  ObjectiveEval evaluate(double t_start, double duration) override {
    events.push_back({Kind::kEvaluate, t_start, duration});
    return ObjectiveEval{.f = 5.0};
  }
  void project(double& t_start, double& duration) const override {
    t_start = std::clamp(t_start, 0.0, 120.0);
    duration = std::clamp(duration, 0.05, 120.0 - t_start);
    events.push_back({Kind::kProject, t_start, duration});
  }

  // project() is const for callers but part of the trace under test.
  mutable std::vector<Event> events;
};

TEST(Optimizer, DegenerateGradientAbandonsBeforeUpdatingParameters) {
  // Regression: the degenerate-gradient abandon used to run *after* the
  // parameter update and re-projection, leaving (t_start, duration) at a
  // fabricated point no evaluation ever visited. The fixed ordering checks
  // the gradient first, so once the last simulation has run the optimizer
  // never moves the parameters again — and the reported point is always one
  // that was actually evaluated.
  EventLoggingFlat objective;
  const auto result =
      optimize(objective, std::span(&kStart, 1), 20, OptimizerConfig{});
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.stalled);

  ASSERT_FALSE(objective.events.empty());
  // No project (= parameter motion) after the final evaluation.
  EXPECT_EQ(objective.events.back().kind, EventLoggingFlat::Kind::kEvaluate);

  // The reported point matches a center that was actually evaluated.
  bool reported_point_was_evaluated = false;
  for (const auto& event : objective.events) {
    if (event.kind == EventLoggingFlat::Kind::kEvaluate &&
        event.t_start == result.t_start && event.duration == result.duration) {
      reported_point_was_evaluated = true;
    }
  }
  EXPECT_TRUE(reported_point_was_evaluated);
}

TEST(Optimizer, BestFTracksLowestSeen) {
  Paraboloid objective(40.0, 12.0, 1.5);
  const auto result =
      optimize(objective, std::span(&kStart, 1), 20, OptimizerConfig{});
  // best_f must be <= the start evaluation.
  Paraboloid fresh(40.0, 12.0, 1.5);
  const double f0 = fresh.evaluate(kStart.t_start, kStart.duration).f;
  EXPECT_LE(result.best_f, f0 + 1e-9);
}

}  // namespace
}  // namespace swarmfuzz::fuzz
