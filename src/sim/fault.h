// Fault taxonomy and execution guards for fault-tolerant campaigns.
//
// A long fuzzing campaign must treat a bad evaluation the way AFL's fork
// server treats a bad input: one mission pays, the fleet survives. Three
// cooperating pieces implement that discipline:
//
//   1. Numerical-health sentinel (Simulator::run): non-finite positions,
//      velocities or control outputs — and position-magnitude blowup beyond
//      SimulationConfig::divergence_limit — abort the run with a structured
//      RunFaultError instead of propagating NaNs into VDO/objective math.
//   2. Watchdog (RunHooks::watchdog): a per-run sim-step budget and an
//      absolute wall-clock deadline; exceeding either raises kTimeout
//      instead of leaving a hung worker.
//   3. Fault injection (RunHooks::inject_fault): a deterministic test hook
//      that drives NaN, throw and hang faults at a chosen sim time so every
//      containment path is exercised end to end.
//
// The campaign supervisor (fuzz::run_campaign) catches RunFaultError (and
// any other exception, as kException), retries the mission with a salted
// seed, and records a persistent failure in the mission's checkpoint
// record.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace swarmfuzz::sim {

// Terminal classification of a failed run/mission. kNone means healthy.
enum class FaultKind {
  kNone,
  kNumericalDivergence,  // non-finite state or position blowup (sentinel)
  kTimeout,              // sim-step budget or wall-clock deadline exceeded
  kException,            // any exception not raised as a structured fault
  kCleanRunFailed,       // mission collided without attack on every re-draw
};

// Stable wire names ("none", "numerical_divergence", ...), used in
// telemetry/checkpoint records.
[[nodiscard]] std::string_view fault_kind_name(FaultKind kind) noexcept;
// Inverse of fault_kind_name; throws std::invalid_argument on unknown input.
[[nodiscard]] FaultKind fault_kind_from_name(std::string_view name);

// Structured description of an aborted run: what tripped, when, and (for
// drone-specific sentinels) which drone.
struct RunFault {
  FaultKind kind = FaultKind::kNone;
  double time = 0.0;   // sim time at detection
  int drone = -1;      // offending drone, -1 when not drone-specific
  std::string detail;  // human-readable diagnosis
};

// Exception carrying a RunFault out of Simulator::run / Objective::evaluate.
class RunFaultError : public std::runtime_error {
 public:
  explicit RunFaultError(RunFault fault);
  [[nodiscard]] const RunFault& fault() const noexcept { return fault_; }

 private:
  RunFault fault_;
};

// Deterministic fault injection, applied inside the simulation step loop
// once sim time reaches `at_time`. Test machinery only: the default mode
// kNone costs one branch per tick.
struct FaultInjection {
  enum class Mode {
    kNone,
    kNan,    // corrupt drone 0's control output to NaN (trips the sentinel)
    kThrow,  // throw a plain std::runtime_error (exercises kException)
    kHang,   // sleep 1 ms per tick (trips the wall-clock watchdog)
  };
  Mode mode = Mode::kNone;
  double at_time = 0.0;  // sim time at/after which the fault fires
};

// Per-run execution guards checked inside the step loop. Default values
// disable both checks.
struct RunWatchdog {
  std::int64_t max_steps = 0;  // ticks this run() call may execute; 0 = off
  bool has_deadline = false;   // when true, `deadline` is enforced
  // Absolute cutoff, so one deadline can span every run of a mission (clean
  // run plus all objective evaluations). Checked every 64 ticks to keep the
  // steady_clock read off the per-tick hot path.
  std::chrono::steady_clock::time_point deadline{};

  // Watchdog with a wall-clock deadline `seconds` from now.
  [[nodiscard]] static RunWatchdog with_timeout(double seconds);
};

}  // namespace swarmfuzz::sim
