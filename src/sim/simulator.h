// Simulator front-end: runs one mission end-to-end.
//
// Per control tick (the distributed-swarm loop of Fig. 1 in the paper):
//   1. each drone reads its GPS (spoofing offset applied here),
//   2. drones exchange physical states (the shared WorldSnapshot),
//   3. the control system computes per-drone desired velocities,
//   4. vehicle dynamics advance ground truth,
// then collisions are checked and the recorder updated.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "sim/checkpoint.h"
#include "sim/collision.h"
#include "sim/control.h"
#include "sim/fault.h"
#include "sim/gps.h"
#include "sim/imu.h"
#include "sim/mission.h"
#include "sim/nav_filter.h"
#include "sim/recorder.h"
#include "sim/world.h"
#include "util/worker_pool.h"

namespace swarmfuzz::sim {

// Observes every control tick of a run (after sensing, before actuation).
// Used by defenses (GPS-spoofing detectors watch the broadcast fixes) and by
// streaming exporters. Observers must not mutate simulation state.
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  virtual void on_step(double time, const WorldSnapshot& snapshot,
                       std::span<const DroneState> truth) = 0;
};

struct SimulationConfig {
  double dt = 0.05;               // control/physics step, s
  GpsConfig gps{.rate_hz = 20.0, .noise_stddev = 0.0};
  VehicleType vehicle = VehicleType::kPointMass;
  PointMassParams point_mass{};
  QuadrotorParams quadrotor{};
  bool stop_on_collision = true;  // collision ends the run
  bool stop_on_arrival = true;    // centroid within arrival_radius ends it
  double record_period = 0.1;     // s between kept trajectory samples
  std::uint64_t noise_seed = 1;   // GPS/IMU noise stream seed
  // When true, drones broadcast GPS+IMU fused estimates (complementary
  // navigation filter) instead of raw GPS fixes. Spoofing then drags the
  // estimate gradually rather than stepping it (see sim/nav_filter.h).
  bool use_navigation_filter = false;
  ImuConfig imu{};
  NavFilterConfig nav_filter{};
  // Numerical-health sentinel: a drone whose position magnitude exceeds this
  // (metres; missions span a few hundred) — or whose position, velocity or
  // control output goes non-finite — aborts the run with a structured
  // RunFaultError{kNumericalDivergence} instead of letting NaNs reach the
  // recorder and the objective math. 0 disables the magnitude envelope (the
  // non-finite checks stay on; they share the same comparison).
  double divergence_limit = 1e6;
  // Intra-tick worker threads for the Vásárhelyi grid kernel, the one
  // per-drone loop that fans out to a pool. 0 = auto (all hardware threads,
  // util::resolve_thread_budget); 1 (the default) = serial. Results are
  // bit-identical for every value — static contiguous chunking preserves
  // each drone's accumulation order (DESIGN.md §15) — and swarms the
  // spatial-grid policy leaves on the dense path (swarm::spatial_grid_wanted)
  // stay serial regardless.
  int sim_threads = 1;
};

struct RunResult {
  bool collided = false;
  std::optional<CollisionEvent> first_collision;
  bool reached_destination = false;
  double end_time = 0.0;           // mission duration t_mission
  Recorder recorder;               // trajectories + VDO + t_clo

  // Performance accounting: control ticks this call actually simulated vs
  // ticks inherited from the resume checkpoint (0 for from-scratch runs).
  // steps_executed + steps_resumed = total ticks of the logical mission.
  std::int64_t steps_executed = 0;
  std::int64_t steps_resumed = 0;

  // Convenience accessors over the recorder.
  [[nodiscard]] double vdo(int drone) const {
    return recorder.min_obstacle_distance(drone);
  }
  [[nodiscard]] double t_clo() const { return recorder.closest_time(); }
};

// Optional attachments for a run. All pointers are borrowed and may be null.
struct RunHooks {
  const GpsOffsetProvider* spoofer = nullptr;  // injects GPS offsets
  StepObserver* observer = nullptr;            // sees every control tick

  // When set, the run emits a SimulationCheckpoint at loop-top (before
  // sensing) every `checkpoint_period` seconds of sim time, starting at
  // t = 0. Resuming from any emitted checkpoint reproduces the remainder
  // of this run bit-for-bit (see sim/checkpoint.h). Captures cost a few µs
  // each (checkpoints carry no trajectory samples), so a tight period is
  // cheap and shortens the re-simulated gap between a resume point and the
  // spoofing window it serves.
  CheckpointSink* checkpoints = nullptr;
  double checkpoint_period = 1.0;  // s of sim time between checkpoints

  // One-shot capture (window-tree reuse, DESIGN.md §10): when set, the run
  // emits one checkpoint to `branch_sink` at the last loop-top t with
  // t <= branch_time, i.e. where t <= branch_time && !(t + dt <= branch_time)
  // (World advances its clock by `time += dt`, so exactly one tick passes
  // this test). Nothing is emitted when the run ends before that tick or
  // resumes after it. A null sink costs one pointer test per tick.
  CheckpointSink* branch_sink = nullptr;
  double branch_time = 0.0;

  // When set, the run starts from this checkpoint instead of t = 0, and
  // `resume_recorder` must point at the recorder of the run that captured
  // it (at capture time or later — e.g. the finished clean run's recorder),
  // which supplies the trajectory-sample prefix. The checkpoint must come
  // from a run of the same mission under the same SimulationConfig and
  // control-system type; shape mismatches throw.
  const SimulationCheckpoint* resume_from = nullptr;
  const Recorder* resume_recorder = nullptr;

  // Execution guards: per-run sim-step budget and absolute wall-clock
  // deadline; exceeding either throws RunFaultError{kTimeout}. Defaults
  // disable both (see sim/fault.h).
  RunWatchdog watchdog{};

  // Deterministic fault injection (test machinery): drives a NaN, throw or
  // hang fault at a chosen sim time so containment paths can be exercised.
  FaultInjection inject_fault{};

  // Decided-outcome early exit (DESIGN.md, "Decided horizon"). From this sim
  // time on, the run ends after the first tick at which, for every drone i
  // and obstacle k, the along-axis offset a = (p_i - c_k)_xy . mission_axis
  // is positive, a^2 is at least the recorder's closest squared approach of
  // drone i to c_k so far, and drone i's horizontal velocity does not point
  // back along the axis. Provided no drone later moves back along the axis,
  // every per-drone obstacle minimum (and its time) is then final and no
  // obstacle collision can follow. Checked at the end of the tick, after
  // record, the collision check and the arrival check; the default (+inf)
  // flies to arrival.
  double stop_when_decided_after = std::numeric_limits<double>::infinity();
};

class Simulator {
 public:
  explicit Simulator(SimulationConfig config = {});

  // Runs `mission` under `control`; `spoofer` (optional) injects GPS
  // offsets; `observer` (optional) sees every control tick. The control
  // system is reset() before the run with a seed derived from the mission
  // seed, so repeated runs are identical.
  [[nodiscard]] RunResult run(const MissionSpec& mission, ControlSystem& control,
                              const GpsOffsetProvider* spoofer = nullptr,
                              StepObserver* observer = nullptr) const;

  // Full-control entry point: spoofer/observer plus checkpoint emission
  // and/or resumption via `hooks`.
  [[nodiscard]] RunResult run(const MissionSpec& mission, ControlSystem& control,
                              const RunHooks& hooks) const;

  // Resumes `mission` from `checkpoint` (captured by an earlier run of the
  // same mission/config); `prefix_recorder` is that run's recorder, which
  // supplies the trajectory samples up to the checkpoint. The tail is
  // bit-identical to the uninterrupted run, including with a spoofer whose
  // window opens at or after checkpoint.time.
  [[nodiscard]] RunResult run_from(const SimulationCheckpoint& checkpoint,
                                   const Recorder& prefix_recorder,
                                   const MissionSpec& mission,
                                   ControlSystem& control,
                                   const GpsOffsetProvider* spoofer = nullptr,
                                   StepObserver* observer = nullptr) const;

  [[nodiscard]] const SimulationConfig& config() const noexcept { return config_; }

 private:
  SimulationConfig config_;
  // config_.sim_threads with 0 = auto resolved at construction: a plain
  // simulation is one eval lane, so auto is the whole machine.
  int sim_threads_ = 1;
  // Lazily created worker pool (only when sim_threads_ exceeds 1 and the
  // mission is large enough to leave the serial path).
  // mutable because run() is const; safe because a Simulator instance is
  // driven by one thread at a time — concurrent fuzzing goes through
  // EvalPool, whose lanes each own their own Simulator.
  mutable std::unique_ptr<util::WorkerPool> tick_pool_;
};

}  // namespace swarmfuzz::sim
