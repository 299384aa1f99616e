#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "math/rng.h"
#include "swarm/spatial_grid.h"
#include "util/logging.h"

namespace swarmfuzz::sim {

namespace {

// Shape check before touching any state: a checkpoint from a different
// mission size or sensing configuration must fail loudly, not resume into
// silently wrong dynamics.
void validate_checkpoint(const SimulationCheckpoint& cp, int n,
                         bool use_navigation_filter) {
  const auto drones = static_cast<size_t>(n);
  if (cp.vehicles.size() != drones || cp.gps.size() != drones) {
    throw std::invalid_argument("Simulator: checkpoint drone count mismatch");
  }
  const size_t fused = use_navigation_filter ? drones : 0;
  if (cp.imus.size() != fused || cp.filters.size() != fused) {
    throw std::invalid_argument(
        "Simulator: checkpoint navigation-filter state mismatch");
  }
}

// The negated comparisons below are deliberate: `!(x <= limit)` is true for
// NaN as well as for a genuine blowup, so one branch per drone covers both
// sentinel conditions.
[[noreturn]] void raise_divergence(double t, int drone, const char* what) {
  throw RunFaultError(RunFault{.kind = FaultKind::kNumericalDivergence,
                               .time = t,
                               .drone = drone,
                               .detail = what});
}

// The decided-outcome rule of RunHooks::stop_when_decided_after.
bool outcome_decided(std::span<const DroneState> states,
                     const ObstacleField& obstacles, const Recorder& recorder,
                     const Vec3& axis) {
  for (int i = 0; i < static_cast<int>(states.size()); ++i) {
    const DroneState& s = states[static_cast<size_t>(i)];
    if (s.velocity.horizontal().dot(axis) < 0.0) return false;
    for (int k = 0; k < obstacles.size(); ++k) {
      const double along = (s.position - obstacles.at(k).center).horizontal().dot(axis);
      if (!(along > 0.0) || along * along < recorder.min_center_distance_sq(i, k)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

Simulator::Simulator(SimulationConfig config)
    : config_(std::move(config)),
      sim_threads_(util::resolve_thread_budget(1, config_.sim_threads,
                                               util::hardware_threads())
                       .sim_threads) {
  if (config_.dt <= 0.0) throw std::invalid_argument("Simulator: dt <= 0");
}

RunResult Simulator::run(const MissionSpec& mission, ControlSystem& control,
                         const GpsOffsetProvider* spoofer,
                         StepObserver* observer) const {
  return run(mission, control, RunHooks{.spoofer = spoofer, .observer = observer});
}

RunResult Simulator::run_from(const SimulationCheckpoint& checkpoint,
                              const Recorder& prefix_recorder,
                              const MissionSpec& mission, ControlSystem& control,
                              const GpsOffsetProvider* spoofer,
                              StepObserver* observer) const {
  return run(mission, control,
             RunHooks{.spoofer = spoofer, .observer = observer,
                      .resume_from = &checkpoint,
                      .resume_recorder = &prefix_recorder});
}

RunResult Simulator::run(const MissionSpec& mission, ControlSystem& control,
                         const RunHooks& hooks) const {
  const int n = mission.num_drones();
  if (n < 1) throw std::invalid_argument("Simulator: empty mission");
  const GpsOffsetProvider* spoofer = hooks.spoofer;
  StepObserver* observer = hooks.observer;
  const SimulationCheckpoint* resume = hooks.resume_from;
  if (resume != nullptr) {
    if (hooks.resume_recorder == nullptr) {
      throw std::invalid_argument(
          "Simulator: resume_from requires resume_recorder (the source run's "
          "recorder, which supplies the trajectory-sample prefix)");
    }
    validate_checkpoint(*resume, n, config_.use_navigation_filter);
  }

  // The recorder's sample buffer is the run's largest allocation (about
  // 7 MB at 500 drones over 30 s), so it is reserved before anything else:
  // it then reuses the space the previous run's buffer freed. Reserved
  // after the smaller per-run buffers, it was pushed past them onto fresh
  // heap whenever they landed in that space first, which depended on the
  // order missions were flown in and added a whole buffer to peak RSS.
  RunResult result{.recorder = Recorder(n, mission.obstacles, config_.record_period)};
  if (resume == nullptr) result.recorder.reserve(mission.max_time, config_.dt);

  World world(mission, config_.vehicle, config_.point_mass, config_.quadrotor);
  CollisionMonitor monitor(mission.drone_radius);

  // Intra-tick worker pool, created on the first run that needs it. Only
  // the Vásárhelyi grid kernel uses it, so swarms the grid policy leaves on
  // the dense path stay serial: there the handoff would cost more than the
  // scans. The pool is handed to the control system for the duration of
  // the run and detached on every exit path. It is the tick's only handoff:
  // the collision check runs serial (DESIGN.md §15).
  util::WorkerPool* pool = nullptr;
  if (swarm::spatial_grid_wanted(n) && sim_threads_ > 1) {
    if (tick_pool_ == nullptr) {
      tick_pool_ = std::make_unique<util::WorkerPool>(sim_threads_);
    }
    pool = tick_pool_.get();
  }
  control.set_tick_pool(pool);
  struct TickPoolBinding {
    ControlSystem& control;
    ~TickPoolBinding() { control.set_tick_pool(nullptr); }
  } tick_pool_binding{control};

  math::Rng gps_rng(config_.noise_seed ^ mission.seed);
  std::vector<GpsSensor> gps;
  gps.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    gps.emplace_back(config_.gps, gps_rng.split(static_cast<std::uint64_t>(i)));
    gps.back().reset();
  }

  // Optional GPS+IMU fusion pipeline (one IMU + filter per drone).
  std::vector<ImuSensor> imus;
  std::vector<NavigationFilter> filters;
  if (config_.use_navigation_filter) {
    math::Rng imu_rng(config_.noise_seed * 0x9e3779b9ull + mission.seed);
    for (int i = 0; i < n; ++i) {
      imus.emplace_back(config_.imu, imu_rng.split(static_cast<std::uint64_t>(i)));
      filters.emplace_back(config_.nav_filter);
      filters.back().reset(mission.initial_positions[static_cast<size_t>(i)], Vec3{});
    }
  }

  control.reset(mission, mission.seed ^ 0x5f3759dfull);

  // `states` tracks World's internal buffer: step() refreshes it in place,
  // so the loop below never copies the state vector. Pre-step state needed
  // later in the tick (collision sweep, IMU acceleration) is kept in
  // preallocated scratch, making the whole sense→exchange→control loop
  // allocation-free in steady state (DESIGN.md §9).
  const std::vector<DroneState>& states = world.states();

  double t = 0.0;
  std::int64_t total_steps = 0;  // ticks since t=0, including resumed ones
  if (resume != nullptr) {
    // Everything above ran exactly as in the original prefix (the RNG
    // splits and control.reset() consume the same draws), and is now
    // overwritten wholesale with the checkpoint's state; the loop below
    // continues the original run bit-for-bit from `resume->time`.
    world.restore(resume->vehicles, resume->time);
    for (int i = 0; i < n; ++i) {
      gps[static_cast<size_t>(i)].restore(resume->gps[static_cast<size_t>(i)]);
    }
    if (config_.use_navigation_filter) {
      for (int i = 0; i < n; ++i) {
        imus[static_cast<size_t>(i)].restore(resume->imus[static_cast<size_t>(i)]);
        filters[static_cast<size_t>(i)].restore(
            resume->filters[static_cast<size_t>(i)]);
      }
    }
    control.restore_state(resume->control);
    result.recorder.restore(resume->recorder_state, *hooks.resume_recorder);
    result.collided = resume->collided;
    result.first_collision = resume->first_collision;
    t = resume->time;
    total_steps = resume->steps;
    result.steps_resumed = resume->steps;
  } else {
    result.recorder.record(0.0, states);
  }

  WorldSnapshot snapshot;
  snapshot.resize(n);
  std::vector<Vec3> desired(static_cast<size_t>(n));
  std::vector<DroneState> prev_states(
      config_.use_navigation_filter ? static_cast<size_t>(n) : 0);
  std::vector<Vec3> prev_positions(static_cast<size_t>(n));
  // The collision check's pair-distance bound, carried tick to tick along
  // this run's trajectory (DESIGN.md §9).
  PairDistanceBound pair_bound;

  // Sentinel/watchdog setup. The position envelope doubles as the
  // non-finite check: `!(norm_sq <= limit_sq)` is true for NaN too. With
  // divergence_limit == 0 only non-finite states fault (limit_sq = inf).
  const double divergence_limit_sq =
      config_.divergence_limit > 0.0
          ? config_.divergence_limit * config_.divergence_limit
          : std::numeric_limits<double>::infinity();
  const RunWatchdog& watchdog = hooks.watchdog;
  const FaultInjection& inject = hooks.inject_fault;
  const Vec3 axis = mission_axis(mission);  // for the decided-outcome rule

  // Emits the loop-top state (everything the loop evolves) to `sink`.
  const auto capture = [&](CheckpointSink& sink) {
    SimulationCheckpoint cp;
    cp.time = t;
    cp.steps = total_steps;
    world.save(cp.vehicles);
    cp.gps.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      gps[static_cast<size_t>(i)].save(cp.gps[static_cast<size_t>(i)]);
    }
    if (config_.use_navigation_filter) {
      cp.imus.resize(static_cast<size_t>(n));
      cp.filters.resize(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        imus[static_cast<size_t>(i)].save(cp.imus[static_cast<size_t>(i)]);
        filters[static_cast<size_t>(i)].save(cp.filters[static_cast<size_t>(i)]);
      }
    }
    control.save_state(cp.control);
    cp.collided = result.collided;
    cp.first_collision = result.first_collision;
    result.recorder.save(cp.recorder_state);
    sink.on_checkpoint(std::move(cp));
  };

  double last_checkpoint = -std::numeric_limits<double>::infinity();
  while (t < mission.max_time) {
    // Watchdog: the step budget is a plain compare; the wall-clock deadline
    // is checked every 64 ticks to keep the clock read off the hot path.
    if (watchdog.max_steps > 0 && result.steps_executed >= watchdog.max_steps) {
      throw RunFaultError(RunFault{
          .kind = FaultKind::kTimeout,
          .time = t,
          .drone = -1,
          .detail = "sim-step budget of " + std::to_string(watchdog.max_steps) +
                    " steps exhausted"});
    }
    if (watchdog.has_deadline && (total_steps & 63) == 0 &&
        std::chrono::steady_clock::now() >= watchdog.deadline) {
      throw RunFaultError(RunFault{.kind = FaultKind::kTimeout,
                                   .time = t,
                                   .drone = -1,
                                   .detail = "wall-clock deadline exceeded"});
    }
    // 0. Checkpoint at loop-top, before any sensor consumes randomness for
    // this tick, so resuming here replays the tick exactly (including a
    // spoofing window that opens at this very t).
    if (hooks.checkpoints != nullptr &&
        t - last_checkpoint >= hooks.checkpoint_period - 1e-9) {
      capture(*hooks.checkpoints);
      last_checkpoint = t;
    }
    if (hooks.branch_sink != nullptr && t <= hooks.branch_time &&
        !(t + config_.dt <= hooks.branch_time)) {
      capture(*hooks.branch_sink);
    }

    // 1-2. Sense and exchange states.
    snapshot.time = t;
    for (int i = 0; i < n; ++i) {
      const DroneState& truth = states[static_cast<size_t>(i)];
      const Vec3 offset = spoofer ? spoofer->offset(i, t) : Vec3{};
      const Vec3 fix = gps[static_cast<size_t>(i)].read(truth.position, offset, t);
      snapshot.id[static_cast<size_t>(i)] = i;
      if (config_.use_navigation_filter) {
        NavigationFilter& filter = filters[static_cast<size_t>(i)];
        filter.correct(fix);
        snapshot.gps_position[static_cast<size_t>(i)] = filter.position();
        snapshot.velocity[static_cast<size_t>(i)] = filter.velocity();
      } else {
        snapshot.gps_position[static_cast<size_t>(i)] = fix;
        snapshot.velocity[static_cast<size_t>(i)] = truth.velocity;
      }
    }

    if (observer != nullptr) observer->on_step(t, snapshot, states);

    // 3. Swarm control.
    control.compute(snapshot, mission, desired);

    if (inject.mode != FaultInjection::Mode::kNone && t >= inject.at_time) {
      switch (inject.mode) {
        case FaultInjection::Mode::kNan:
          desired[0] = Vec3{std::numeric_limits<double>::quiet_NaN(), 0.0, 0.0};
          break;
        case FaultInjection::Mode::kThrow:
          throw std::runtime_error("injected fault: throw at t=" +
                                   std::to_string(t));
        case FaultInjection::Mode::kHang:
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          break;
        case FaultInjection::Mode::kNone: break;
      }
    }

    // Sentinel: a non-finite control output would corrupt every downstream
    // state; fault here with the offending drone identified.
    for (int i = 0; i < n; ++i) {
      if (!(desired[static_cast<size_t>(i)].norm_sq() <
            std::numeric_limits<double>::infinity())) {
        raise_divergence(t, i, "non-finite control output");
      }
    }

    // 4. Physics. Pre-step velocities are read only by the navigation
    // filter's IMU; pre-step positions by the collision sweep.
    if (config_.use_navigation_filter) {
      std::copy(states.begin(), states.end(), prev_states.begin());
    }
    for (int i = 0; i < n; ++i) {
      prev_positions[static_cast<size_t>(i)] = states[static_cast<size_t>(i)].position;
    }
    world.step(desired, config_.dt);  // refreshes `states` in place
    t = world.time();
    ++total_steps;
    ++result.steps_executed;

    // Sentinel: ground truth must stay finite and inside the divergence
    // envelope. One negated compare per drone catches NaN and blowup alike.
    for (int i = 0; i < n; ++i) {
      const DroneState& s = states[static_cast<size_t>(i)];
      if (!(s.position.norm_sq() <= divergence_limit_sq)) {
        raise_divergence(t, i, "position diverged (non-finite or out of envelope)");
      }
      if (!(s.velocity.norm_sq() < std::numeric_limits<double>::infinity())) {
        raise_divergence(t, i, "non-finite velocity");
      }
    }
    if (config_.use_navigation_filter) {
      for (int i = 0; i < n; ++i) {
        const Vec3 true_accel = (states[static_cast<size_t>(i)].velocity -
                                 prev_states[static_cast<size_t>(i)].velocity) /
                                config_.dt;
        filters[static_cast<size_t>(i)].predict(
            imus[static_cast<size_t>(i)].measure(true_accel), config_.dt);
      }
    }
    result.recorder.record(t, states);

    if (const auto event = monitor.check(states, prev_positions, mission.obstacles,
                                         t, &pair_bound)) {
      result.collided = true;
      if (!result.first_collision) result.first_collision = *event;
      SWARMFUZZ_DEBUG("collision at t={:.2f}s drone={} kind={}", event->time,
                      event->drone, event->kind == CollisionKind::kDroneObstacle
                                        ? "obstacle"
                                        : "drone");
      if (config_.stop_on_collision) break;
    }

    if (config_.stop_on_arrival) {
      Vec3 centroid;
      for (const DroneState& s : states) centroid += s.position;
      centroid = centroid / static_cast<double>(n);
      if (math::distance_xy(centroid, mission.destination) <= mission.arrival_radius) {
        result.reached_destination = true;
        break;
      }
    }

    if (t >= hooks.stop_when_decided_after &&
        outcome_decided(states, mission.obstacles, result.recorder, axis)) {
      break;
    }
  }

  result.end_time = t;
  return result;
}

}  // namespace swarmfuzz::sim
