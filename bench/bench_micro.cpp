// Micro-benchmarks (google-benchmark) for the substrate primitives that
// dominate fuzzing campaigns: controller evaluation, full simulation steps,
// whole-mission runs, SVG construction and PageRank.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/fuzzer.h"
#include "fuzz/objective.h"
#include "fuzz/seeds.h"
#include "fuzz/svg.h"
#include "graph/pagerank.h"
#include "math/geometry.h"
#include "math/rng.h"
#include "sim/simulator.h"
#include "swarm/comm.h"
#include "swarm/flocking_system.h"
#include "swarm/spatial_grid.h"
#include "swarm/tick_context.h"
#include "swarm/vasarhelyi.h"
#include "util/worker_pool.h"

namespace {

using namespace swarmfuzz;

sim::MissionSpec mission_of(int drones) {
  sim::MissionConfig config;
  config.num_drones = drones;
  // The default 50 m spawn box only fits ~30 drones at the default 8 m
  // separation; large swarms get a box that grows with sqrt(N) so spawn
  // density (and thus neighbourhood structure) stays comparable. Their
  // missions are capped at 30 s (the examples/large_swarm_scaling workload)
  // so the whole-mission arms stay sub-second per iteration: the default
  // 180 s cap would put BM_FullMission/1000 at ~10 s per iteration, far too
  // slow for the CI smoke run and no more informative per step.
  if (drones > 30) {
    config.spawn_range = 2.2 * config.min_spawn_separation *
                         std::sqrt(static_cast<double>(drones));
    config.max_time = 30.0;
  }
  return sim::generate_mission(config, 1005);
}

sim::WorldSnapshot snapshot_of(const sim::MissionSpec& mission) {
  sim::WorldSnapshot snap;
  snap.reserve(mission.num_drones());
  for (int i = 0; i < mission.num_drones(); ++i) {
    snap.push_back(
        {i, mission.initial_positions[static_cast<size_t>(i)], {2.5, 0, 0}});
  }
  return snap;
}

// RAII toggle for the process-wide spatial-grid policy, so grid-on/off arms
// of a benchmark can coexist in one binary run.
class GridPolicyScope {
 public:
  explicit GridPolicyScope(bool enabled) : saved_(swarm::spatial_grid_policy()) {
    swarm::spatial_grid_policy().enabled = enabled;
  }
  ~GridPolicyScope() { swarm::spatial_grid_policy() = saved_; }

 private:
  swarm::SpatialGridPolicy saved_;
};

// Whole-swarm controller evaluation through the batch entry point. Arg0 =
// drones, arg1 = spatial grid enabled (0 forces the dense pair-scan path).
void BM_ControllerEvaluation(benchmark::State& state) {
  const int drones = static_cast<int>(state.range(0));
  const GridPolicyScope policy(state.range(1) != 0);
  const sim::MissionSpec mission = mission_of(drones);
  const sim::WorldSnapshot snap = snapshot_of(mission);
  const swarm::VasarhelyiController controller;
  std::vector<sim::Vec3> desired(static_cast<size_t>(drones));
  for (auto _ : state) {
    controller.desired_velocity_all(snap, mission, desired);
    benchmark::DoNotOptimize(desired.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * drones);
}
BENCHMARK(BM_ControllerEvaluation)
    ->Args({5, 1})
    ->Args({10, 1})
    ->Args({15, 1})
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({250, 0})
    ->Args({250, 1})
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({1000, 0})
    ->Args({1000, 1});

// Keeps the broadcast of the last control tick at or before `time`.
class SnapshotAt final : public sim::StepObserver {
 public:
  explicit SnapshotAt(double time) : time_(time) {}
  void on_step(double time, const sim::WorldSnapshot& snapshot,
               std::span<const sim::DroneState>) override {
    if (snapshot_.empty() || time <= time_) snapshot_ = snapshot;
  }
  [[nodiscard]] const sim::WorldSnapshot& snapshot() const { return snapshot_; }

 private:
  double time_;
  sim::WorldSnapshot snapshot_;
};

// The dense 10-drone kernel on a broadcast from a real run, taken as the
// swarm passes the obstacle: unlike BM_ControllerEvaluation's synthetic
// snapshot (every velocity {2.5, 0, 0}, so friction never fires), it has
// the branch mix a campaign sees: friction on some pairs and not others,
// the shill term live, attraction selection over spread-out distances.
// Ungated (compare_bench.py's guarded prefixes do not match it).
void BM_ControllerMidFlight(benchmark::State& state) {
  const int drones = static_cast<int>(state.range(0));
  const GridPolicyScope policy(false);
  const sim::MissionSpec mission = mission_of(drones);
  auto system = swarm::make_vasarhelyi_system();
  const sim::Simulator simulator;
  const sim::RunResult clean = simulator.run(mission, *system);
  SnapshotAt capture(clean.recorder.time_of_min_obstacle_distance(0));
  (void)simulator.run(mission, *system, nullptr, &capture);
  const sim::WorldSnapshot& snap = capture.snapshot();
  const swarm::VasarhelyiController controller;
  std::vector<sim::Vec3> desired(static_cast<size_t>(drones));
  for (auto _ : state) {
    controller.desired_velocity_all(snap, mission, desired);
    benchmark::DoNotOptimize(desired.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * drones);
}
BENCHMARK(BM_ControllerMidFlight)->Arg(10);

// Whole-swarm controller evaluation through the explicit TickExecutor: the
// same batch kernel as BM_ControllerEvaluation (grid on), chunked over a
// util::WorkerPool. Arg0 = drones, arg1 = threads; the /1 arm measures the executor
// plumbing against the serial baseline above, multi-thread arms measure
// intra-tick scaling. Bit-identical across arms (ParallelTick golden tests);
// speedups need spare hardware threads — on a single-core runner every arm
// degrades to roughly serial time plus handoff overhead (compare_bench.py
// only guards these arms when both runs saw num_threads_available > 1).
void BM_ControllerEvaluationThreaded(benchmark::State& state) {
  const int drones = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const GridPolicyScope policy(true);
  const sim::MissionSpec mission = mission_of(drones);
  const sim::WorldSnapshot snap = snapshot_of(mission);
  const swarm::VasarhelyiController controller;
  std::vector<sim::Vec3> desired(static_cast<size_t>(drones));
  util::WorkerPool pool(threads);
  swarm::TickContext context(pool.threads());
  const swarm::TickExecutor exec{&pool, &context};
  for (auto _ : state) {
    controller.desired_velocity_all(snap, mission, desired, exec);
    benchmark::DoNotOptimize(desired.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * drones);
}
BENCHMARK(BM_ControllerEvaluationThreaded)
    ->Args({250, 1})
    ->Args({250, 2})
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({1000, 4});

// Raw neighbour-query throughput: one grid rebuild plus a comm-range gather
// per drone, versus the brute-force O(N^2) scan the grid replaces. Arg0 =
// drones, arg1 = 1 grid / 0 brute.
void BM_NeighborQuery(benchmark::State& state) {
  const int drones = static_cast<int>(state.range(0));
  const bool use_grid = state.range(1) != 0;
  const sim::MissionSpec mission = mission_of(drones);
  const sim::WorldSnapshot snap = snapshot_of(mission);
  const double range = 40.0;
  swarm::SpatialGrid grid;
  std::vector<int> cand;
  for (auto _ : state) {
    if (use_grid) {
      grid.build(std::span<const math::Vec3>(snap.gps_position), range);
      for (int i = 0; i < drones; ++i) {
        cand.clear();
        grid.gather(snap.gps_position[static_cast<size_t>(i)], range, cand);
        benchmark::DoNotOptimize(cand.data());
      }
    } else {
      for (int i = 0; i < drones; ++i) {
        cand.clear();
        for (int j = 0; j < drones; ++j) {
          if (math::distance(snap.gps_position[static_cast<size_t>(i)],
                             snap.gps_position[static_cast<size_t>(j)]) <= range) {
            cand.push_back(j);
          }
        }
        benchmark::DoNotOptimize(cand.data());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * drones);
}
BENCHMARK(BM_NeighborQuery)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({250, 0})
    ->Args({250, 1})
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({1000, 0})
    ->Args({1000, 1});

// One control tick's worth of communication filtering: every drone's view
// of the broadcast under range-limited, lossy comms (the non-trivial path
// that cannot take the batch shortcut).
void BM_CommFilter(benchmark::State& state) {
  const int drones = static_cast<int>(state.range(0));
  const sim::MissionSpec mission = mission_of(drones);
  const sim::WorldSnapshot snap = snapshot_of(mission);
  swarm::CommModel comm({.range = 40.0, .drop_probability = 0.1});
  comm.reset(42);
  std::vector<int> members;
  for (auto _ : state) {
    for (int i = 0; i < drones; ++i) {
      benchmark::DoNotOptimize(comm.filter_into(snap, i, members));
    }
  }
  state.SetItemsProcessed(state.iterations() * drones);
}
BENCHMARK(BM_CommFilter)->Arg(5)->Arg(15);

// End-to-end fuzzing of one mission — the unit a campaign repeats hundreds
// of times; tracks how hot-path changes compound at campaign scale.
void BM_CampaignMission(benchmark::State& state) {
  const sim::MissionSpec mission = mission_of(static_cast<int>(state.range(0)));
  fuzz::FuzzerConfig config;
  config.sim.dt = 0.05;
  config.sim.gps.rate_hz = 20.0;
  config.spoof_distance = 10.0;
  config.mission_budget = 12;
  const auto fuzzer = fuzz::make_fuzzer(fuzz::FuzzerKind::kSwarmFuzz, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuzzer->fuzz(mission));
  }
}
BENCHMARK(BM_CampaignMission)->Arg(5)->Unit(benchmark::kMillisecond);

// Full default-budget fuzz of one mission, the headline unit of SwarmFuzz
// throughput. Arg is prefix reuse: 0 = every objective evaluation simulates
// from t=0 (--no-prefix-reuse), 1 = evaluations resume from clean-run
// checkpoints. Results are bit-identical between the two.
void BM_FuzzMission(benchmark::State& state) {
  const sim::MissionSpec mission = mission_of(5);
  fuzz::FuzzerConfig config;
  config.sim.dt = 0.05;
  config.sim.gps.rate_hz = 20.0;
  config.spoof_distance = 10.0;
  config.prefix_reuse = state.range(0) != 0;
  const auto fuzzer = fuzz::make_fuzzer(fuzz::FuzzerKind::kSwarmFuzz, config);
  std::int64_t executed = 0, reused = 0;
  for (auto _ : state) {
    const fuzz::FuzzResult result = fuzzer->fuzz(mission);
    benchmark::DoNotOptimize(result);
    executed += result.sim_steps_executed;
    reused += result.prefix_steps_reused;
  }
  state.counters["sim_steps"] =
      benchmark::Counter(static_cast<double>(executed), benchmark::Counter::kAvgIterations);
  state.counters["steps_reused"] =
      benchmark::Counter(static_cast<double>(reused), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FuzzMission)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// BM_FuzzMission with the search's batch evaluations (multi-start
// candidates, FD stencils) fanned out over an EvalPool. Arg = eval threads;
// 1 is the serial path. Results are bit-identical across arms (the
// ParallelSearch golden tests assert it) — only wall time may differ, and
// the speedup only materialises with spare hardware threads.
void BM_FuzzMissionParallel(benchmark::State& state) {
  const sim::MissionSpec mission = mission_of(5);
  fuzz::FuzzerConfig config;
  config.sim.dt = 0.05;
  config.sim.gps.rate_hz = 20.0;
  config.spoof_distance = 10.0;
  config.eval_threads = static_cast<int>(state.range(0));
  const auto fuzzer = fuzz::make_fuzzer(fuzz::FuzzerKind::kSwarmFuzz, config);
  int batches = 0;
  for (auto _ : state) {
    const fuzz::FuzzResult result = fuzzer->fuzz(mission);
    benchmark::DoNotOptimize(result);
    batches += result.eval_batches;
  }
  state.counters["eval_batches"] = benchmark::Counter(
      static_cast<double>(batches), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FuzzMissionParallel)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Full default-budget E_Fuzz of one mission: SVG-seeded corpus, mutation
// batches through the speculate-then-replay path, novelty admission and
// periodic minimization. Arg = eval threads (results are bit-identical
// across arms; the Evolutionary golden tests assert it).
void BM_EvolutionaryFuzz(benchmark::State& state) {
  const sim::MissionSpec mission = mission_of(5);
  fuzz::FuzzerConfig config;
  config.sim.dt = 0.05;
  config.sim.gps.rate_hz = 20.0;
  config.spoof_distance = 10.0;
  config.eval_threads = static_cast<int>(state.range(0));
  const auto fuzzer = fuzz::make_fuzzer(fuzz::FuzzerKind::kEvolutionary, config);
  int admissions = 0, bins = 0;
  for (auto _ : state) {
    const fuzz::FuzzResult result = fuzzer->fuzz(mission);
    benchmark::DoNotOptimize(result);
    admissions += result.corpus_admissions;
    bins += result.novelty_bins;
  }
  state.counters["corpus_admissions"] = benchmark::Counter(
      static_cast<double>(admissions), benchmark::Counter::kAvgIterations);
  state.counters["novelty_bins"] = benchmark::Counter(
      static_cast<double>(bins), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EvolutionaryFuzz)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// One late-window objective evaluation — the inner loop of the gradient
// search, where prefix reuse pays the most (the spoofing window sits near
// the clean closest approach, so most of the mission is reusable prefix).
// Arg 0/1 as in BM_FuzzMission.
void BM_ObjectiveEval(benchmark::State& state) {
  const bool reuse = state.range(0) != 0;
  const sim::MissionSpec mission = mission_of(5);
  sim::SimulationConfig sim_config;
  sim_config.dt = 0.05;
  sim_config.gps.rate_hz = 20.0;
  const sim::Simulator simulator(sim_config);
  auto system = swarm::make_vasarhelyi_system();

  fuzz::PrefixCache prefix;
  sim::RunHooks hooks;
  if (reuse) hooks.checkpoints = &prefix;
  const sim::RunResult clean = simulator.run(mission, *system, hooks);
  if (reuse) prefix.set_source(clean.recorder);

  const fuzz::Seed seed{.target = 0,
                        .victim = 1,
                        .direction = attack::SpoofDirection::kRight,
                        .vdo = clean.recorder.min_obstacle_distance(1)};
  const double t_ca = clean.recorder.time_of_min_obstacle_distance(1);
  const double t_s = std::max(t_ca - 15.0, 0.0);
  for (auto _ : state) {
    // A fresh Objective per iteration keeps the memo from short-circuiting
    // the simulation; construction itself is trivial.
    fuzz::Objective objective(mission, simulator, *system, seed, 10.0,
                              clean.end_time, reuse ? &prefix : nullptr);
    benchmark::DoNotOptimize(objective.evaluate(t_s, 20.0));
  }
}
BENCHMARK(BM_ObjectiveEval)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Every tick of one flown mission (record_period 0 keeps each tick), for
// the arms below that replay a real trajectory.
std::vector<std::vector<sim::DroneState>> flown_ticks(int drones) {
  sim::SimulationConfig config;
  config.record_period = 0.0;
  const sim::Simulator simulator(config);
  auto system = swarm::make_vasarhelyi_system();
  const sim::RunResult run = simulator.run(mission_of(drones), *system);
  std::vector<std::vector<sim::DroneState>> ticks;
  for (int s = 0; s < run.recorder.num_samples(); ++s) {
    const auto sample = run.recorder.sample(s);
    ticks.emplace_back(sample.begin(), sample.end());
  }
  return ticks;
}

// The per-tick collision check as Simulator::run makes it: swept from the
// previous tick and carrying the pair-distance bound, replayed tick by tick
// over a flown trajectory (the wrap back to the first tick is an unswept
// check, which drops the bound as a fresh run would). Items = ticks.
// Reported only: compare_bench.py's guarded prefixes do not match it.
void BM_CollisionCheck(benchmark::State& state) {
  const int drones = static_cast<int>(state.range(0));
  const sim::MissionSpec mission = mission_of(drones);
  const std::vector<std::vector<sim::DroneState>> ticks = flown_ticks(drones);
  std::vector<std::vector<sim::Vec3>> positions;
  for (const auto& tick : ticks) {
    positions.emplace_back();
    for (const sim::DroneState& s : tick) positions.back().push_back(s.position);
  }
  const sim::CollisionMonitor monitor(mission.drone_radius);
  sim::PairDistanceBound bound;
  size_t k = 0;
  for (auto _ : state) {
    const std::span<const sim::Vec3> prev =
        k == 0 ? std::span<const sim::Vec3>{} : std::span<const sim::Vec3>(positions[k - 1]);
    benchmark::DoNotOptimize(
        monitor.check(ticks[k], prev, mission.obstacles, 0.0, {}, &bound));
    k = k + 1 == ticks.size() ? 0 : k + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CollisionCheck)->Arg(10)->Arg(500);

// SpatialGrid::gather alone, at the Vasarhelyi pair radius (r0_rep) over a
// mid-flight 500-drone swarm: one query per drone per iteration. Items =
// queries. Reported only.
void BM_GridGather(benchmark::State& state) {
  const int drones = static_cast<int>(state.range(0));
  const std::vector<std::vector<sim::DroneState>> ticks = flown_ticks(drones);
  std::vector<sim::Vec3> pos;
  for (const sim::DroneState& s : ticks[ticks.size() / 2]) pos.push_back(s.position);
  const double radius = swarm::VasarhelyiParams{}.r0_rep;
  swarm::SpatialGrid grid;
  grid.build(std::span<const sim::Vec3>(pos), radius);
  std::vector<int> cand;
  for (auto _ : state) {
    for (const sim::Vec3& p : pos) {
      cand.clear();
      grid.gather(p, radius, cand);
      benchmark::DoNotOptimize(cand.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * drones);
}
BENCHMARK(BM_GridGather)->Arg(500);

void BM_QuadrotorStep(benchmark::State& state) {
  const auto vehicle = sim::make_vehicle(sim::VehicleType::kQuadrotor);
  vehicle->reset({0, 0, 10}, {});
  for (auto _ : state) {
    vehicle->step({2, 0, 0}, 0.005);
  }
}
BENCHMARK(BM_QuadrotorStep);

void BM_PointMassStep(benchmark::State& state) {
  const auto vehicle = sim::make_vehicle(sim::VehicleType::kPointMass);
  vehicle->reset({0, 0, 10}, {});
  for (auto _ : state) {
    vehicle->step({2, 0, 0}, 0.05);
  }
}
BENCHMARK(BM_PointMassStep);

void BM_FullMission(benchmark::State& state) {
  const int drones = static_cast<int>(state.range(0));
  const sim::MissionSpec mission = mission_of(drones);
  sim::SimulationConfig config;
  config.dt = 0.05;
  config.gps.rate_hz = 20.0;
  const sim::Simulator simulator(config);
  auto system = swarm::make_vasarhelyi_system();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.run(mission, *system));
  }
}
BENCHMARK(BM_FullMission)
    ->Arg(5)
    ->Arg(15)
    ->Arg(100)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// BM_FullMission with intra-tick parallelism. Arg0 = drones, arg1 =
// sim_threads. The /N/1 arms double as an overhead check (sim_threads = 1
// never builds a pool, so they must match BM_FullMission); multi-thread arms
// are the headline intra-mission scaling series — the ≥3x target for
// BM_FullMission/1000 assumes ≥4 hardware threads, and on fewer cores the
// arms still run (bit-identical) but cannot speed up, so compare_bench.py
// gates them only when num_threads_available > 1 in both runs.
void BM_FullMissionSimThreads(benchmark::State& state) {
  const int drones = static_cast<int>(state.range(0));
  const sim::MissionSpec mission = mission_of(drones);
  sim::SimulationConfig config;
  config.dt = 0.05;
  config.gps.rate_hz = 20.0;
  config.sim_threads = static_cast<int>(state.range(1));
  const sim::Simulator simulator(config);
  auto system = swarm::make_vasarhelyi_system();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.run(mission, *system));
  }
}
BENCHMARK(BM_FullMissionSimThreads)
    ->Args({100, 1})
    ->Args({100, 2})
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({1000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_SvgConstruction(benchmark::State& state) {
  const int drones = static_cast<int>(state.range(0));
  const sim::MissionSpec mission = mission_of(drones);
  const sim::WorldSnapshot snap = snapshot_of(mission);
  auto system = swarm::make_vasarhelyi_system();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuzz::build_svg(snap, mission, *system,
                                             attack::SpoofDirection::kRight, 10.0));
  }
}
BENCHMARK(BM_SvgConstruction)->Arg(5)->Arg(10)->Arg(15);

void BM_PageRank(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  math::Rng rng(7);
  graph::Digraph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.4)) g.add_edge(i, j, rng.uniform(0.1, 1.0));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::pagerank(g));
  }
}
BENCHMARK(BM_PageRank)->Arg(5)->Arg(15)->Arg(100);

void BM_SeedScheduling(benchmark::State& state) {
  const sim::MissionSpec mission = mission_of(static_cast<int>(state.range(0)));
  sim::SimulationConfig config;
  config.dt = 0.05;
  config.gps.rate_hz = 20.0;
  const sim::Simulator simulator(config);
  auto system = swarm::make_vasarhelyi_system();
  const sim::RunResult clean = simulator.run(mission, *system);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuzz::schedule_seeds(clean, mission, *system, 10.0));
  }
}
BENCHMARK(BM_SeedScheduling)->Arg(5)->Arg(15);

void BM_MissionGeneration(benchmark::State& state) {
  sim::MissionConfig config;
  config.num_drones = static_cast<int>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::generate_mission(config, ++seed));
  }
}
BENCHMARK(BM_MissionGeneration)->Arg(5)->Arg(15);

}  // namespace

int main(int argc, char** argv) {
  // Instant probe for run_bench.sh: print the configure-time build type and
  // exit without touching the benchmark machinery (a never-matching
  // --benchmark_filter produces no JSON at all, so the context block cannot
  // be probed without actually running a benchmark).
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--swarmfuzz_print_build_type") {
      std::printf("%s\n", SWARMFUZZ_BUILD_TYPE);
      return 0;
    }
  }
  // The configure-time build type of THIS code (the packaged benchmark
  // library's own build type is reported separately and is typically
  // "debug" regardless). run_bench.sh reads this to refuse recording
  // baselines from unoptimized binaries.
  benchmark::AddCustomContext("swarmfuzz_build_type", SWARMFUZZ_BUILD_TYPE);
  // compare_bench.py reads this to decide whether the threaded series
  // (BM_FullMissionSimThreads, BM_ControllerEvaluationThreaded) are
  // meaningful on this host: with one hardware thread they measure pure
  // handoff overhead and are annotated rather than gated.
  benchmark::AddCustomContext("num_threads_available",
                              std::to_string(util::hardware_threads()));
#ifdef NDEBUG
  benchmark::AddCustomContext("swarmfuzz_assertions", "off");
#else
  benchmark::AddCustomContext("swarmfuzz_assertions", "on");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
