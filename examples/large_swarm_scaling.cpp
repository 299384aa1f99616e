// Large-swarm scaling report: wall-clock cost of full missions as the swarm
// grows from 100 to 1000 drones, with the spatial neighbor grid on versus
// the brute-force pair scans it replaces (results are bit-identical; only
// wall time differs). Prints Table I/II-style rows — per-size mission
// outcome and flock health next to time-per-step — ready to paste into the
// README scaling table.
//
//   ./large_swarm_scaling [--drones=100,250,500,1000] [--max-time=30]
//                         [--seed=1005] [--compare] [--dt=0.05]
//                         [--sim-threads=1]
//
// --sim-threads splits each tick's controller kernel over that many threads
// (results are bit-identical for every value).
//
// --compare additionally runs every mission with the grid disabled and
// reports the speedup; at N >= 500 the pair-scan arm takes minutes, which
// is the point, but budget for it.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "swarm/flocking_system.h"
#include "swarm/metrics.h"
#include "swarm/spatial_grid.h"
#include "swarm/vasarhelyi.h"
#include "util/options.h"
#include "util/table.h"

namespace {

using namespace swarmfuzz;

// The default 50 m spawn box holds ~30 drones at the default 8 m minimum
// separation; grow the box with sqrt(N) so spawn density stays comparable
// across sizes.
sim::MissionSpec scaled_mission(int drones, double max_time, std::uint64_t seed) {
  sim::MissionConfig config;
  config.num_drones = drones;
  config.max_time = max_time;
  if (drones > 30) {
    config.spawn_range = 2.2 * config.min_spawn_separation *
                         std::sqrt(static_cast<double>(drones));
  }
  return sim::generate_mission(config, seed);
}

struct TimedRun {
  sim::RunResult result;
  double wall_seconds = 0.0;
  int steps = 0;
};

TimedRun timed_run(const sim::Simulator& simulator, const sim::MissionSpec& mission,
                   sim::ControlSystem& system, double dt, bool grid_enabled) {
  const swarm::SpatialGridPolicy saved = swarm::spatial_grid_policy();
  swarm::spatial_grid_policy().enabled = grid_enabled;
  const auto t0 = std::chrono::steady_clock::now();
  TimedRun run{.result = simulator.run(mission, system)};
  const auto t1 = std::chrono::steady_clock::now();
  swarm::spatial_grid_policy() = saved;
  run.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  run.steps = static_cast<int>(std::lround(run.result.end_time / dt));
  return run;
}

std::vector<int> parse_sizes(const std::string& csv) {
  std::vector<int> sizes;
  size_t pos = 0;
  while (pos < csv.size()) {
    const size_t comma = csv.find(',', pos);
    const std::string tok = csv.substr(pos, comma == std::string::npos
                                                ? std::string::npos
                                                : comma - pos);
    if (!tok.empty()) sizes.push_back(std::stoi(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return sizes;
}

}  // namespace

namespace {

int run(int argc, char** argv) {
  const util::Options options = util::Options::parse(argc, argv);
  const auto sizes = parse_sizes(options.get("drones", "100,250,500,1000"));
  const double max_time = options.get_double("max-time", 30.0);
  const double dt = options.get_double("dt", 0.05);
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 1005));
  const bool compare = options.has("compare");

  sim::SimulationConfig sim_config;
  sim_config.dt = dt;
  sim_config.gps.rate_hz = 20.0;
  sim_config.sim_threads = options.get_int("sim-threads", 1);
  const sim::Simulator simulator(sim_config);

  std::vector<std::string> header = {"drones",   "sim time (s)", "steps",
                                     "collided", "order",        "min sep (m)",
                                     "wall (s)", "ms/step"};
  if (compare) {
    header.push_back("pair-scan ms/step");
    header.push_back("speedup");
  }
  util::TextTable table(header);

  for (const int n : sizes) {
    const sim::MissionSpec mission = scaled_mission(n, max_time, seed);
    swarm::FlockingControlSystem system(
        std::make_shared<swarm::VasarhelyiController>(), swarm::CommConfig{});

    const TimedRun grid = timed_run(simulator, mission, system, dt, true);
    const auto& recorder = grid.result.recorder;
    swarm::FlockMetrics metrics;
    if (recorder.num_samples() > 0) {
      metrics = swarm::flock_metrics(recorder.sample(recorder.num_samples() - 1));
    }
    const double ms_per_step =
        grid.steps > 0 ? 1e3 * grid.wall_seconds / grid.steps : 0.0;

    std::vector<std::string> row = {
        std::to_string(n),
        util::format_double(grid.result.end_time, 1),
        std::to_string(grid.steps),
        grid.result.collided ? "yes" : "no",
        util::format_double(metrics.order, 3),
        util::format_double(metrics.min_separation, 2),
        util::format_double(grid.wall_seconds, 2),
        util::format_double(ms_per_step, 2),
    };
    if (compare) {
      const TimedRun brute = timed_run(simulator, mission, system, dt, false);
      const double brute_ms =
          brute.steps > 0 ? 1e3 * brute.wall_seconds / brute.steps : 0.0;
      row.push_back(util::format_double(brute_ms, 2));
      row.push_back(ms_per_step > 0.0
                        ? util::format_double(brute_ms / ms_per_step, 1) + "x"
                        : "-");
    }
    table.add_row(row);
    std::fflush(stdout);
  }

  std::printf("%s\n", table.render("Large-swarm scaling (spatial grid on)").c_str());
  if (!compare) {
    std::printf("Re-run with --compare to time the brute-force pair-scan arm "
                "(bit-identical results, O(N^2) wall time).\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return swarmfuzz::util::run_main([&] { return run(argc, argv); });
}
