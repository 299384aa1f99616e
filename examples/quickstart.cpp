// Quickstart: generate a randomized delivery mission, fly it with the
// Vasarhelyi ("Vicsek") swarm controller, and print what happened.
//
//   ./quickstart [--drones=5] [--seed=1005]
#include <cstdio>

#include "sim/simulator.h"
#include "swarm/flocking_system.h"
#include "swarm/metrics.h"
#include "util/options.h"

namespace {

int run(int argc, char** argv) {
  using namespace swarmfuzz;
  const util::Options options = util::Options::parse(argc, argv);

  // 1. A mission per the paper's setup: random spawn in a 0-50 m box, a
  //    233.5 m flight to the destination, one obstacle at the half-way mark.
  sim::MissionConfig mission_config;
  mission_config.num_drones = options.get_int("drones", 5);
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 1005));
  const sim::MissionSpec mission = sim::generate_mission(mission_config, seed);

  std::printf("Mission %llu: %d drones -> (%.1f, %.1f), obstacle r=%.1f m at "
              "(%.1f, %.1f)\n",
              static_cast<unsigned long long>(seed), mission.num_drones(),
              mission.destination.x, mission.destination.y,
              mission.obstacles.at(0).radius, mission.obstacles.at(0).center.x,
              mission.obstacles.at(0).center.y);

  // 2. The swarm control system: Vasarhelyi flocking over perfect comms.
  auto control = swarm::make_vasarhelyi_system();

  // 3. Simulate.
  sim::SimulationConfig sim_config;
  sim_config.dt = 0.05;           // 20 Hz control/physics
  sim_config.gps.rate_hz = 20.0;  // GPS fix rate
  const sim::Simulator simulator(sim_config);
  const sim::RunResult result = simulator.run(mission, *control);

  // 4. Report.
  std::printf("\nMission %s in %.1f s%s\n",
              result.reached_destination ? "completed" : "ended", result.end_time,
              result.collided ? " with a COLLISION" : " without collisions");
  std::printf("Per-drone closest approach to the obstacle (VDO):\n");
  for (int i = 0; i < mission.num_drones(); ++i) {
    std::printf("  drone %2d: %6.2f m (at t=%.1f s)\n", i, result.vdo(i),
                result.recorder.time_of_min_obstacle_distance(i));
  }
  std::printf("Time of tightest formation t_clo = %.1f s\n", result.t_clo());

  // Flocking quality at cruise (mid-mission sample).
  const int sample = result.recorder.sample_index_at(result.end_time / 2.0);
  const swarm::FlockMetrics metrics =
      swarm::flock_metrics(result.recorder.sample(sample));
  std::printf("Flock at t=%.0f s: order %.2f, cohesion radius %.1f m, "
              "min separation %.1f m, mean speed %.1f m/s\n",
              result.recorder.times()[static_cast<size_t>(sample)], metrics.order,
              metrics.cohesion_radius, metrics.min_separation, metrics.mean_speed);
  return result.collided ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return swarmfuzz::util::run_main([&] { return run(argc, argv); });
}
