// The paper's motivating example (section III), end to end: run SwarmFuzz on
// one mission, report the Swarm Propagation Vulnerability it finds, then
// replay the attack and dump both trajectories to CSV for plotting.
//
//   ./spoofing_attack_demo [--seed=1005] [--distance=10] [--out=trajectories.csv]
#include <cstdio>

#include "attack/spoofing.h"
#include "fuzz/fuzzer.h"
#include "util/csv.h"
#include "util/options.h"

namespace {

int run(int argc, char** argv) {
  using namespace swarmfuzz;
  const util::Options options = util::Options::parse(argc, argv);
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 1005));
  const double distance = options.get_double("distance", 10.0);

  sim::MissionConfig mission_config;
  mission_config.num_drones = options.get_int("drones", 5);
  const sim::MissionSpec mission = sim::generate_mission(mission_config, seed);

  // Fuzz the mission for Swarm Propagation Vulnerabilities.
  fuzz::FuzzerConfig config;
  config.spoof_distance = distance;
  config.sim.dt = 0.05;
  config.sim.gps.rate_hz = 20.0;
  auto fuzzer = fuzz::make_fuzzer(fuzz::FuzzerKind::kSwarmFuzz, config);
  std::printf("Fuzzing mission %llu with %g m GPS spoofing...\n",
              static_cast<unsigned long long>(seed), distance);
  const fuzz::FuzzResult result = fuzzer->fuzz(mission);

  std::printf("Search used %d iterations (%d simulations) over %zu seeds.\n",
              result.iterations, result.simulations, result.attempts.size());
  if (!result.found) {
    std::printf("No SPV found: this mission is resilient at %g m spoofing "
                "(mission VDO %.2f m).\n",
                distance, result.mission_vdo);
    return 0;
  }

  std::printf("\nSPV FOUND: %s\n", result.plan.to_string().c_str());
  std::printf("  -> spoofing drone %d makes drone %d crash into the obstacle\n",
              result.plan.target, result.victim);
  std::printf("  -> victim's clean-run clearance was %.2f m\n", result.victim_vdo);

  // Replay clean and attacked missions, recording every sample.
  sim::SimulationConfig replay_config = config.sim;
  replay_config.record_period = 0.2;
  replay_config.stop_on_collision = true;
  const sim::Simulator simulator(replay_config);
  auto control = swarm::make_vasarhelyi_system();
  const sim::RunResult clean = simulator.run(mission, *control);
  const attack::GpsSpoofer spoofer(result.plan, mission);
  const sim::RunResult attacked = simulator.run(mission, *control, &spoofer);

  if (attacked.first_collision) {
    std::printf("Replay: drone %d hits the obstacle at t=%.1f s "
                "(clean run: no collision in %.1f s).\n",
                attacked.first_collision->drone, attacked.first_collision->time,
                clean.end_time);
  }

  // CSV dump: run,time,drone,x,y,z for both runs.
  const std::string out = options.get("out", "trajectories.csv");
  util::CsvWriter csv{std::filesystem::path{out}};
  csv.write_row({"run", "time", "drone", "x", "y", "z"});
  const auto dump = [&](const char* label, const sim::Recorder& recorder) {
    for (int s = 0; s < recorder.num_samples(); ++s) {
      const auto states = recorder.sample(s);
      for (int i = 0; i < static_cast<int>(states.size()); ++i) {
        csv.write_row({label, std::to_string(recorder.times()[static_cast<size_t>(s)]),
                       std::to_string(i),
                       std::to_string(states[static_cast<size_t>(i)].position.x),
                       std::to_string(states[static_cast<size_t>(i)].position.y),
                       std::to_string(states[static_cast<size_t>(i)].position.z)});
      }
    }
  };
  dump("clean", clean.recorder);
  dump("attacked", attacked.recorder);
  std::printf("Trajectories written to %s (%d rows).\n", out.c_str(),
              csv.rows_written());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return swarmfuzz::util::run_main([&] { return run(argc, argv); });
}
