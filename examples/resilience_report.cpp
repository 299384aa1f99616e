// Defender's workflow (paper sections I and VI): evaluate how resilient a
// swarm configuration is to Swarm Propagation Vulnerabilities before flying
// it, and print actionable guidance.
//
//   ./resilience_report [--drones=5] [--distance=10] [--missions=15]
#include <cstdio>

#include "fuzz/campaign.h"
#include "math/stats.h"
#include "util/options.h"
#include "util/table.h"

namespace {

int run(int argc, char** argv) {
  using namespace swarmfuzz;
  const util::Options options = util::Options::parse(argc, argv);

  fuzz::CampaignConfig config;
  config.mission.num_drones = options.get_int("drones", 5);
  config.fuzzer.spoof_distance = options.get_double("distance", 10.0);
  config.num_missions = options.get_int("missions", 15);
  config.fuzzer.sim.dt = 0.05;
  config.fuzzer.sim.gps.rate_hz = 20.0;
  config.num_threads = options.get_int("threads", 0);

  std::printf("Assessing resilience: %d-drone swarm, %.0f m spoofing, %d missions\n\n",
              config.mission.num_drones, config.fuzzer.spoof_distance,
              config.num_missions);
  const fuzz::CampaignResult result = fuzz::run_campaign(config);

  util::TextTable table({"Mission seed", "VDO (m)", "Verdict", "Attack found"});
  for (const fuzz::MissionOutcome& outcome : result.outcomes) {
    table.add_row({std::to_string(outcome.mission_seed),
                   util::format_double(outcome.result.mission_vdo),
                   outcome.result.found ? "VULNERABLE" : "resilient",
                   outcome.result.found ? outcome.result.plan.to_string() : "-"});
  }
  std::printf("%s\n", table.render("Per-mission results").c_str());

  const double rate = result.success_rate();
  std::printf("Vulnerable missions: %d/%d (%.0f%%)\n", result.num_found(),
              result.num_fuzzable(), rate * 100.0);

  const std::vector<double> vdos = result.mission_vdos();
  const double median_vdo = math::median(vdos);
  std::printf("Median mission VDO: %.2f m\n\n", median_vdo);

  // Guidance per the paper's implications (section VI).
  if (rate > 0.3) {
    std::printf("ASSESSMENT: configuration is highly susceptible to SPVs.\n");
  } else if (rate > 0.0) {
    std::printf("ASSESSMENT: configuration is conditionally susceptible to SPVs.\n");
  } else {
    std::printf("ASSESSMENT: no SPVs found at this spoofing distance.\n");
  }
  if (median_vdo < 3.0) {
    std::printf("- Missions pass close to the obstacle (low VDO): deploy stricter\n"
                "  GPS-spoofing protection or re-plan paths with more clearance.\n");
  }
  if (config.mission.num_drones >= 10) {
    std::printf("- Large swarms fly denser and are more vulnerable: consider\n"
                "  splitting the swarm or widening the formation.\n");
  }
  if (rate > 0.0) {
    std::printf("- Re-tune the controller's obstacle-avoidance gains and re-run\n"
                "  this assessment until no SPVs are found.\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return swarmfuzz::util::run_main([&] { return run(argc, argv); });
}
