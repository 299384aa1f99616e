// Inspect SwarmFuzz's Swarm Vulnerability Graph for one mission: print the
// edges, PageRank scores (targets and victims), the resulting seed schedule,
// and export the graph as GraphViz DOT.
//
//   ./svg_explorer [--seed=1005] [--distance=10] [--dot=svg.dot]
#include <cstdio>
#include <fstream>

#include "fuzz/seeds.h"
#include "graph/dot.h"
#include "graph/pagerank.h"
#include "util/options.h"
#include "util/table.h"

namespace {

int run(int argc, char** argv) {
  using namespace swarmfuzz;
  const util::Options options = util::Options::parse(argc, argv);
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 1005));
  const double distance = options.get_double("distance", 10.0);

  sim::MissionConfig mission_config;
  mission_config.num_drones = options.get_int("drones", 5);
  const sim::MissionSpec mission = sim::generate_mission(mission_config, seed);

  // Clean run (SwarmFuzz step 1).
  sim::SimulationConfig sim_config;
  sim_config.dt = 0.05;
  sim_config.gps.rate_hz = 20.0;
  const sim::Simulator simulator(sim_config);
  auto system = swarm::make_vasarhelyi_system();
  const sim::RunResult clean = simulator.run(mission, *system);
  if (clean.collided) {
    std::printf("Clean run collided; nothing to analyse.\n");
    return 1;
  }
  std::printf("Clean run: %.1f s, t_clo = %.1f s\n\n", clean.end_time, clean.t_clo());

  // SVG per spoofing direction (SwarmFuzz step 2).
  const int sample = clean.recorder.sample_index_at(clean.t_clo());
  sim::WorldSnapshot snapshot;
  snapshot.time = clean.t_clo();
  const auto states = clean.recorder.sample(sample);
  for (int i = 0; i < mission.num_drones(); ++i) {
    snapshot.push_back({i, states[static_cast<size_t>(i)].position,
                        states[static_cast<size_t>(i)].velocity});
  }

  for (const auto dir : {attack::SpoofDirection::kRight, attack::SpoofDirection::kLeft}) {
    const graph::Digraph svg = fuzz::build_svg(snapshot, mission, *system, dir,
                                               distance);
    const auto target_rank = graph::pagerank(svg).scores;
    const auto victim_rank = graph::pagerank(svg.transposed()).scores;

    std::printf("--- SVG for %s spoofing: %d edges ---\n",
                attack::direction_name(dir).data(), svg.num_edges());
    util::TextTable table({"drone", "VDO (m)", "PR as target", "PR as victim",
                           "influences (i <- j edges)"});
    for (int j = 0; j < svg.num_nodes(); ++j) {
      std::string influenced;
      for (const graph::Edge& e : svg.edges()) {
        if (e.to == j) {
          if (!influenced.empty()) influenced += ", ";
          influenced += std::to_string(e.from);
        }
      }
      table.add_row({std::to_string(j),
                     util::format_double(clean.recorder.min_obstacle_distance(j)),
                     util::format_double(target_rank[static_cast<size_t>(j)], 3),
                     util::format_double(victim_rank[static_cast<size_t>(j)], 3),
                     influenced.empty() ? "-" : influenced});
    }
    std::printf("%s\n", table.render().c_str());

    if (dir == attack::SpoofDirection::kRight) {
      graph::DotOptions dot_options;
      dot_options.graph_name = "svg_right";
      dot_options.node_scores = target_rank;
      const std::string path = options.get("dot", "svg.dot");
      std::ofstream(path) << graph::to_dot(svg, dot_options);
      std::printf("DOT written to %s (render with: dot -Tpng %s -o svg.png)\n\n",
                  path.c_str(), path.c_str());
    }
  }

  // Seed schedule (SwarmFuzz step 2 output).
  const auto seeds = fuzz::schedule_seeds(clean, mission, *system, distance);
  util::TextTable table({"#", "target", "victim", "direction", "VDO (m)", "influence"});
  int index = 0;
  for (const fuzz::Seed& s : seeds) {
    table.add_row({std::to_string(index++), std::to_string(s.target),
                   std::to_string(s.victim),
                   std::string{attack::direction_name(s.direction)},
                   util::format_double(s.vdo), util::format_double(s.influence, 3)});
  }
  std::printf("%s\n", table.render("Scheduled seedpool (fuzzing order)").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return swarmfuzz::util::run_main([&] { return run(argc, argv); });
}
