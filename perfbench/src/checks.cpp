#include "checks.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "attack/spoofing.h"
#include "swarm/flocking_system.h"
#include "swarm/vasarhelyi.h"

namespace perfbench {

void Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Digest::add(std::int64_t v) noexcept { add(static_cast<std::uint64_t>(v)); }

void Digest::add(double v) noexcept {
  if (std::isnan(v)) v = std::nan("");
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(const swarmfuzz::fuzz::FuzzResult& r) noexcept {
  add(r.clean_run_failed);
  add(r.found);
  add(r.victim);
  add(r.victim_vdo);
  add(r.iterations);
  add(r.simulations);
  add(r.mission_vdo);
  add(r.clean_mission_time);
  add(r.attempts_tried);
  add(r.no_seeds);
  add(r.corpus_size);
  add(r.novelty_bins);
  add(r.corpus_admissions);
  add(r.plan.target);
  add(static_cast<int>(r.plan.direction));
  add(r.plan.start_time);
  add(r.plan.duration);
  add(r.plan.distance);
  add(static_cast<std::int64_t>(r.attempts.size()));
  for (const swarmfuzz::fuzz::SeedAttempt& a : r.attempts) {
    add(a.seed.target);
    add(a.seed.victim);
    add(static_cast<int>(a.seed.direction));
    add(a.seed.vdo);
    add(a.seed.influence);
    add(a.outcome.success);
    add(a.outcome.stalled);
    add(a.outcome.t_start);
    add(a.outcome.duration);
    add(a.outcome.best_f);
    add(a.outcome.crashed_drone);
    add(a.outcome.iterations);
  }
}

void Digest::add(const swarmfuzz::sim::RunResult& r) noexcept {
  add(r.collided);
  add(r.first_collision.has_value());
  if (r.first_collision) {
    add(static_cast<int>(r.first_collision->kind));
    add(r.first_collision->time);
    add(r.first_collision->drone);
    add(r.first_collision->other);
  }
  add(r.reached_destination);
  add(r.end_time);
  add(r.steps_executed);
  for (int i = 0; i < r.recorder.num_drones(); ++i) {
    add(r.recorder.min_obstacle_distance(i));
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

std::string replay_spv(const swarmfuzz::sim::MissionSpec& mission,
                       const swarmfuzz::fuzz::FuzzResult& result,
                       const swarmfuzz::fuzz::FuzzerConfig& config) {
  swarmfuzz::sim::SimulationConfig sim_config = config.sim;
  sim_config.sim_threads = 1;
  const swarmfuzz::sim::Simulator simulator(sim_config);
  swarmfuzz::swarm::FlockingControlSystem system(
      std::make_shared<swarmfuzz::swarm::VasarhelyiController>(), config.comm);
  const swarmfuzz::attack::GpsSpoofer spoofer(result.plan, mission);
  const swarmfuzz::sim::RunResult run = simulator.run(mission, system, &spoofer);
  if (!run.first_collision) return "no collision on replay";
  const swarmfuzz::sim::CollisionEvent& event = *run.first_collision;
  if (event.kind != swarmfuzz::sim::CollisionKind::kDroneObstacle) {
    return "first collision on replay is drone-drone";
  }
  if (event.drone == result.plan.target) {
    return "the target caused the replayed collision";
  }
  if (event.drone != result.victim) {
    return "replay crashed drone " + std::to_string(event.drone) +
           ", reported victim " + std::to_string(result.victim);
  }
  return {};
}

}  // namespace perfbench
