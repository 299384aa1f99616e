// Progress clock for the timed runs: a SwarmController decorator that counts
// controller calls and stamps the time of every `stride`-th one.
//
// A mission's controller calls are the same, in number and in work, in every
// pass of a run, so the stamps cut each pass of a mission into the same
// windows of work. The host slows a vCPU for a fraction of a second at a time
// (see perfbench/README.md), far shorter than a mission, so the fastest pass
// of a whole mission is still slowed in parts; the fastest pass of each
// window is not. A mission's latency is the sum of its windows' fastest
// passes (see Windows::fastest).
//
// The cost in the timed path is one relaxed atomic increment per controller
// call and one clock read per `stride` calls.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "swarm/controller.h"

namespace perfbench {

class ProgressController final : public swarmfuzz::swarm::SwarmController {
 public:
  ProgressController(std::shared_ptr<const swarmfuzz::swarm::SwarmController> inner,
                     std::int64_t stride);

  using SwarmController::desired_velocity;
  using SwarmController::desired_velocity_all;
  [[nodiscard]] swarmfuzz::swarm::Vec3 desired_velocity(
      const swarmfuzz::swarm::NeighborView& view,
      const swarmfuzz::swarm::MissionSpec& mission) const override;
  void desired_velocity_all(const swarmfuzz::swarm::WorldSnapshot& snapshot,
                            const swarmfuzz::swarm::MissionSpec& mission,
                            std::span<swarmfuzz::swarm::Vec3> desired,
                            const swarmfuzz::swarm::TickExecutor& exec)
      const override;
  [[nodiscard]] double probe_influence_radius(
      const swarmfuzz::swarm::WorldSnapshot& snapshot,
      const swarmfuzz::swarm::MissionSpec& mission) const override;
  [[nodiscard]] std::string_view name() const noexcept override;

  // Zeroes the call count; call before a mission, with no call in flight.
  void begin() noexcept { calls_.store(0, std::memory_order_relaxed); }

  // Durations in seconds of the windows of the mission that ran from
  // `start_ns` to `end_ns` (now_ns() times) since begin(): start to the
  // first stamp, stamp to stamp, last stamp to end. Call after the mission,
  // with no call in flight.
  [[nodiscard]] std::vector<double> windows(std::int64_t start_ns,
                                            std::int64_t end_ns) const;

 private:
  void step() const noexcept;

  std::shared_ptr<const swarmfuzz::swarm::SwarmController> inner_;
  std::int64_t stride_;
  mutable std::atomic<std::int64_t> calls_{0};
  // stamps_[k] is written once per mission, by the thread whose call was
  // number (k + 1) x stride; calls past the capacity stamp nothing.
  mutable std::vector<std::int64_t> stamps_;
};

// Window durations of one mission across the passes of a run.
class Windows {
 public:
  void add(std::vector<double> pass) { passes_.push_back(std::move(pass)); }

  // The sum over windows of each window's fastest pass, or, when the passes
  // did not cut the mission into the same number of windows, the fastest
  // whole pass (`aligned` then reports false).
  [[nodiscard]] double fastest(bool& aligned) const;

 private:
  std::vector<std::vector<double>> passes_;
};

}  // namespace perfbench
