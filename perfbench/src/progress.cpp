#include "progress.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "trace.h"

namespace perfbench {
namespace {

// Stamps kept per mission; a mission with more windows folds the rest into
// its last window.
constexpr std::size_t kMaxStamps = 1 << 16;

}  // namespace

ProgressController::ProgressController(
    std::shared_ptr<const swarmfuzz::swarm::SwarmController> inner, std::int64_t stride)
    : inner_(std::move(inner)), stride_(stride), stamps_(kMaxStamps) {
  if (inner_ == nullptr || stride_ < 1) {
    throw std::invalid_argument("ProgressController: null controller or stride < 1");
  }
}

void ProgressController::step() const noexcept {
  const std::int64_t n = calls_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % stride_ != 0) return;
  const auto k = static_cast<std::size_t>(n / stride_ - 1);
  if (k < stamps_.size()) stamps_[k] = now_ns();
}

swarmfuzz::swarm::Vec3 ProgressController::desired_velocity(
    const swarmfuzz::swarm::NeighborView& view,
    const swarmfuzz::swarm::MissionSpec& mission) const {
  const swarmfuzz::swarm::Vec3 v = inner_->desired_velocity(view, mission);
  step();
  return v;
}

void ProgressController::desired_velocity_all(
    const swarmfuzz::swarm::WorldSnapshot& snapshot,
    const swarmfuzz::swarm::MissionSpec& mission,
    std::span<swarmfuzz::swarm::Vec3> desired,
    const swarmfuzz::swarm::TickExecutor& exec) const {
  inner_->desired_velocity_all(snapshot, mission, desired, exec);
  step();
}

double ProgressController::probe_influence_radius(
    const swarmfuzz::swarm::WorldSnapshot& snapshot,
    const swarmfuzz::swarm::MissionSpec& mission) const {
  return inner_->probe_influence_radius(snapshot, mission);
}

std::string_view ProgressController::name() const noexcept { return inner_->name(); }

std::vector<double> ProgressController::windows(std::int64_t start_ns,
                                                std::int64_t end_ns) const {
  const auto stamps = std::min(
      static_cast<std::size_t>(calls_.load(std::memory_order_relaxed) / stride_),
      stamps_.size());
  std::vector<double> out;
  out.reserve(stamps + 1);
  std::int64_t from = start_ns;
  for (std::size_t k = 0; k < stamps; ++k) {
    out.push_back(static_cast<double>(stamps_[k] - from) * 1e-9);
    from = stamps_[k];
  }
  out.push_back(static_cast<double>(end_ns - from) * 1e-9);
  return out;
}

double Windows::fastest(bool& aligned) const {
  aligned = std::all_of(passes_.begin(), passes_.end(), [&](const auto& p) {
    return p.size() == passes_.front().size();
  });
  if (!aligned) {
    double best = 0.0;
    for (std::size_t p = 0; p < passes_.size(); ++p) {
      const double total = std::accumulate(passes_[p].begin(), passes_[p].end(), 0.0);
      best = p == 0 ? total : std::min(best, total);
    }
    return best;
  }
  double sum = 0.0;
  for (std::size_t k = 0; k < passes_.front().size(); ++k) {
    double best = passes_.front()[k];
    for (const auto& p : passes_) best = std::min(best, p[k]);
    sum += best;
  }
  return sum;
}

}  // namespace perfbench
