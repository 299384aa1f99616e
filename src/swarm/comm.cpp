#include "swarm/comm.h"

#include <cmath>
#include <stdexcept>

namespace swarmfuzz::swarm {

CommModel::CommModel(const CommConfig& config) : config_(config), rng_(0) {
  if (config.range <= 0.0) throw std::invalid_argument("CommModel: range <= 0");
  if (config.drop_probability < 0.0 || config.drop_probability >= 1.0) {
    throw std::invalid_argument("CommModel: drop_probability outside [0, 1)");
  }
}

void CommModel::reset(std::uint64_t seed) { rng_ = math::Rng(seed); }

NeighborView CommModel::filter_into(const sim::WorldSnapshot& broadcast,
                                    int self_id, std::vector<int>& members,
                                    const SpatialGrid* grid) {
  members.clear();

  const int n = broadcast.size();
  int self_slot = -1;
  for (int i = 0; i < n; ++i) {
    if (broadcast.id[static_cast<size_t>(i)] == self_id) {
      self_slot = i;
      break;
    }
  }
  if (self_slot < 0) throw std::invalid_argument("CommModel: unknown self_id");
  members.push_back(self_slot);
  const math::Vec3& self_pos =
      broadcast.gps_position[static_cast<size_t>(self_slot)];

  // Accept test shared by both scan strategies. Range is measured between
  // broadcast GPS fixes: a spoofed target also distorts who appears in
  // range, exactly as in a real swarm where links are pruned on reported
  // positions. The packet-loss draw happens only for in-range neighbours,
  // so a culled scan consumes the exact same bernoulli sequence as the
  // full one (out-of-range drones never touched the RNG).
  const auto accept = [&](int i) {
    if (broadcast.id[static_cast<size_t>(i)] == self_id) return false;
    if (math::distance(broadcast.gps_position[static_cast<size_t>(i)],
                       self_pos) > config_.range) {
      return false;
    }
    return !(config_.drop_probability > 0.0 &&
             rng_.bernoulli(config_.drop_probability));
  };

  if (grid != nullptr && grid->valid() && grid->size() == n &&
      std::isfinite(config_.range)) {
    // Grid-culled scan: candidates are a conservative superset of the
    // in-range drones, in ascending slot order — the same order the full
    // scan visits them — and each still gets the exact accept test above.
    gather_scratch_.clear();
    grid->gather(self_pos, config_.range, gather_scratch_);
    for (const int i : gather_scratch_) {
      if (accept(i)) members.push_back(i);
    }
  } else {
    for (int i = 0; i < n; ++i) {
      if (accept(i)) members.push_back(i);
    }
  }
  return NeighborView(broadcast, members, /*self_index=*/0);
}

sim::WorldSnapshot CommModel::filter(const sim::WorldSnapshot& broadcast,
                                     int self_id) {
  std::vector<int> members;
  const NeighborView view = filter_into(broadcast, self_id, members);

  sim::WorldSnapshot result;
  result.time = broadcast.time;
  result.reserve(view.size());
  for (int k = 0; k < view.size(); ++k) result.push_back(view.observation(k));
  return result;
}

}  // namespace swarmfuzz::swarm
