#include "sim/point_mass.h"

#include <stdexcept>

namespace swarmfuzz::sim {

PointMassModel::PointMassModel(const PointMassParams& params) : params_(params) {
  if (params.max_acceleration <= 0.0 || params.max_speed <= 0.0 ||
      params.time_constant <= 0.0) {
    throw std::invalid_argument("PointMassModel: non-positive parameter");
  }
}

void PointMassModel::reset(const Vec3& position, const Vec3& velocity) {
  state_.position = position;
  state_.velocity = velocity.clamped(params_.max_speed);
}

}  // namespace swarmfuzz::sim
