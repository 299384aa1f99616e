#include "sim/gps.h"

#include <stdexcept>

namespace swarmfuzz::sim {

GpsSensor::GpsSensor(const GpsConfig& config, math::Rng rng)
    : config_(config), period_(1.0 / config.rate_hz), rng_(rng) {
  if (config.rate_hz <= 0.0) throw std::invalid_argument("GpsSensor: rate_hz <= 0");
  if (config.noise_stddev < 0.0) {
    throw std::invalid_argument("GpsSensor: negative noise");
  }
}

void GpsSensor::reset() {
  has_fix_ = false;
  fix_count_ = 0;
  last_fix_time_ = 0.0;
  last_fix_ = Vec3{};
}

void GpsSensor::save(GpsSensorState& out) const {
  out.rng = rng_.state();
  out.last_fix = last_fix_;
  out.last_fix_time = last_fix_time_;
  out.has_fix = has_fix_;
  out.fix_count = fix_count_;
}

void GpsSensor::restore(const GpsSensorState& in) {
  rng_.set_state(in.rng);
  last_fix_ = in.last_fix;
  last_fix_time_ = in.last_fix_time;
  has_fix_ = in.has_fix;
  fix_count_ = in.fix_count;
}

}  // namespace swarmfuzz::sim
