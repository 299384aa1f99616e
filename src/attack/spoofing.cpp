#include "attack/spoofing.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "math/geometry.h"

namespace swarmfuzz::attack {

std::string_view direction_name(SpoofDirection dir) noexcept {
  return dir == SpoofDirection::kRight ? "right" : "left";
}

SpoofDirection direction_from_name(std::string_view name) {
  if (name == direction_name(SpoofDirection::kRight)) {
    return SpoofDirection::kRight;
  }
  if (name == direction_name(SpoofDirection::kLeft)) {
    return SpoofDirection::kLeft;
  }
  throw std::invalid_argument("attack: unknown spoof direction: " +
                              std::string{name});
}

SpoofDirection opposite(SpoofDirection dir) noexcept {
  return dir == SpoofDirection::kRight ? SpoofDirection::kLeft
                                       : SpoofDirection::kRight;
}

std::string SpoofingPlan::to_string() const {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "spoof{target=%d dir=%s t_s=%.2fs dt=%.2fs d=%.1fm}", target,
                direction_name(direction).data(), start_time, duration, distance);
  return buf;
}

GpsSpoofer::GpsSpoofer(const SpoofingPlan& plan, const sim::MissionSpec& mission)
    : plan_(plan) {
  if (plan.target < 0 || plan.target >= mission.num_drones()) {
    throw std::invalid_argument("GpsSpoofer: target out of range");
  }
  // A plain `x < 0.0` lets NaN through, and a NaN window is never active:
  // the mission would silently fly unspoofed.
  const auto valid = [](double x) { return std::isfinite(x) && x >= 0.0; };
  if (!valid(plan.distance) || !valid(plan.duration) || !valid(plan.start_time)) {
    throw std::invalid_argument(
        "GpsSpoofer: negative or non-finite spoofing parameter");
  }
  const Vec3 left = math::lateral_left(sim::mission_axis(mission));
  active_offset_ =
      left * (-static_cast<double>(direction_sign(plan.direction)) * plan.distance);
}

Vec3 GpsSpoofer::offset(int drone_id, double time) const {
  if (drone_id != plan_.target || !plan_.active_at(time)) return Vec3{};
  return active_offset_;
}

}  // namespace swarmfuzz::attack
