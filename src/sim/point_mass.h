// First-order point-mass vehicle: commanded acceleration
//   a = (v_desired - v) / tau, clamped to max_acceleration,
// integrated with semi-implicit Euler. This is SwarmLab's "point-mass"
// dynamics option and the default for fuzzing campaigns, where thousands of
// missions are simulated per table.
#pragma once

#include <stdexcept>

#include "sim/dynamics.h"

namespace swarmfuzz::sim {

class PointMassModel final : public VehicleModel {
 public:
  explicit PointMassModel(const PointMassParams& params);

  void reset(const Vec3& position, const Vec3& velocity) override;
  // Inline (and the class final) so World's point-mass loop steps each
  // drone without a virtual call.
  void step(const Vec3& desired_velocity, double dt) override {
    if (dt <= 0.0) throw std::invalid_argument("PointMassModel: dt <= 0");
    const Vec3 target = desired_velocity.clamped(params_.max_speed);
    const Vec3 accel = ((target - state_.velocity) / params_.time_constant)
                           .clamped(params_.max_acceleration);
    // Semi-implicit Euler: update velocity first so position uses the new
    // velocity; stable for this first-order system at any dt we use.
    state_.velocity = (state_.velocity + accel * dt).clamped(params_.max_speed);
    state_.position += state_.velocity * dt;
  }
  [[nodiscard]] DroneState state() const override { return state_; }

  // Position + velocity is the whole state of a point mass.
  void save(VehicleCheckpoint& out) const override { out.state = state_; }
  void restore(const VehicleCheckpoint& in) override { state_ = in.state; }

  [[nodiscard]] const PointMassParams& params() const noexcept { return params_; }

 private:
  PointMassParams params_;
  DroneState state_;
};

}  // namespace swarmfuzz::sim
