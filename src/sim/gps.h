// GPS receiver model and the spoofing hook.
//
// The receiver produces fixes at a fixed sampling rate (SwarmLab default:
// 100 Hz) with optional zero-mean Gaussian noise; between samples the last
// fix is held, like a real receiver feeding a faster control loop.
//
// Spoofing is injected exactly the way the paper does it in software
// (section V-A): the reported reading becomes GPS + offset at the GPS
// sampling rate, where the offset is supplied by a GpsOffsetProvider
// (implemented in src/attack).
#pragma once

#include "math/rng.h"
#include "math/vec3.h"

namespace swarmfuzz::sim {

using math::Vec3;

// Supplies the spoofing offset added to a drone's true position at time t.
// The null provider (no attack) is represented by a nullptr.
class GpsOffsetProvider {
 public:
  virtual ~GpsOffsetProvider() = default;
  [[nodiscard]] virtual Vec3 offset(int drone_id, double time) const = 0;
};

struct GpsConfig {
  double rate_hz = 100.0;      // fix rate; SwarmLab default
  double noise_stddev = 0.0;   // per-axis Gaussian noise on each fix, metres
};

// Everything a receiver carries between read() calls: the noise stream and
// the held fix. Captured into simulation checkpoints (sim/checkpoint.h).
struct GpsSensorState {
  math::Rng::State rng{};
  Vec3 last_fix;
  double last_fix_time = 0.0;
  bool has_fix = false;
  int fix_count = 0;
};

// One receiver instance per drone. Not thread-safe (one drone = one owner).
class GpsSensor {
 public:
  GpsSensor(const GpsConfig& config, math::Rng rng);

  // Re-arms the receiver at mission start with an immediate first fix.
  void reset();

  // Returns the reading at time `t` for a drone truly at `true_position`,
  // with `spoof_offset` added to any fix taken while the offset is active.
  // Produces a new fix whenever at least one sampling period elapsed since
  // the previous fix; otherwise returns the held fix.
  // Inline: it runs once per drone and tick.
  Vec3 read(const Vec3& true_position, const Vec3& spoof_offset, double t) {
    // Small epsilon so a caller stepping at exactly the GPS period re-samples
    // every step despite floating-point accumulation.
    if (!has_fix_ || t - last_fix_time_ >= period_ - 1e-9) {
      Vec3 fix = true_position + spoof_offset;
      if (config_.noise_stddev > 0.0) {
        fix += Vec3{rng_.normal(0.0, config_.noise_stddev),
                    rng_.normal(0.0, config_.noise_stddev),
                    rng_.normal(0.0, config_.noise_stddev)};
      }
      last_fix_ = fix;
      last_fix_time_ = t;
      has_fix_ = true;
      ++fix_count_;
    }
    return last_fix_;
  }

  [[nodiscard]] const GpsConfig& config() const noexcept { return config_; }
  // Number of fixes taken since reset (held readings don't count).
  [[nodiscard]] int fix_count() const noexcept { return fix_count_; }

  // Snapshot/restore of the full receiver state (noise RNG phase included):
  // a restored receiver produces the same fixes and draws as one that ran
  // uninterrupted.
  void save(GpsSensorState& out) const;
  void restore(const GpsSensorState& in);

 private:
  GpsConfig config_;
  double period_;  // 1 / rate_hz, s
  math::Rng rng_;
  Vec3 last_fix_;
  double last_fix_time_ = 0.0;
  bool has_fix_ = false;
  int fix_count_ = 0;
};

}  // namespace swarmfuzz::sim
