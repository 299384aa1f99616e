// Trajectory recorder: captures everything SwarmFuzz's initial test needs
// (paper section IV-A):
//  (1) each drone's location at each timestamp,
//  (2) each drone's minimum distance to the obstacle over the mission
//      (D_ob^i, the VDO when the drone is a victim candidate),
//  (3) the mission duration,
// plus t_clo, the time of minimum average inter-drone distance, at which the
// SVG is constructed (section IV-B).
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "sim/mission.h"
#include "sim/types.h"

namespace swarmfuzz::sim {

// Snapshot of a Recorder's accumulators, cheap enough to capture every
// checkpoint (a few dozen bytes plus the per-(drone, obstacle) minima). The
// kept trajectory samples are deliberately NOT stored: samples are
// append-only, so the first `num_samples` samples of any later recorder of
// the same run are exactly the samples this snapshot had — restore() copies
// them out of that later recorder instead of every checkpoint retaining its
// own multi-hundred-KB trajectory copy.
struct RecorderCheckpoint {
  int num_samples = 0;
  double last_kept = -1.0;
  double last_time = 0.0;
  std::vector<double> min_center_d2;
  std::vector<double> min_center_time;
};

class Recorder {
 public:
  // Samples are kept when at least `record_period` elapsed since the last
  // kept sample (0 keeps every call). `obstacles` may outlive the recorder
  // (it is copied).
  Recorder(int num_drones, ObstacleField obstacles, double record_period = 0.0);

  // Reserves the sample buffers for a run of `max_time` seconds stepped at
  // `dt` (max_time / record_period + 2 samples, or per tick with a zero
  // period), so a from-scratch run never regrows them. The reservation is
  // capped at 64 MiB of states; an unbounded max_time reserves nothing.
  void reserve(double max_time, double dt);

  // Ingests the state at time `t`. Distance-to-obstacle minima are updated
  // on *every* call (not just kept samples) so VDO is exact.
  void record(double t, std::span<const DroneState> states);

  [[nodiscard]] int num_drones() const noexcept { return num_drones_; }
  [[nodiscard]] int num_samples() const noexcept {
    return static_cast<int>(times_.size());
  }
  [[nodiscard]] std::span<const double> times() const noexcept { return times_; }

  // States of all drones at kept-sample `index`.
  [[nodiscard]] std::span<const DroneState> sample(int index) const;

  // Kept sample closest in time to `t` (clamped to the recording range).
  [[nodiscard]] int sample_index_at(double t) const;

  // Minimum distance from drone `i` to any obstacle surface over the whole
  // mission (exact over all record() calls). Infinity with no obstacles.
  // Computed lazily from per-obstacle squared center-distance minima so the
  // per-step hot path performs no square roots (DESIGN.md §9).
  [[nodiscard]] double min_obstacle_distance(int drone) const;
  // Time at which that minimum was attained.
  [[nodiscard]] double time_of_min_obstacle_distance(int drone) const;

  // Closest squared XY approach of drone `drone` to the centre of obstacle
  // `obstacle` so far (infinity before the first record()). Unchecked: the
  // simulator's per-tick decided-outcome rule reads it for every pair.
  [[nodiscard]] double min_center_distance_sq(int drone,
                                              int obstacle) const noexcept {
    return min_center_d2_[static_cast<size_t>(drone) *
                              static_cast<size_t>(obstacles_.size()) +
                          static_cast<size_t>(obstacle)];
  }

  // Average pairwise inter-drone distance at kept sample `index`.
  [[nodiscard]] double avg_inter_distance(int index) const;

  // Time of the minimum average inter-drone distance (t_clo); 0 when no
  // samples were kept. Only samples with t <= up_to are considered: callers
  // analysing obstacle interactions bound the search to the pre-obstacle
  // phase, because a converging swarm is tightest at arrival.
  [[nodiscard]] double closest_time(
      double up_to = std::numeric_limits<double>::infinity()) const;

  // Duration covered by the recording (last t seen).
  [[nodiscard]] double duration() const noexcept { return last_time_; }

  // Captures the accumulator state (not the samples; see RecorderCheckpoint).
  void save(RecorderCheckpoint& out) const;

  // Restores accumulators from `state` and the first state.num_samples kept
  // samples from `source`. `source` must be a recorder of the same run at
  // the capture time or later — its sample prefix is then bit-for-bit the
  // sample set this recorder held at capture. Shape or provenance
  // mismatches (wrong drone count, too few samples, a prefix whose last
  // kept time disagrees with the snapshot) throw std::invalid_argument.
  void restore(const RecorderCheckpoint& state, const Recorder& source);

 private:
  int num_drones_;
  ObstacleField obstacles_;
  double record_period_;
  double last_kept_ = -1.0;
  double last_time_ = 0.0;

  std::vector<double> times_;
  std::vector<DroneState> states_;  // num_samples * num_drones, row-major

  // Per (drone, obstacle) minimum squared XY center distance and the time it
  // was attained, row-major num_drones * obstacles. sqrt is monotone, so
  // minimising the squared center distance per obstacle and taking
  // sqrt(min) - radius lazily in the accessors yields the exact same
  // minimum-distance bits as the per-step sqrt the recorder used to do.
  std::vector<double> min_center_d2_;
  std::vector<double> min_center_time_;
};

}  // namespace swarmfuzz::sim
