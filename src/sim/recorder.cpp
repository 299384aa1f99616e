#include "sim/recorder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace swarmfuzz::sim {

Recorder::Recorder(int num_drones, ObstacleField obstacles, double record_period)
    : num_drones_(num_drones),
      obstacles_(std::move(obstacles)),
      record_period_(record_period) {
  if (num_drones < 1) throw std::invalid_argument("Recorder: num_drones < 1");
  if (record_period < 0.0) throw std::invalid_argument("Recorder: negative period");
  const size_t cells =
      static_cast<size_t>(num_drones) * static_cast<size_t>(obstacles_.size());
  min_center_d2_.assign(cells, std::numeric_limits<double>::infinity());
  min_center_time_.assign(cells, 0.0);
}

void Recorder::reserve(double max_time, double dt) {
  const double period = record_period_ > 0.0 ? record_period_ : dt;
  const double samples = max_time / period + 2.0;
  if (!std::isfinite(samples)) return;  // zero or non-finite period or max_time
  const double cap = static_cast<double>((std::size_t{64} << 20) / sizeof(DroneState)) /
                     static_cast<double>(num_drones_);
  const auto count = static_cast<std::size_t>(std::clamp(samples, 0.0, cap));
  times_.reserve(count);
  states_.reserve(count * static_cast<std::size_t>(num_drones_));
}

void Recorder::record(double t, std::span<const DroneState> states) {
  if (static_cast<int>(states.size()) != num_drones_) {
    throw std::invalid_argument("Recorder: state count mismatch");
  }
  last_time_ = t;

  const int m = obstacles_.size();
  for (int i = 0; i < num_drones_; ++i) {
    const Vec3& pos = states[static_cast<size_t>(i)].position;
    const size_t row = static_cast<size_t>(i) * static_cast<size_t>(m);
    for (int k = 0; k < m; ++k) {
      const double d2 = (pos - obstacles_.at(k).center).norm_xy_sq();
      if (d2 < min_center_d2_[row + static_cast<size_t>(k)]) {
        min_center_d2_[row + static_cast<size_t>(k)] = d2;
        min_center_time_[row + static_cast<size_t>(k)] = t;
      }
    }
  }

  if (last_kept_ >= 0.0 && t - last_kept_ < record_period_ - 1e-9) return;
  last_kept_ = t;
  times_.push_back(t);
  states_.insert(states_.end(), states.begin(), states.end());
}

void Recorder::save(RecorderCheckpoint& out) const {
  out.num_samples = num_samples();
  out.last_kept = last_kept_;
  out.last_time = last_time_;
  out.min_center_d2 = min_center_d2_;
  out.min_center_time = min_center_time_;
}

void Recorder::restore(const RecorderCheckpoint& state, const Recorder& source) {
  if (source.num_drones_ != num_drones_ ||
      state.min_center_d2.size() != min_center_d2_.size() ||
      state.min_center_time.size() != min_center_time_.size()) {
    throw std::invalid_argument("Recorder: restore shape mismatch");
  }
  const int k = state.num_samples;
  if (k < 0 || k > source.num_samples()) {
    throw std::invalid_argument("Recorder: restore source has too few samples");
  }
  if (k > 0 && source.times_[static_cast<size_t>(k) - 1] != state.last_kept) {
    // The source's k-th kept sample is not the one this snapshot last kept:
    // the source is from a different run (or a different record cadence).
    throw std::invalid_argument("Recorder: restore source mismatch");
  }
  // Capacity for the source's whole run up front: the resumed run records
  // about as many samples, and growing by doubling instead frees a chain of
  // large blocks per run, which glibc's main-thread arena answers by
  // trimming and re-faulting the heap top on every evaluation.
  times_.reserve(source.times_.size());
  states_.reserve(source.states_.size());
  times_.assign(source.times_.begin(), source.times_.begin() + k);
  states_.assign(source.states_.begin(),
                 source.states_.begin() +
                     static_cast<size_t>(k) * static_cast<size_t>(num_drones_));
  min_center_d2_ = state.min_center_d2;
  min_center_time_ = state.min_center_time;
  last_kept_ = state.last_kept;
  last_time_ = state.last_time;
}

std::span<const DroneState> Recorder::sample(int index) const {
  if (index < 0 || index >= num_samples()) {
    throw std::out_of_range("Recorder: sample index out of range");
  }
  return {states_.data() + static_cast<size_t>(index) * static_cast<size_t>(num_drones_),
          static_cast<size_t>(num_drones_)};
}

int Recorder::sample_index_at(double t) const {
  if (times_.empty()) throw std::out_of_range("Recorder: no samples");
  const auto it = std::lower_bound(times_.begin(), times_.end(), t);
  if (it == times_.begin()) return 0;
  if (it == times_.end()) return num_samples() - 1;
  const auto hi = static_cast<int>(it - times_.begin());
  const int lo = hi - 1;
  return (t - times_[static_cast<size_t>(lo)] <= times_[static_cast<size_t>(hi)] - t)
             ? lo
             : hi;
}

double Recorder::min_obstacle_distance(int drone) const {
  if (drone < 0 || drone >= num_drones_) {
    throw std::out_of_range("Recorder: drone id out of range");
  }
  const size_t row =
      static_cast<size_t>(drone) * static_cast<size_t>(obstacles_.size());
  double best = std::numeric_limits<double>::infinity();
  for (int k = 0; k < obstacles_.size(); ++k) {
    const double dist = std::sqrt(min_center_d2_[row + static_cast<size_t>(k)]) -
                        obstacles_.at(k).radius;
    if (dist < best) best = dist;
  }
  return best;
}

double Recorder::time_of_min_obstacle_distance(int drone) const {
  if (drone < 0 || drone >= num_drones_) {
    throw std::out_of_range("Recorder: drone id out of range");
  }
  const size_t row =
      static_cast<size_t>(drone) * static_cast<size_t>(obstacles_.size());
  double best = std::numeric_limits<double>::infinity();
  double best_time = 0.0;
  for (int k = 0; k < obstacles_.size(); ++k) {
    const double dist = std::sqrt(min_center_d2_[row + static_cast<size_t>(k)]) -
                        obstacles_.at(k).radius;
    if (dist < best) {
      best = dist;
      best_time = min_center_time_[row + static_cast<size_t>(k)];
    }
  }
  return best_time;
}

double Recorder::avg_inter_distance(int index) const {
  const std::span<const DroneState> snap = sample(index);
  if (num_drones_ < 2) return 0.0;
  double sum = 0.0;
  int pairs = 0;
  for (int i = 0; i < num_drones_; ++i) {
    for (int j = i + 1; j < num_drones_; ++j) {
      sum += math::distance(snap[static_cast<size_t>(i)].position,
                            snap[static_cast<size_t>(j)].position);
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs);
}

double Recorder::closest_time(double up_to) const {
  double best_time = 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (int s = 0; s < num_samples(); ++s) {
    if (times_[static_cast<size_t>(s)] > up_to) break;
    const double avg = avg_inter_distance(s);
    if (avg < best) {
      best = avg;
      best_time = times_[static_cast<size_t>(s)];
    }
  }
  return best_time;
}

}  // namespace swarmfuzz::sim
