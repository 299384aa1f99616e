// Collision detection between drones and obstacles / other drones.
//
// Obstacle checks sweep the segment travelled during a step so fast drones
// cannot tunnel through a thin cylinder between samples. Drone-drone checks
// use instantaneous distance (relative speeds are low in a flock).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "sim/mission.h"
#include "sim/types.h"

namespace swarmfuzz::sim {

enum class CollisionKind {
  kDroneObstacle,
  kDroneDrone,
};

struct CollisionEvent {
  CollisionKind kind = CollisionKind::kDroneObstacle;
  double time = 0.0;
  int drone = -1;   // the drone that collided
  int other = -1;   // obstacle index, or the other drone's id
};

// Pair-distance bound carried between consecutive check() calls of one
// trajectory (DESIGN.md §9, "Pair-distance bound"). While `slack` > 0 every
// drone pair is provably more than 2r + (a rounding margin) apart, so
// check() skips the pair scan. A default-constructed bound is unarmed;
// check() re-arms it after each full pair scan that finds no event.
struct PairDistanceBound {
  double slack = 0.0;  // lower bound on (min pair distance - 2r), m
};

class CollisionMonitor {
 public:
  explicit CollisionMonitor(double drone_radius);

  // Checks all drones against obstacles (swept from prev_positions) and each
  // other; returns the first collision found, if any. `prev_positions` may
  // be empty on the first step (point checks only). Obstacle events beat
  // drone-drone events; within a class the lowest drone index wins.
  //
  // `bound` (optional) carries the pair-distance bound of one trajectory:
  // every call on it must pass as `prev_positions` the positions of the
  // `states` given to the previous call on it. The returned event is the
  // one a call without `bound` returns; only the work differs. Null keeps
  // check() stateless.
  [[nodiscard]] std::optional<CollisionEvent> check(
      std::span<const DroneState> states, std::span<const Vec3> prev_positions,
      const ObstacleField& obstacles, double time,
      PairDistanceBound* bound = nullptr) const;

  [[nodiscard]] double drone_radius() const noexcept { return drone_radius_; }

 private:
  double drone_radius_;
};

}  // namespace swarmfuzz::sim
