// Obstacles are vertical cylinders (SwarmLab models buildings/pillars the
// same way); collision and avoidance are horizontal.
#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "math/vec3.h"

namespace swarmfuzz::sim {

using math::Vec3;

struct CylinderObstacle {
  Vec3 center;          // axis position (z component unused)
  double radius = 1.0;  // metres
};

// Result of a nearest-obstacle query.
struct ObstacleHit {
  int index = -1;              // index into the field
  double surface_distance = 0; // horizontal distance to the surface (signed)
  Vec3 closest_point;          // on the surface, at the query height
  Vec3 outward_normal;         // horizontal unit normal at closest_point
};

// An immutable set of obstacles for one mission.
class ObstacleField {
 public:
  ObstacleField() = default;
  explicit ObstacleField(std::vector<CylinderObstacle> obstacles);

  [[nodiscard]] int size() const noexcept { return static_cast<int>(obstacles_.size()); }
  [[nodiscard]] bool empty() const noexcept { return obstacles_.empty(); }
  [[nodiscard]] std::span<const CylinderObstacle> obstacles() const noexcept {
    return obstacles_;
  }
  // Inline: the per-tick loops (collision sweeps, recorder, controller)
  // call it ~10 times per drone and tick.
  [[nodiscard]] const CylinderObstacle& at(int index) const {
    if (index < 0 || index >= size()) {
      throw std::out_of_range("ObstacleField: index out of range");
    }
    return obstacles_[static_cast<size_t>(index)];
  }

  // Nearest obstacle to `point` by surface distance; nullopt when empty.
  [[nodiscard]] std::optional<ObstacleHit> nearest(const Vec3& point) const;

  // Signed surface distance to the nearest obstacle; +infinity when empty.
  [[nodiscard]] double min_surface_distance(const Vec3& point) const;

 private:
  std::vector<CylinderObstacle> obstacles_;
};

}  // namespace swarmfuzz::sim
