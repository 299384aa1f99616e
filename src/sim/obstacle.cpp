#include "sim/obstacle.h"

#include <limits>
#include <stdexcept>

#include "math/geometry.h"

namespace swarmfuzz::sim {

ObstacleField::ObstacleField(std::vector<CylinderObstacle> obstacles)
    : obstacles_(std::move(obstacles)) {
  for (const CylinderObstacle& o : obstacles_) {
    if (o.radius <= 0.0) throw std::invalid_argument("ObstacleField: radius <= 0");
  }
}

std::optional<ObstacleHit> ObstacleField::nearest(const Vec3& point) const {
  std::optional<ObstacleHit> best;
  for (int i = 0; i < size(); ++i) {
    const CylinderObstacle& o = obstacles_[static_cast<size_t>(i)];
    const double dist = math::distance_to_cylinder(point, o.center, o.radius);
    if (!best || dist < best->surface_distance) {
      best = ObstacleHit{
          .index = i,
          .surface_distance = dist,
          .closest_point = math::closest_point_on_cylinder(point, o.center, o.radius),
          .outward_normal = math::cylinder_outward_normal(point, o.center),
      };
    }
  }
  return best;
}

double ObstacleField::min_surface_distance(const Vec3& point) const {
  const auto hit = nearest(point);
  return hit ? hit->surface_distance : std::numeric_limits<double>::infinity();
}

}  // namespace swarmfuzz::sim
