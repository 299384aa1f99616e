#include "swarm/reynolds.h"

#include <stdexcept>

#include "math/geometry.h"
#include "swarm/batch_eval.h"

namespace swarmfuzz::swarm {

ReynoldsController::ReynoldsController(const ReynoldsParams& params)
    : params_(params) {
  if (params.v_cruise <= 0.0 || params.v_max <= 0.0 ||
      params.separation_radius <= 0.0 || params.neighbour_radius <= 0.0 ||
      params.avoid_radius <= 0.0) {
    throw std::invalid_argument("ReynoldsController: invalid parameter");
  }
}

Vec3 ReynoldsController::desired_velocity(const NeighborView& view,
                                          const MissionSpec& mission) const {
  const Vec3& self_pos = view.self_position();
  const Vec3& self_vel = view.self_velocity();

  // Migration urge.
  Vec3 desired = (mission.destination - self_pos).horizontal().normalized() *
                 params_.v_cruise;

  // Boids rules over the neighbourhood.
  Vec3 separation, velocity_sum, centroid;
  int neighbours = 0;
  for (int k = 0; k < view.size(); ++k) {
    if (k == view.self_index()) continue;
    const Vec3 diff = (self_pos - view.position(k)).horizontal();
    const double dist = diff.norm();
    if (dist < 1e-9 || dist > params_.neighbour_radius) continue;
    ++neighbours;
    velocity_sum += view.velocity(k).horizontal();
    centroid += view.position(k);
    if (dist < params_.separation_radius) {
      separation +=
          diff * (params_.separation_gain * (params_.separation_radius - dist) / dist);
    }
  }
  if (neighbours > 0) {
    const double inv = 1.0 / static_cast<double>(neighbours);
    desired += separation;
    desired += (velocity_sum * inv - self_vel.horizontal()) *
               params_.alignment_gain;
    const Vec3 to_centroid =
        (centroid * inv - self_pos).horizontal();
    if (to_centroid.norm() > params_.cohesion_deadzone) {
      desired += to_centroid * params_.cohesion_gain;
    }
  }

  // Obstacle avoidance: push radially outward, linear in proximity.
  for (const sim::CylinderObstacle& obstacle : mission.obstacles.obstacles()) {
    const double dist = math::distance_to_cylinder(self_pos,
                                                   obstacle.center, obstacle.radius);
    if (dist < params_.avoid_radius) {
      const double strength =
          params_.avoid_gain * (params_.avoid_radius - dist) / params_.avoid_radius;
      desired += math::cylinder_outward_normal(self_pos, obstacle.center) *
                 strength;
    }
  }

  desired.z = params_.altitude_gain * (mission.cruise_altitude - self_pos.z);
  return desired.clamped(params_.v_max);
}

void ReynoldsController::desired_velocity_all(
    const WorldSnapshot& snapshot, const MissionSpec& mission,
    std::span<Vec3> desired, const TickExecutor& /*exec*/) const {
  evaluate_all_with_cutoff(
      snapshot, params_.neighbour_radius, desired,
      [&](const NeighborView& view) { return desired_velocity(view, mission); });
}

double ReynoldsController::probe_influence_radius(
    const WorldSnapshot& snapshot, const MissionSpec& mission) const {
  (void)snapshot;
  (void)mission;
  return params_.neighbour_radius;
}

}  // namespace swarmfuzz::swarm
