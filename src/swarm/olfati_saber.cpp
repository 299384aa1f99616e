#include "swarm/olfati_saber.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

#include "math/geometry.h"
#include "swarm/batch_eval.h"

namespace swarmfuzz::swarm {
namespace {

// sigma_1(z) = z / sqrt(1 + z^2), the uneven sigmoid from the paper.
double sigma1(double z) { return z / std::sqrt(1.0 + z * z); }

Vec3 sigma1_vec(const Vec3& z) {
  return z / std::sqrt(1.0 + z.norm_sq());
}

}  // namespace

double sigma_norm(double distance, double epsilon) {
  return (std::sqrt(1.0 + epsilon * distance * distance) - 1.0) / epsilon;
}

double bump(double z, double h) {
  if (z < 0.0) return 0.0;
  if (z < h) return 1.0;
  if (z > 1.0) return 0.0;
  return 0.5 * (1.0 + std::cos(std::numbers::pi * (z - h) / (1.0 - h)));
}

OlfatiSaberController::OlfatiSaberController(const OlfatiSaberParams& params)
    : params_(params) {
  if (params.d <= 0.0 || params.r_factor <= 1.0 || params.epsilon <= 0.0 ||
      params.a <= 0.0 || params.b < params.a || params.tau <= 0.0) {
    throw std::invalid_argument("OlfatiSaberController: invalid parameter");
  }
  r_alpha_ = sigma_norm(params.r_factor * params.d, params.epsilon);
  d_alpha_ = sigma_norm(params.d, params.epsilon);
}

double OlfatiSaberController::phi_alpha(double z) const {
  const double c =
      std::abs(params_.a - params_.b) / std::sqrt(4.0 * params_.a * params_.b);
  const double phi =
      0.5 * ((params_.a + params_.b) * sigma1(z - d_alpha_ + c) +
             (params_.a - params_.b));
  return bump(z / r_alpha_, params_.h_alpha) * phi;
}

Vec3 OlfatiSaberController::desired_velocity(const NeighborView& view,
                                             const MissionSpec& mission) const {
  const Vec3 xi = view.self_position();
  const Vec3 vi = view.self_velocity();

  Vec3 u_alpha;
  for (int k = 0; k < view.size(); ++k) {
    if (k == view.self_index()) continue;
    const Vec3 diff = (view.position(k) - xi).horizontal();
    const double dist = diff.norm();
    if (dist < 1e-9 || dist > params_.r_factor * params_.d) continue;
    const double z = sigma_norm(dist, params_.epsilon);
    // n_ij: gradient direction of the sigma-norm.
    const Vec3 n_ij = diff / std::sqrt(1.0 + params_.epsilon * dist * dist);
    u_alpha += n_ij * (params_.c1_alpha * phi_alpha(z));
    const double a_ij = bump(z / r_alpha_, params_.h_alpha);
    u_alpha += (view.velocity(k) - vi).horizontal() * (params_.c2_alpha * a_ij);
  }

  // Beta-agents: project self onto each obstacle (the cylinder analogue of
  // the sphere projection in the paper) and repel/damp within d_beta.
  Vec3 u_beta;
  const double d_beta_sigma = sigma_norm(params_.d_beta, params_.epsilon);
  for (const sim::CylinderObstacle& obstacle : mission.obstacles.obstacles()) {
    const Vec3 beta_pos =
        math::closest_point_on_cylinder(xi, obstacle.center, obstacle.radius);
    const Vec3 diff = (beta_pos - xi).horizontal();
    const double dist = diff.norm();
    if (dist < 1e-9 || dist > params_.d_beta) continue;
    const double z = sigma_norm(dist, params_.epsilon);
    const double b_ik = bump(z / d_beta_sigma, params_.h_beta);
    // Repulsive-only potential toward the surface.
    const double phi_b = b_ik * (sigma1(z - d_beta_sigma) - 1.0);
    const Vec3 n_ik = diff / std::sqrt(1.0 + params_.epsilon * dist * dist);
    u_beta += n_ik * (params_.c1_beta * phi_b);
    // Damp the velocity component toward the obstacle (beta-agent velocity is
    // the tangential projection of v_i; the normal component is removed).
    const Vec3 normal = math::cylinder_outward_normal(xi, obstacle.center);
    const Vec3 v_beta = (vi - normal * vi.dot(normal)).horizontal();
    u_beta += (v_beta - vi).horizontal() * (params_.c2_beta * b_ik);
  }

  // Gamma-agent: moving waypoint toward the destination at cruise speed.
  const Vec3 to_dest = (mission.destination - xi).horizontal();
  const Vec3 vr = to_dest.normalized() * params_.v_mission;
  const Vec3 u_gamma =
      -sigma1_vec(to_dest * -1.0) * params_.c1_gamma - (vi - vr) * params_.c2_gamma;

  const Vec3 u = u_alpha + u_beta + u_gamma;
  Vec3 v_des = vi + u * params_.tau;
  v_des.z = params_.altitude_gain * (mission.cruise_altitude - xi.z);
  return v_des.clamped(params_.v_max);
}

void OlfatiSaberController::desired_velocity_all(
    const WorldSnapshot& snapshot, const MissionSpec& mission,
    std::span<Vec3> desired, const TickExecutor& /*exec*/) const {
  evaluate_all_with_cutoff(
      snapshot, params_.r_factor * params_.d, desired,
      [&](const NeighborView& view) { return desired_velocity(view, mission); });
}

double OlfatiSaberController::probe_influence_radius(
    const WorldSnapshot& snapshot, const MissionSpec& mission) const {
  (void)snapshot;
  (void)mission;
  return params_.r_factor * params_.d;
}

}  // namespace swarmfuzz::swarm
