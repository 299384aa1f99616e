#include "swarm/vasarhelyi.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "swarm/spatial_grid.h"

namespace swarmfuzz::swarm {

double braking_curve(double r, double a, double p) {
  return BrakingCurve(a, p)(r);
}

VasarhelyiController::VasarhelyiController(const VasarhelyiParams& params)
    : params_(params),
      frict_curve_(params.a_frict, params.p_frict),
      shill_curve_(params.a_shill, params.p_shill) {
  if (params.v_flock <= 0.0 || params.v_max <= 0.0 || params.r0_rep <= 0.0 ||
      params.a_frict <= 0.0 || params.p_frict <= 0.0 || params.a_shill <= 0.0 ||
      params.p_shill <= 0.0 || params.k_att > kMaxAttractionNeighbours) {
    throw std::invalid_argument("VasarhelyiController: invalid parameter");
  }
}

namespace {

using Terms = VasarhelyiController::Terms;

// The pairwise sub-velocity terms, factored out so the per-view path and the
// batch paths below share bit-identical arithmetic. `diff` is
// (self - other) GPS fixes, horizontal; `dist` its norm.

// Goal (2) inter-drone: linear repulsion below r0_rep.
inline bool repulsion_term(const VasarhelyiParams& prm, const math::Vec3& diff,
                           double dist, math::Vec3& out) {
  if (!(dist < prm.r0_rep)) return false;
  out = diff * (prm.p_rep * (prm.r0_rep - dist) / dist);
  return true;
}

// Goal (3) alignment: velocity slack from the braking curve. `vel_diff` is
// (other - self) velocity. The norm's sqrt is skipped when the squared norm
// is safely below the slack (0.9^2 margin: rounding error is ~1e-16
// relative, so the original `vel_diff_norm > slack` test could not have
// passed); when the guard is inconclusive the original expressions run
// unchanged, so accepted pairs produce the exact same bits.
inline bool friction_term(const VasarhelyiParams& prm, const BrakingCurve& frict,
                          const math::Vec3& vel_diff, double dist,
                          math::Vec3& out) {
  const double norm_sq = vel_diff.norm_sq();
  // slack >= v_frict always, so a well-aligned pair skips the braking-curve
  // sqrt too, not just the norm's.
  if (norm_sq <= 0.81 * prm.v_frict * prm.v_frict) return false;
  const double slack = std::max(prm.v_frict, frict(dist - prm.r0_frict));
  if (norm_sq <= 0.81 * slack * slack) return false;
  const double vel_diff_norm = std::sqrt(norm_sq);
  if (!(vel_diff_norm > slack)) return false;
  out = vel_diff * (prm.c_frict * (vel_diff_norm - slack) / vel_diff_norm);
  return true;
}

// Distance beyond which friction_term above is GUARANTEED to return false
// for every pair whose velocity-gap norm is at most `vel_gap_max`: the
// braking-curve slack at that separation satisfies
// vel_gap_max^2 <= 0.81 * slack^2, so the first guard rejects the pair.
// Inverting both pieces of the monotone braking curve conservatively (the
// +1.0 m dwarfs any rounding in the curve evaluation).
inline double friction_cutoff_distance(const VasarhelyiParams& prm,
                                       double vel_gap_max) {
  const double slack_needed = vel_gap_max / 0.9 + 1e-6;
  const double a = prm.a_frict;
  const double p = prm.p_frict;
  const double r_needed = std::max(slack_needed / p,
                                   (slack_needed * slack_needed + a * a / (p * p)) /
                                       (2.0 * a)) +
                          1.0;
  return prm.r0_frict + r_needed;
}

// Goal (3) cohesion: topological attraction toward the k_att *nearest*
// members that have drifted beyond r0_att. Topological interaction is
// standard in flocking (it keeps the formation from fragmenting) and,
// unlike metric all-pairs attraction, produces no centripetal squeeze in
// dense swarms: there the nearest members are well inside r0_att. The
// selection is NearestK's (see vasarhelyi.h), shared by every path;
// `diff_of(index)` returns the selected candidate's (self - other) diff.
template <typename DiffOf>
inline math::Vec3 attraction_sum(const VasarhelyiParams& prm,
                                 const NearestK& nearest, DiffOf diff_of) {
  math::Vec3 attraction;
  for (const NearestK::Entry& e : nearest.selected()) {
    if (e.dist > prm.r0_att) {
      attraction += diff_of(e.index) * (-prm.p_att * (e.dist - prm.r0_att) / e.dist);
    }
  }
  // Capped in total: one distant buddy pulls as hard as several.
  return attraction.clamped(prm.v_att_max);
}

// Attraction over a (dist, self - other) neighbour list.
inline math::Vec3 attraction_sum(const VasarhelyiParams& prm,
                                 const std::vector<std::pair<double, math::Vec3>>& nbrs) {
  NearestK nearest(prm.k_att);
  for (size_t j = 0; j < nbrs.size(); ++j) {
    nearest.offer(nbrs[j].first, static_cast<int>(j));
  }
  return attraction_sum(prm, nearest, [&](int j) {
    return nbrs[static_cast<size_t>(j)].second;
  });
}

// Goal (2), obstacle part: align with a shill agent sitting just outside
// the nearest obstacle surface, moving outward at v_shill. The braking
// curve makes the term negligible far away and dominant near the surface.
//
// The horizontal radial vector is computed once per obstacle and yields
// both math::distance_to_cylinder's value (its norm() adds +0.0 * 0.0 to
// the non-negative x^2 + y^2, so it equals norm_xy() bit for bit) and
// math::cylinder_outward_normal's (same degenerate-radial rule, same
// division), so the geometry calls are inlined without changing a bit.
inline math::Vec3 shill_sum(const VasarhelyiParams& prm, const BrakingCurve& curve,
                            const math::Vec3& self_pos, const math::Vec3& self_vel,
                            const sim::MissionSpec& mission) {
  math::Vec3 shill;
  // Far from the surface the slack is huge; skip the normal/velocity
  // sqrts when even the triangle-inequality bound on |vel_diff|
  // ((a+b)^2 <= 2a^2 + 2b^2, |shill_velocity| <= v_shill) sits safely
  // below it. The 0.81 margin dwarfs rounding, so whenever the original
  // `vel_diff_norm > slack` could pass we fall through unchanged.
  const double vel_diff_bound = 2.0 * (prm.v_shill * prm.v_shill + self_vel.norm_sq());
  for (const sim::CylinderObstacle& obstacle : mission.obstacles.obstacles()) {
    const math::Vec3 radial = (self_pos - obstacle.center).horizontal();
    const double radial_sq = radial.norm_sq();
    const double radial_norm = std::sqrt(radial_sq);
    const double slack = curve(radial_norm - obstacle.radius - prm.r0_shill);
    if (vel_diff_bound <= 0.81 * slack * slack) continue;
    const math::Vec3 outward = radial_sq < 1e-18    ? math::Vec3{1.0, 0.0, 0.0}
                               : radial_norm > 1e-12 ? radial / radial_norm
                                                     : math::Vec3{};
    const math::Vec3 shill_velocity = outward * prm.v_shill;
    const math::Vec3 vel_diff = shill_velocity - self_vel;
    const double vel_diff_norm = vel_diff.norm();
    if (vel_diff_norm > slack) {
      shill += vel_diff * ((vel_diff_norm - slack) / vel_diff_norm);
    }
  }
  return shill;
}

// Goal (1): self-propulsion toward the destination at the preferred speed.
inline math::Vec3 migration_term(const VasarhelyiParams& prm,
                                 const math::Vec3& self_pos,
                                 const sim::MissionSpec& mission) {
  return (mission.destination - self_pos).horizontal().normalized() *
         prm.v_flock;
}

// Alignment is averaged, not summed: a drone surrounded by many
// like-moving neighbours should feel one consensus pull, not an O(N) force
// that can bulldoze it through an obstacle in large swarms.
inline void average_friction(Terms& terms, int contributors) {
  if (contributors > 1) {
    terms.friction = terms.friction / static_cast<double>(contributors);
  }
}

// Scratch comes from the shared per-tick context (swarm/tick_context.h):
// PairScanScratch fields used here are `neighbours` (dist, self-other),
// `cand` (grid gathers), `list`/`list_off` (the grid path's
// neighbour lists), and on the dense batch path `dist`
// (row-major n*n pairwise cache), `vec_a` (repulsion accumulators), `vec_b`
// (friction accumulators) and `contributors`. Serial callers borrow
// thread_tick_context(); the batch path takes lanes from the executor's
// context.

// Largest velocity norm in the broadcast; bounds every pair's velocity gap
// by 2 * result (triangle inequality). NaN-propagating: a non-finite
// velocity yields a non-finite bound and callers fall back to the exact
// dense path.
inline double max_speed(const sim::WorldSnapshot& snapshot) {
  double norm_sq = 0.0;
  for (const math::Vec3& v : snapshot.velocity) {
    norm_sq = std::max(norm_sq, v.norm_sq());
    if (std::isnan(v.norm_sq())) return std::numeric_limits<double>::quiet_NaN();
  }
  return std::sqrt(norm_sq);
}

// Upper bound on the largest pairwise velocity gap |v_i - v_j|: the
// diagonal of the component-wise bounding box of the velocity set
// (|v_i,c - v_j,c| <= max_c - min_c per component). Much tighter than the
// 2 * max_speed triangle bound for a flock, whose whole point is velocity
// alignment — a converged swarm has a near-zero diagonal even at cruise
// speed, which shrinks the friction cutoff (and with it every grid
// candidate set) to little more than r0_frict. Non-finite velocities yield
// a non-finite bound (checked explicitly: std::min/max would keep the
// finite operand) and callers fall back to the exact dense path.
inline double velocity_gap_bound(const sim::WorldSnapshot& snapshot) {
  if (snapshot.velocity.empty()) return 0.0;
  double lo_x = snapshot.velocity[0].x, hi_x = lo_x;
  double lo_y = snapshot.velocity[0].y, hi_y = lo_y;
  double lo_z = snapshot.velocity[0].z, hi_z = lo_z;
  bool finite = true;
  for (const math::Vec3& v : snapshot.velocity) {
    finite = finite && std::isfinite(v.x) && std::isfinite(v.y) &&
             std::isfinite(v.z);
    lo_x = std::min(lo_x, v.x);
    hi_x = std::max(hi_x, v.x);
    lo_y = std::min(lo_y, v.y);
    hi_y = std::max(hi_y, v.y);
    lo_z = std::min(lo_z, v.z);
    hi_z = std::max(hi_z, v.z);
  }
  if (!finite) return std::numeric_limits<double>::quiet_NaN();
  const double dx = hi_x - lo_x;
  const double dy = hi_y - lo_y;
  const double dz = hi_z - lo_z;
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

// Largest XY displacement from pos0 to pos, padded like a grid query
// radius so the rounding of this bound can never undercount; NaN when a
// position is not finite (pos0 always is: lists are built only on a valid
// grid), which fails every reuse test.
inline double max_displacement(const std::vector<Vec3>& pos,
                               const std::vector<Vec3>& pos0) {
  double max_sq = 0.0;
  for (size_t i = 0; i < pos.size(); ++i) {
    const double d2 = (pos[i] - pos0[i]).norm_xy_sq();
    if (!(d2 < std::numeric_limits<double>::infinity())) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    max_sq = std::max(max_sq, d2);
  }
  return padded_radius(std::sqrt(max_sq));
}

}  // namespace

VasarhelyiController::Terms VasarhelyiController::compute_terms(
    const NeighborView& view, const MissionSpec& mission) const {
  const Vec3& self_pos = view.self_position();
  const Vec3& self_vel = view.self_velocity();
  Terms terms;
  terms.migration = migration_term(params_, self_pos, mission);

  // Goals (2) and (3): pairwise terms over every heard neighbour.
  PairScanScratch& s = thread_tick_context().lane(0);
  std::vector<std::pair<double, Vec3>>& neighbours = s.neighbours;
  neighbours.clear();
  neighbours.reserve(static_cast<size_t>(view.size()));
  int friction_contributors = 0;
  for (int k = 0; k < view.size(); ++k) {
    if (k == view.self_index()) continue;
    const Vec3 diff = (self_pos - view.position(k)).horizontal();
    const double dist = diff.norm();
    if (dist < 1e-9) continue;  // coincident fixes: no defined direction
    neighbours.emplace_back(dist, diff);

    Vec3 term;
    if (repulsion_term(params_, diff, dist, term)) terms.repulsion += term;
    if (friction_term(params_, frict_curve_, view.velocity(k) - self_vel, dist,
                      term)) {
      terms.friction += term;
      ++friction_contributors;
    }
  }
  average_friction(terms, friction_contributors);
  terms.attraction = attraction_sum(params_, neighbours);
  terms.shill = shill_sum(params_, shill_curve_, self_pos, self_vel, mission);
  terms.altitude = Vec3{0.0, 0.0,
                        params_.altitude_gain *
                            (mission.cruise_altitude - self_pos.z)};
  return terms;
}

VasarhelyiController::Terms VasarhelyiController::compute_terms(
    int self_index, const WorldSnapshot& snapshot, const MissionSpec& mission) const {
  if (self_index < 0 || self_index >= snapshot.size()) {
    throw std::out_of_range("VasarhelyiController: self_index out of range");
  }
  return compute_terms(NeighborView(snapshot, self_index), mission);
}

Vec3 VasarhelyiController::desired_velocity(const NeighborView& view,
                                            const MissionSpec& mission) const {
  return compute_terms(view, mission).total().clamped(params_.v_max);
}

void VasarhelyiController::desired_velocity_all(const WorldSnapshot& snapshot,
                                                const MissionSpec& mission,
                                                std::span<Vec3> desired,
                                                const TickExecutor& exec) const {
  const int n = snapshot.size();
  TickContext& ctx =
      exec.context != nullptr ? *exec.context : thread_tick_context();
  const std::vector<Vec3>& pos = snapshot.gps_position;
  const std::vector<Vec3>& vel = snapshot.velocity;

  // Grid fast path for large swarms. Candidate culling is conservative:
  //  * repulsion fires only below r0_rep;
  //  * friction is guaranteed false beyond friction_cutoff_distance for the
  //    swarm's worst-case velocity gap (the velocity bounding-box diagonal),
  //    so pairs beyond r_pair contribute neither a term nor a contributor
  //    count and skip both tests;
  //  * attraction needs the true k_att nearest. The candidate list covers
  //    that too whenever at least k_att candidates sit at exact distance
  //    <= r_pair: the k-th smallest qualifying distance dk is then
  //    <= r_pair, every drone at distance <= dk is a candidate, and
  //    NearestK over a subset that (a) contains everything at distance
  //    <= dk and (b) preserves arrival order picks exactly the members the
  //    full scan picks (see NearestK in vasarhelyi.h). Drones with sparse
  //    surroundings re-gather at doubled radii until the same certificate
  //    holds.
  // The candidates come from the context's neighbour lists (DESIGN.md §14,
  // "Neighbour lists"): gathered at R = r_pair + kNeighbourListSkin around the
  // positions pos0 of their build and reused while r_pair + 2 D <= R, D
  // being the largest XY displacement since pos0. By the triangle
  // inequality a drone within r_pair now was within r_pair + 2 D <= R at
  // pos0, so each list stays a superset of the drones within r_pair, in
  // ascending index order.
  // Every candidate still runs the exact per-view arithmetic in ascending
  // broadcast order, so results are bit-identical to the paths below — and
  // because each drone's kernel reads only the immutable grid/snapshot and
  // writes only desired[i] and its lane's lists through lane-private
  // scratch, chunking the loop over the tick pool reproduces the serial
  // bits for any thread count.
  if (spatial_grid_wanted(n)) {
    const double r_pair = std::max(
        params_.r0_rep,
        friction_cutoff_distance(params_, velocity_gap_bound(snapshot)));
    if (std::isfinite(r_pair)) {
      NeighbourLists& lists = ctx.neighbour_lists();
      const int chunks = exec.parallel() ? exec.pool->threads() : 1;
      // D, padded; NaN for a non-finite position, which fails the test.
      double drift = 0.0;
      bool reuse = lists.chunks == chunks && lists.pos0.size() == pos.size();
      if (reuse) {
        drift = max_displacement(pos, lists.pos0);
        reuse = r_pair + 2.0 * drift <= lists.radius;
      }
      if (!reuse) {
        drift = 0.0;
        lists.radius = r_pair + kNeighbourListSkin;
        lists.grid.build(std::span<const Vec3>(pos), std::max(lists.radius, 1e-3));
        lists.pos0.assign(pos.begin(), pos.end());
        lists.chunks = lists.grid.valid() ? chunks : 0;
      }
      if (lists.chunks != 0) {
        const SpatialGrid& grid = lists.grid;
        const double keep_d2 = padded_radius(r_pair) * padded_radius(r_pair);
        exec.for_range(n, [&](int begin, int end, int lane) {
          PairScanScratch& s = ctx.lane(lane);
          if (!reuse) {
            s.list.clear();
            s.list_off.assign(1, 0);
          }
          for (int i = begin; i < end; ++i) {
            const Vec3& self_pos = pos[static_cast<size_t>(i)];
            const Vec3& self_vel = vel[static_cast<size_t>(i)];
            Terms terms;
            terms.migration = migration_term(params_, self_pos, mission);

            if (!reuse) {
              grid.gather(self_pos, lists.radius, s.list);
              s.list_off.push_back(static_cast<int>(s.list.size()));
            }
            const auto k = static_cast<size_t>(i - begin);
            const std::span<const int> cand(
                s.list.data() + s.list_off[k],
                static_cast<size_t>(s.list_off[k + 1] - s.list_off[k]));

            // Fused candidate pass: diff and dist are computed once per
            // candidate and feed repulsion, friction AND the attraction
            // selection. A candidate provably beyond r_pair (its squared
            // distance above keep_d2) is skipped whole: it adds no term, and
            // whenever the k_att nearest are certified below, every one of
            // them lies within r_pair.
            NearestK nearest(params_.k_att);
            int friction_contributors = 0;
            int within_r_pair = 0;
            for (const int j : cand) {
              if (j == i) continue;
              const Vec3 diff =
                  (self_pos - pos[static_cast<size_t>(j)]).horizontal();
              const double d2 = diff.norm_sq();
              if (!(d2 <= keep_d2)) continue;
              const double dist = std::sqrt(d2);  // == diff.norm()
              if (dist < 1e-9) continue;  // coincident fixes
              nearest.offer(dist, j);
              if (!(dist <= r_pair)) continue;
              ++within_r_pair;
              Vec3 term;
              if (repulsion_term(params_, diff, dist, term)) {
                terms.repulsion += term;
              }
              if (friction_term(params_, frict_curve_,
                                vel[static_cast<size_t>(j)] - self_vel, dist,
                                term)) {
                terms.friction += term;
                ++friction_contributors;
              }
            }
            average_friction(terms, friction_contributors);

            // The selection holds the k_att nearest when at least k_att
            // candidates sit within the exact (unpadded) r_pair. A drone
            // with sparser surroundings (the Poisson tail of the neighbour
            // count) re-gathers at geometrically doubled radii r_att until
            // k_att candidates sit within r_att or the gather returns the
            // whole swarm — each retry is one cheap rectangle query on the
            // lists' grid, widened by D because that grid holds the pos0
            // positions, and the doubling terminates because a radius
            // covering the grid extent returns every drone.
            double r_att = r_pair;
            bool certified = within_r_pair >= params_.k_att;
            while (!certified) {
              r_att *= 2.0;
              s.cand.clear();
              grid.gather(self_pos, r_att + drift, s.cand);
              nearest = NearestK(params_.k_att);
              int within_r_att = 0;
              for (const int j : s.cand) {
                if (j == i) continue;
                const Vec3 diff =
                    (self_pos - pos[static_cast<size_t>(j)]).horizontal();
                const double dist = diff.norm();
                if (dist < 1e-9) continue;
                nearest.offer(dist, j);
                if (dist <= r_att) ++within_r_att;
              }
              certified = within_r_att >= params_.k_att ||
                          static_cast<int>(s.cand.size()) == n;
            }
            // The selected diffs are recomputed with the same operations,
            // so they carry the bits the candidate pass saw.
            terms.attraction = attraction_sum(params_, nearest, [&](int j) {
              return (self_pos - pos[static_cast<size_t>(j)]).horizontal();
            });

            terms.shill =
                shill_sum(params_, shill_curve_, self_pos, self_vel, mission);
            terms.altitude = Vec3{0.0, 0.0,
                                  params_.altitude_gain *
                                      (mission.cruise_altitude - self_pos.z)};
            desired[static_cast<size_t>(i)] =
                terms.total().clamped(params_.v_max);
          }
        });
        return;
      }
    }
  }

  // Symmetric dense batch path: with trivial communication every drone sees
  // the same broadcast, so each unordered pair's distance and velocity-gap
  // norm are computed once and scattered to both members. This is
  // bit-identical to the per-view path: diff_ji = -diff_ij and the squared
  // norms agree exactly (IEEE negation and multiplication), subtraction of
  // a term equals addition of its exact negation, and the scatter order
  // (outer i ascending, inner j ascending) accumulates into each drone's
  // sums in exactly the neighbour order the per-view loop uses. Stays
  // serial: the half-pair scatter writes rows i and j from one iteration.
  // A structure-of-arrays SIMD pair pass measured no faster at N = 10: more
  // than half the pairs get past the friction gate's first guard, so the
  // scalar scatter dominates (DESIGN.md §9).
  // Local copies: the parameters cannot alias the scratch rows the loops
  // store to, so they stay in registers instead of being reloaded after
  // every store.
  const VasarhelyiParams prm = params_;
  const BrakingCurve frict = frict_curve_;
  const BrakingCurve shill = shill_curve_;
  PairScanScratch& s = ctx.lane(0);
  const size_t un = static_cast<size_t>(n);
  s.dist.resize(un * un);
  // vec_a accumulates repulsion, vec_b friction; the remaining terms are
  // added per drone below in Terms::total()'s order.
  s.vec_a.assign(un, Vec3{});
  s.vec_b.assign(un, Vec3{});
  s.contributors.assign(un, 0);
  const Vec3* const p = pos.data();
  const Vec3* const v = vel.data();
  double* const dist_rows = s.dist.data();
  Vec3* const repulsion = s.vec_a.data();
  Vec3* const friction = s.vec_b.data();
  int* const contributors = s.contributors.data();

  for (size_t i = 0; i < un; ++i) {
    const Vec3 pi = p[i];
    const Vec3 vi = v[i];
    double* const row_i = dist_rows + i * un;
    for (size_t j = i + 1; j < un; ++j) {
      const Vec3 diff = (pi - p[j]).horizontal();
      const double dist = diff.norm();
      row_i[j] = dist;
      dist_rows[j * un + i] = dist;
      if (dist < 1e-9) continue;  // coincident fixes: no defined direction

      Vec3 term;
      if (repulsion_term(prm, diff, dist, term)) {
        repulsion[i] += term;
        repulsion[j] -= term;
      }
      if (friction_term(prm, frict, v[j] - vi, dist, term)) {
        friction[i] += term;
        friction[j] -= term;
        ++contributors[i];
        ++contributors[j];
      }
    }
  }

  for (size_t i = 0; i < un; ++i) {
    const Vec3& self_pos = p[i];
    Terms terms;
    terms.repulsion = repulsion[i];
    terms.friction = friction[i];
    terms.migration = migration_term(prm, self_pos, mission);
    average_friction(terms, contributors[i]);

    // Attraction from the cached distance row; the (self - other) diff is
    // recomputed for just the selected few. fl(b - a) = -fl(a - b)
    // componentwise, so recomputing in self's orientation matches the
    // per-view bits regardless of which triangle the pair loop walked.
    const double* const row = dist_rows + i * un;
    NearestK nearest(prm.k_att);
    for (size_t j = 0; j < un; ++j) {
      if (j == i || row[j] < 1e-9) continue;
      nearest.offer(row[j], static_cast<int>(j));
    }
    terms.attraction = attraction_sum(prm, nearest, [&](int j) {
      return (self_pos - p[static_cast<size_t>(j)]).horizontal();
    });

    terms.shill = shill_sum(prm, shill, self_pos, v[i], mission);
    terms.altitude = Vec3{0.0, 0.0,
                          prm.altitude_gain *
                              (mission.cruise_altitude - self_pos.z)};
    desired[i] = terms.total().clamped(prm.v_max);
  }
}

double VasarhelyiController::probe_influence_radius(
    const WorldSnapshot& snapshot, const MissionSpec& mission) const {
  (void)mission;  // obstacle (shill) terms do not depend on other drones
  const int n = snapshot.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Moving drone j beyond this radius from drone i (before AND after the
  // spoof — the caller adds the spoof displacement) cannot change i's
  // desired velocity:
  //  * repulsion is zero beyond r0_rep;
  //  * friction is guaranteed zero beyond the cutoff for the swarm's
  //    worst-case velocity gap;
  //  * attraction only reacts to the k_att nearest members, so a drone
  //    farther than every member's k_att-th nearest distance (Dk_max) is
  //    never selected — and with strict comparisons, never displaces a
  //    selection or changes a tie.
  // If some member has fewer than k_att non-coincident neighbours, every
  // neighbour is selected no matter how far: no finite radius is safe.
  const double vmax = max_speed(snapshot);
  const double r_frict = friction_cutoff_distance(params_, 2.0 * vmax);
  if (!std::isfinite(r_frict)) return kInf;

  double dk_max = 0.0;
  if (params_.k_att > 0) {
    TickContext& ctx = thread_tick_context();
    SpatialGrid& grid = ctx.grid();
    PairScanScratch& s = ctx.lane(0);
    const std::vector<Vec3>& pos = snapshot.gps_position;
    const double r_start = std::max(params_.r0_att, 1e-3);
    const bool use_grid = spatial_grid_wanted(n);
    if (use_grid) grid.build(std::span<const Vec3>(pos), r_start);
    const bool grid_ok = use_grid && grid.valid();
    for (int i = 0; i < n; ++i) {
      const Vec3& self_pos = pos[static_cast<size_t>(i)];
      // Qualifying distances from i, over the full scan or, on the grid,
      // over gathers at doubling radii r. The doubling stops on the grid
      // path's straggler certificate: once k_att qualifying candidates lie
      // within r, the k_att-th nearest distance is at most r and every
      // drone that near is a candidate — or the gather returned all n.
      s.neighbours.clear();
      const auto consider = [&](int j) {
        if (j == i) return;
        const Vec3 diff = (self_pos - pos[static_cast<size_t>(j)]).horizontal();
        const double dist = diff.norm();
        if (dist < 1e-9) return;
        s.neighbours.emplace_back(dist, diff);
      };
      if (grid_ok) {
        for (double r = r_start;; r *= 2.0) {
          s.cand.clear();
          grid.gather(self_pos, r, s.cand);
          s.neighbours.clear();
          for (const int j : s.cand) consider(j);
          const auto within_r =
              std::count_if(s.neighbours.begin(), s.neighbours.end(),
                            [r](const auto& e) { return e.first <= r; });
          if (within_r >= params_.k_att || static_cast<int>(s.cand.size()) == n) {
            break;
          }
        }
      } else {
        for (int j = 0; j < n; ++j) consider(j);
      }
      if (static_cast<int>(s.neighbours.size()) < params_.k_att) return kInf;
      NearestK nearest(params_.k_att);
      for (size_t q = 0; q < s.neighbours.size(); ++q) {
        nearest.offer(s.neighbours[q].first, static_cast<int>(q));
      }
      const double dk = nearest.selected().back().dist;
      if (!std::isfinite(dk)) return kInf;
      dk_max = std::max(dk_max, dk);
    }
  }
  return std::max({params_.r0_rep, r_frict, dk_max});
}

}  // namespace swarmfuzz::swarm
