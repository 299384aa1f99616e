// Uniform spatial hash grid over the horizontal (XY) plane.
//
// Built once per control tick from the broadcast positions (or ground-truth
// states) and shared by every pair scan in the hot path: communication
// range culling, the Vásárhelyi/Olfati-Saber/Reynolds pair-term kernels,
// swarm metrics, collision detection and SVG construction. It turns each
// O(N) neighbour scan into a cells-within-radius query.
//
// Exactness contract — the grid NEVER decides anything by itself:
//  * gather() returns a conservative *superset* of the drones within the
//    query radius (the query radius carries a relative-plus-absolute
//    padding far above any floating-point rounding in the cell-index
//    arithmetic). Callers re-apply the exact original accept test per
//    candidate, so accepted sets — and therefore results — are
//    bit-identical to the brute-force pair scan.
//  * Candidates are returned in ascending index order, which is exactly
//    the order the original broadcast-order loops visited them. Sums
//    accumulate in the same order and RNG streams consume draws
//    identically.
//  * build() validates every coordinate; a non-finite position marks the
//    grid invalid and callers fall back to the brute-force scan, so NaN
//    propagation semantics are untouched.
// Determinism rules are documented in DESIGN.md §14.
#pragma once

#include <span>
#include <vector>

#include "math/vec3.h"

namespace swarmfuzz::swarm {

// Process-wide switch for the grid fast paths, exposed so tests and the CLI
// can force the brute-force scans (results are bit-identical either way;
// only wall time differs). `min_drones` is the break-even swarm size below
// which brute force wins and the grid is skipped.
struct SpatialGridPolicy {
  bool enabled = true;
  int min_drones = 32;
};
[[nodiscard]] SpatialGridPolicy& spatial_grid_policy() noexcept;

// True when the policy enables grid acceleration for a swarm of `n` drones.
[[nodiscard]] bool spatial_grid_wanted(int n) noexcept;

// `radius` plus the rounding pad every grid query adds (relative 1e-9 plus
// an absolute 1e-9 m): seven orders of magnitude above double rounding, so
// no in-range drone is lost to it. Callers that carry a distance bound from
// tick to tick pad it the same way.
[[nodiscard]] inline double padded_radius(double radius) noexcept {
  return radius + radius * 1e-9 + 1e-9;
}

class SpatialGrid {
 public:
  SpatialGrid() = default;

  // Indexes `positions` (their XY projections) into cells of roughly
  // `cell_size` metres. The effective cell size may be larger: the cell
  // count is capped at ~4 per drone so degenerate spreads cannot explode
  // memory (queries stay conservative either way). Buffers are reused
  // across builds, so steady-state rebuilds perform no heap allocation.
  // A non-finite coordinate invalidates the grid (valid() == false).
  void build(std::span<const math::Vec3> positions, double cell_size);

  [[nodiscard]] bool valid() const noexcept { return valid_; }
  [[nodiscard]] int size() const noexcept { return n_; }
  [[nodiscard]] double cell_size() const noexcept { return cell_; }

  // Appends to `out` (which is NOT cleared) every index whose XY distance
  // to `center` could be <= radius — a conservative superset, in ascending
  // index order. Candidates whose XY distance provably exceeds the padded
  // radius are pre-rejected on squared distance (no sqrt).
  void gather(const math::Vec3& center, double radius, std::vector<int>& out) const;

 private:
  [[nodiscard]] int cell_x(double x) const noexcept;
  [[nodiscard]] int cell_y(double y) const noexcept;

  double cell_ = 1.0;
  double inv_cell_ = 1.0;
  double min_x_ = 0.0, min_y_ = 0.0;
  int nx_ = 0, ny_ = 0;
  int n_ = 0;
  bool valid_ = false;
  std::vector<int> cell_start_;  // CSR offsets, nx_*ny_ + 1 entries
  std::vector<int> entries_;     // drone indices, ascending within each cell
  std::vector<int> cell_of_;     // scratch: cell id per drone
  std::vector<double> xs_, ys_;  // coordinates by drone index
  // Coordinates duplicated in slot (cell-scan) order: queries walk each
  // cell's span contiguously instead of gathering through entries_.
  std::vector<double> slot_x_, slot_y_;
};

}  // namespace swarmfuzz::swarm
