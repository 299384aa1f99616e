#include "swarm/spatial_grid.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace swarmfuzz::swarm {

SpatialGridPolicy& spatial_grid_policy() noexcept {
  static SpatialGridPolicy policy;
  return policy;
}

bool spatial_grid_wanted(int n) noexcept {
  const SpatialGridPolicy& policy = spatial_grid_policy();
  return policy.enabled && n >= policy.min_drones;
}

int SpatialGrid::cell_x(double x) const noexcept {
  const int c = static_cast<int>(std::floor((x - min_x_) * inv_cell_));
  return std::clamp(c, 0, nx_ - 1);
}

int SpatialGrid::cell_y(double y) const noexcept {
  const int c = static_cast<int>(std::floor((y - min_y_) * inv_cell_));
  return std::clamp(c, 0, ny_ - 1);
}

void SpatialGrid::build(std::span<const math::Vec3> positions, double cell_size) {
  if (cell_size <= 0.0 || !std::isfinite(cell_size)) {
    throw std::invalid_argument("SpatialGrid: cell_size must be positive");
  }
  n_ = static_cast<int>(positions.size());
  valid_ = false;
  if (n_ == 0) return;

  xs_.resize(static_cast<size_t>(n_));
  ys_.resize(static_cast<size_t>(n_));
  double min_x = positions[0].x, max_x = positions[0].x;
  double min_y = positions[0].y, max_y = positions[0].y;
  bool finite = true;
  for (int i = 0; i < n_; ++i) {
    const double x = positions[static_cast<size_t>(i)].x;
    const double y = positions[static_cast<size_t>(i)].y;
    xs_[static_cast<size_t>(i)] = x;
    ys_[static_cast<size_t>(i)] = y;
    // Checked per coordinate: std::min/max KEEP the finite operand when the
    // other is NaN, so relying on min/max propagation would let a NaN drone
    // slip into a bogus cell and break the superset guarantee.
    finite = finite && std::isfinite(x) && std::isfinite(y);
    min_x = std::min(min_x, x);
    max_x = std::max(max_x, x);
    min_y = std::min(min_y, y);
    max_y = std::max(max_y, y);
  }
  // A non-finite coordinate (diverged or faulted run) leaves the grid
  // invalid; callers fall back to the brute-force scan so NaN propagation
  // semantics are untouched.
  if (!finite) return;

  // Cap the cell count at ~4 per drone: a degenerate spread (one straggler
  // kilometres away) must not allocate an unbounded lattice. Queries stay
  // conservative with any cell size; only pruning efficiency varies.
  const double extent_x = max_x - min_x;
  const double extent_y = max_y - min_y;
  cell_ = cell_size;
  const double max_cells = std::max(16.0, 4.0 * static_cast<double>(n_));
  const double want =
      (extent_x / cell_ + 1.0) * (extent_y / cell_ + 1.0);
  if (want > max_cells) {
    cell_ = std::sqrt((extent_x + cell_) * (extent_y + cell_) / max_cells) + cell_;
  }
  inv_cell_ = 1.0 / cell_;
  min_x_ = min_x;
  min_y_ = min_y;
  nx_ = static_cast<int>(extent_x * inv_cell_) + 1;
  ny_ = static_cast<int>(extent_y * inv_cell_) + 1;

  // Counting sort into CSR. Filling in ascending drone order keeps each
  // cell's entry list ascending, which is what lets queries return
  // candidates in the exact order the brute-force loops visited them.
  const size_t cells = static_cast<size_t>(nx_) * static_cast<size_t>(ny_);
  cell_of_.resize(static_cast<size_t>(n_));
  cell_start_.assign(cells + 1, 0);
  for (int i = 0; i < n_; ++i) {
    const int c = cell_y(ys_[static_cast<size_t>(i)]) * nx_ +
                  cell_x(xs_[static_cast<size_t>(i)]);
    cell_of_[static_cast<size_t>(i)] = c;
    ++cell_start_[static_cast<size_t>(c) + 1];
  }
  for (size_t c = 1; c <= cells; ++c) cell_start_[c] += cell_start_[c - 1];
  entries_.resize(static_cast<size_t>(n_));
  slot_x_.resize(static_cast<size_t>(n_));
  slot_y_.resize(static_cast<size_t>(n_));
  // cell_start_ is consumed as a running cursor, then restored by shifting.
  // Coordinates are duplicated in slot order so queries scan each cell's
  // span contiguously instead of chasing scattered drone indices.
  for (int i = 0; i < n_; ++i) {
    const auto c = static_cast<size_t>(cell_of_[static_cast<size_t>(i)]);
    const auto slot = static_cast<size_t>(cell_start_[c]++);
    entries_[slot] = i;
    slot_x_[slot] = xs_[static_cast<size_t>(i)];
    slot_y_[slot] = ys_[static_cast<size_t>(i)];
  }
  for (size_t c = cells; c > 0; --c) cell_start_[c] = cell_start_[c - 1];
  cell_start_[0] = 0;
  valid_ = true;
}

void SpatialGrid::gather(const math::Vec3& center, double radius,
                         std::vector<int>& out) const {
  if (!valid_) throw std::logic_error("SpatialGrid: gather on invalid grid");
  const double r = padded_radius(radius);
  // Cell range overlapping [center - r, center + r]. The padding inside r
  // (>= 1e-9 m absolute) is what keeps this conservative under floor()
  // rounding: with cell_ >= 1e-3 m that margin is >= 1e-6 cell units, five
  // orders of magnitude above the ~1e-11 cell-unit error of this index
  // arithmetic, so the computed lower cell can never land above a cell
  // holding an in-range drone (and symmetrically for the upper bound).
  const int cx0 = std::max(
      static_cast<int>(std::floor((center.x - r - min_x_) * inv_cell_)), 0);
  const int cx1 = std::min(
      static_cast<int>(std::floor((center.x + r - min_x_) * inv_cell_)), nx_ - 1);
  const int cy0 = std::max(
      static_cast<int>(std::floor((center.y - r - min_y_) * inv_cell_)), 0);
  const int cy1 = std::min(
      static_cast<int>(std::floor((center.y + r - min_y_) * inv_cell_)), ny_ - 1);
  // A query rectangle entirely off-grid leaves an inverted range; bail
  // before it can index past the CSR table (cx0/cy0 are only clamped from
  // below, cx1/cy1 only from above).
  if (cx0 > cx1 || cy0 > cy1) return;

  // Contiguous scan of each cell span with the squared-distance pre-reject
  // (padded radius, no sqrt) inlined: far corners of the cell rectangle
  // never materialize. Survivors get the caller's exact accept test, so
  // this cut only has to be conservative.
  //
  // Accepted candidates are marked in a drone-index bitmap and extracted
  // afterwards: walking the set bits low-to-high yields ascending index
  // order directly, replacing the push-per-hit plus sort a naive collect
  // needs (the sort of ~16 ints cost more than the whole cell scan). The
  // bitmap is kept all-zero between calls — extraction clears every word it
  // reads — so per-query upkeep is O(words), not O(n).
  thread_local std::vector<std::uint64_t> bitmap;
  const size_t words = (static_cast<size_t>(n_) + 63) / 64;
  if (bitmap.size() < words) bitmap.assign(words, 0);

  // The mark is branch-free: OR-ing in the predicate's 0/1 bit costs the
  // same for kept and rejected entries, which interleave with no pattern a
  // branch predictor could learn. The predicate and the extraction are
  // unchanged, so the returned set and order are too.
  //
  // Cell ids are row-major, so the cells [cx0, cx1] of one row occupy one
  // contiguous CSR span: each row is scanned as a single run rather than
  // cell by cell, which drops the per-cell loop overhead (cells hold ~1
  // drone at typical densities) and gives the distance filter longer
  // uninterrupted iterations.
  const double r2 = r * r;
  for (int cy = cy0; cy <= cy1; ++cy) {
    const size_t row = static_cast<size_t>(cy) * static_cast<size_t>(nx_);
    const int begin = cell_start_[row + static_cast<size_t>(cx0)];
    const int end = cell_start_[row + static_cast<size_t>(cx1) + 1];
    for (int e = begin; e < end; ++e) {
      const auto slot = static_cast<size_t>(e);
      const double dx = slot_x_[slot] - center.x;
      const double dy = slot_y_[slot] - center.y;
      const auto j = static_cast<std::uint64_t>(entries_[slot]);
      bitmap[j >> 6] |= std::uint64_t{dx * dx + dy * dy <= r2} << (j & 63);
    }
  }
  for (size_t w = 0; w < words; ++w) {
    std::uint64_t word = bitmap[w];
    if (word == 0) continue;
    bitmap[w] = 0;
    const int base = static_cast<int>(w << 6);
    while (word != 0) {
      out.push_back(base + std::countr_zero(word));
      word &= word - 1;
    }
  }
}

}  // namespace swarmfuzz::swarm
