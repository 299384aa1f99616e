// Grid-culled batch evaluation for controllers with a hard interaction
// cutoff (Olfati-Saber's alpha range, Reynolds' neighbourhood radius).
// Internal helper shared by their desired_velocity_all overrides.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "sim/types.h"
#include "swarm/comm.h"
#include "swarm/spatial_grid.h"
#include "swarm/tick_context.h"

namespace swarmfuzz::swarm {

// Evaluates `eval(view)` for every drone, culling each drone's view to the
// grid's candidate superset within `cutoff` when the swarm is large enough.
// Exact for any controller whose pairwise kernel ignores neighbours beyond
// `cutoff`: the superset contains every interacting neighbour, candidates
// arrive in ascending broadcast order (the whole-view iteration order), and
// culled drones contributed nothing to begin with — so the results are
// bit-identical to whole-broadcast views, which it falls back to when the
// grid is unwanted (small swarm, disabled policy) or invalid (non-finite
// coordinates). Serial: the Vásárhelyi grid kernel is the only one that
// fans a tick out to the pool (DESIGN.md §15).
template <typename Eval>
void evaluate_all_with_cutoff(const sim::WorldSnapshot& snapshot, double cutoff,
                              std::span<math::Vec3> desired, Eval eval) {
  const int n = snapshot.size();
  if (spatial_grid_wanted(n) && std::isfinite(cutoff) && cutoff > 0.0) {
    TickContext& ctx = thread_tick_context();
    SpatialGrid& grid = ctx.grid();
    grid.build(std::span<const math::Vec3>(snapshot.gps_position),
               std::max(cutoff, 1e-3));
    if (grid.valid()) {
      std::vector<int>& cand = ctx.lane(0).cand;
      for (int i = 0; i < n; ++i) {
        cand.clear();
        grid.gather(snapshot.gps_position[static_cast<size_t>(i)], cutoff, cand);
        // Self is always gathered (distance 0); locate its view position.
        const auto it = std::lower_bound(cand.begin(), cand.end(), i);
        if (it == cand.end() || *it != i) {
          desired[static_cast<size_t>(i)] = eval(NeighborView(snapshot, i));
          continue;
        }
        const int self_index = static_cast<int>(it - cand.begin());
        desired[static_cast<size_t>(i)] =
            eval(NeighborView(snapshot, cand, self_index));
      }
      return;
    }
  }
  for (int i = 0; i < n; ++i) {
    desired[static_cast<size_t>(i)] = eval(NeighborView(snapshot, i));
  }
}

}  // namespace swarmfuzz::swarm
