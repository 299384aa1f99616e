// The dense Vasarhelyi kernel (DESIGN.md §9, "dense Vasarhelyi kernel"):
// the batch pass over the whole broadcast must reproduce the per-view
// desired_velocity bit for bit — on snapshots recorded from real clean and
// spoofed 10-drone runs, on hand-built edge cases, and for every k_att from
// 0 to the cap — and its top-k attraction selection (NearestK) must pick
// exactly what a stable sort by distance picks. probe_influence_radius
// must agree between its grid and full-scan paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "attack/spoofing.h"
#include "math/rng.h"
#include "sim/simulator.h"
#include "swarm/flocking_system.h"
#include "swarm/spatial_grid.h"
#include "swarm/vasarhelyi.h"

namespace swarmfuzz::swarm {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Identical bits, except that any NaN matches any NaN: IEEE leaves NaN
// sign and payload propagation to the hardware.
bool same_bits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult same_bits(const Vec3& a, const Vec3& b) {
  if (same_bits(a.x, b.x) && same_bits(a.y, b.y) && same_bits(a.z, b.z)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " vs " << b;
}

// The dense batch path only runs below the spatial-grid threshold; pin the
// grid off so the comparison cannot silently test the grid path instead.
class DensePathScope {
 public:
  DensePathScope() : saved_(spatial_grid_policy()) {
    spatial_grid_policy().enabled = false;
  }
  ~DensePathScope() { spatial_grid_policy() = saved_; }

 private:
  SpatialGridPolicy saved_;
};

// Every drone's batch result equals its per-view result, bit for bit.
void expect_dense_matches_per_view(const VasarhelyiController& controller,
                                   const WorldSnapshot& snapshot,
                                   const MissionSpec& mission) {
  const DensePathScope dense;
  std::vector<Vec3> batch(static_cast<size_t>(snapshot.size()));
  controller.desired_velocity_all(snapshot, mission, batch);
  for (int i = 0; i < snapshot.size(); ++i) {
    ASSERT_TRUE(same_bits(batch[static_cast<size_t>(i)],
                          controller.desired_velocity(i, snapshot, mission)))
        << "drone " << i << " at t = " << snapshot.time;
  }
}

class SnapshotLog final : public sim::StepObserver {
 public:
  void on_step(double, const WorldSnapshot& snapshot,
               std::span<const sim::DroneState>) override {
    if (tick_++ % 4 == 0) snapshots.push_back(snapshot);
  }
  std::vector<WorldSnapshot> snapshots;

 private:
  long tick_ = 0;
};

struct RecordedRuns {
  MissionSpec mission;
  std::vector<WorldSnapshot> snapshots;
};

// Broadcasts of one clean and two spoofed runs of a 10-drone Table I
// mission: spoofed GPS fixes, obstacle approaches and the full branch mix
// (friction on and off, shill near and far, attraction selected and not).
const RecordedRuns& recorded_runs() {
  static const RecordedRuns runs = [] {
    sim::MissionConfig config;
    config.num_drones = 10;
    RecordedRuns out{.mission = sim::generate_mission(config, 4242), .snapshots = {}};
    const sim::Simulator simulator;
    auto system = make_vasarhelyi_system();
    SnapshotLog log;
    (void)simulator.run(out.mission, *system, nullptr, &log);
    for (const auto& [target, direction] :
         {std::pair{2, attack::SpoofDirection::kRight},
          std::pair{7, attack::SpoofDirection::kLeft}}) {
      const attack::GpsSpoofer spoofer(
          attack::SpoofingPlan{.target = target, .direction = direction,
                               .start_time = 8.0, .duration = 20.0, .distance = 10.0},
          out.mission);
      (void)simulator.run(out.mission, *system, &spoofer, &log);
    }
    out.snapshots = std::move(log.snapshots);
    return out;
  }();
  return runs;
}

TEST(VasarhelyiKernel, DenseMatchesPerViewOnRecordedRuns) {
  const RecordedRuns& runs = recorded_runs();
  ASSERT_GT(runs.snapshots.size(), 300u);
  const VasarhelyiController controller;
  for (const WorldSnapshot& snapshot : runs.snapshots) {
    expect_dense_matches_per_view(controller, snapshot, runs.mission);
  }
}

TEST(VasarhelyiKernel, DenseMatchesPerViewForEveryKAtt) {
  const RecordedRuns& runs = recorded_runs();
  const int n = runs.mission.num_drones();
  for (const int k : {0, 1, n - 2, n - 1, n, n + 3, kMaxAttractionNeighbours}) {
    VasarhelyiParams params;
    params.k_att = k;
    const VasarhelyiController controller(params);
    for (size_t s = 0; s < runs.snapshots.size(); s += 5) {
      expect_dense_matches_per_view(controller, runs.snapshots[s], runs.mission);
    }
  }
}

TEST(VasarhelyiKernel, RejectsKAttAboveTheCap) {
  VasarhelyiParams params;
  params.k_att = kMaxAttractionNeighbours;
  EXPECT_NO_THROW(VasarhelyiController{params});
  params.k_att = kMaxAttractionNeighbours + 1;
  EXPECT_THROW(VasarhelyiController{params}, std::invalid_argument);
}

MissionSpec open_mission() {
  MissionSpec mission;
  mission.initial_positions = {{0, 0, 10}};
  mission.destination = {300, 0, 10};
  mission.cruise_altitude = 10.0;
  mission.obstacles =
      sim::ObstacleField({sim::CylinderObstacle{{40, 6, 0}, 3.0}});
  return mission;
}

TEST(VasarhelyiKernel, EqualDistancesTieToTheLowerIndex) {
  // Drones 1 and 2 sit at exactly the same distance (30 m, beyond r0_att)
  // on opposite sides of drone 0; with k_att = 1 only drone 1 may attract.
  VasarhelyiParams params;
  params.k_att = 1;
  const VasarhelyiController controller(params);
  WorldSnapshot snapshot;
  snapshot.push_back({0, {0, 0, 10}, {2.5, 0, 0}});
  snapshot.push_back({1, {0, 30, 10}, {2.5, 0, 0}});
  snapshot.push_back({2, {0, -30, 10}, {2.5, 0, 0}});
  const MissionSpec mission = open_mission();
  const VasarhelyiController::Terms terms =
      controller.compute_terms(0, snapshot, mission);
  EXPECT_GT(terms.attraction.y, 0.0);
  EXPECT_EQ(terms.attraction.x, 0.0);
  expect_dense_matches_per_view(controller, snapshot, mission);
}

TEST(VasarhelyiKernel, CoincidentFixesAreSkippedOnEveryPath) {
  // Drone 1's fix is within 1e-9 m of drone 0's: no direction is defined,
  // so the pair contributes nothing at all to either drone.
  const VasarhelyiController controller;
  const MissionSpec mission = open_mission();
  WorldSnapshot with;
  with.push_back({0, {0, 0, 10}, {2.5, 0, 0}});
  with.push_back({1, {1e-10, 0, 10}, {0, 3, 0}});
  with.push_back({2, {6, 2, 10}, {1, 1, 0}});
  with.push_back({3, {-30, 4, 10}, {2, 0, 0}});
  expect_dense_matches_per_view(controller, with, mission);

  WorldSnapshot without;
  without.push_back({0, {0, 0, 10}, {2.5, 0, 0}});
  without.push_back({2, {6, 2, 10}, {1, 1, 0}});
  without.push_back({3, {-30, 4, 10}, {2, 0, 0}});
  EXPECT_TRUE(same_bits(controller.desired_velocity(0, with, mission),
                        controller.desired_velocity(0, without, mission)));
}

TEST(VasarhelyiKernel, NonFiniteVelocityMatchesPerView) {
  const MissionSpec mission = open_mission();
  for (const double bad : {kNaN, std::numeric_limits<double>::infinity()}) {
    WorldSnapshot snapshot;
    snapshot.push_back({0, {0, 0, 10}, {2.5, 0, 0}});
    snapshot.push_back({1, {5, 3, 10}, {bad, 0, 0}});
    snapshot.push_back({2, {-4, 1, 10}, {2, 1, 0}});
    snapshot.push_back({3, {36, 5, 10}, {2, 0, 0}});  // near the obstacle
    for (const int k : {0, 1, 3}) {
      VasarhelyiParams params;
      params.k_att = k;
      expect_dense_matches_per_view(VasarhelyiController(params), snapshot, mission);
    }
  }
}

// probe_influence_radius takes the k_att-th nearest distance from doubling
// grid gathers on large swarms and from the full scan otherwise; both must
// give the same bits. Random swarms over a wide range of sizes, spreads and
// k_att, with ~10% of drones on (or within 1e-9 m of) another's fix and an
// occasional far straggler.
TEST(VasarhelyiKernel, ProbeInfluenceRadiusGridMatchesDense) {
  const SpatialGridPolicy saved = spatial_grid_policy();
  const MissionSpec mission = open_mission();
  math::Rng rng(2305);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = rng.uniform_int(1, 160);
    const double spread = rng.uniform(1.0, 600.0);
    WorldSnapshot snapshot;
    for (int i = 0; i < n; ++i) {
      Vec3 position{rng.uniform(-spread, spread), rng.uniform(-spread, spread),
                    rng.uniform(8.0, 12.0)};
      if (i > 0 && rng.bernoulli(0.1)) {
        const Vec3& other = snapshot.gps_position[static_cast<size_t>(
            rng.uniform_int(0, i - 1))];
        position.x = other.x + (rng.bernoulli(0.5) ? 0.0 : 5e-10);
        position.y = other.y;
      } else if (rng.bernoulli(0.02)) {
        position.x += 10.0 * spread;
      }
      snapshot.push_back({i, position,
                          Vec3{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), 0.0}});
    }
    for (const int k : {0, 1, 3, 7, 16}) {
      VasarhelyiParams params;
      params.k_att = k;
      const VasarhelyiController controller(params);
      spatial_grid_policy() = {.enabled = true, .min_drones = 1};
      const double grid = controller.probe_influence_radius(snapshot, mission);
      spatial_grid_policy() = {.enabled = false, .min_drones = 1};
      const double dense = controller.probe_influence_radius(snapshot, mission);
      EXPECT_TRUE(same_bits(grid, dense))
          << "trial " << trial << " n " << n << " k_att " << k << ": " << grid
          << " vs " << dense;
    }
  }
  spatial_grid_policy() = saved;
}

// The pre-NearestK selection, kept as an independent oracle: an insertion
// top-k over candidate indices with strict comparisons.
std::vector<int> insertion_top_k(const std::vector<double>& dist, int k) {
  std::vector<int> top;
  if (k <= 0) return top;
  for (int j = 0; j < static_cast<int>(dist.size()); ++j) {
    const double d = dist[static_cast<size_t>(j)];
    if (static_cast<int>(top.size()) < k) {
      top.push_back(j);
    } else if (d < dist[static_cast<size_t>(top.back())]) {
      top.back() = j;
    } else {
      continue;
    }
    for (size_t q = top.size() - 1; q > 0 && d < dist[static_cast<size_t>(top[q - 1])];
         --q) {
      std::swap(top[q], top[q - 1]);
    }
  }
  return top;
}

std::vector<int> nearest_k(const std::vector<double>& dist, int k) {
  NearestK nearest(k);
  for (size_t j = 0; j < dist.size(); ++j) {
    nearest.offer(dist[j], static_cast<int>(j));
  }
  std::vector<int> out;
  for (const NearestK::Entry& e : nearest.selected()) {
    EXPECT_TRUE(same_bits(e.dist, dist[static_cast<size_t>(e.index)]));
    out.push_back(e.index);
  }
  return out;
}

TEST(NearestK, MatchesStableSortByDistance) {
  math::Rng rng(31);
  for (int trial = 0; trial < 4000; ++trial) {
    const int count = rng.uniform_int(0, 40);
    const int k = rng.uniform_int(-1, kMaxAttractionNeighbours);
    std::vector<double> dist(static_cast<size_t>(count));
    // Coarse quantization makes ties common.
    for (double& d : dist) d = std::floor(rng.uniform(0.0, 12.0)) * 2.5;
    std::vector<int> order(static_cast<size_t>(count));
    for (int j = 0; j < count; ++j) order[static_cast<size_t>(j)] = j;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return dist[static_cast<size_t>(a)] < dist[static_cast<size_t>(b)];
    });
    order.resize(static_cast<size_t>(std::clamp(k, 0, count)));
    ASSERT_EQ(nearest_k(dist, k), order) << "trial " << trial;
  }
}

TEST(NearestK, MatchesInsertionSelectionWithNaN) {
  math::Rng rng(32);
  for (int trial = 0; trial < 4000; ++trial) {
    const int count = rng.uniform_int(0, 24);
    const int k = rng.uniform_int(0, kMaxAttractionNeighbours);
    std::vector<double> dist(static_cast<size_t>(count));
    for (double& d : dist) {
      d = rng.bernoulli(0.2) ? kNaN : std::floor(rng.uniform(0.0, 8.0));
    }
    ASSERT_EQ(nearest_k(dist, k), insertion_top_k(dist, k)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace swarmfuzz::swarm
