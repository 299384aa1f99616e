// Golden determinism for the hot-path optimizations (DESIGN.md §9).
//
// The optimized pipeline — NeighborView-based communication filtering, the
// symmetric batch controller under trivial communication, the guarded sqrt
// skips and the squared-distance recorder/collision pruning — claims to be
// *bit-identical* to the straightforward pipeline it replaced. These tests
// hold it to that: a reference ControlSystem reproduces the old
// materialize-a-snapshot-per-drone flow through the retained public APIs,
// and full missions run under both must agree on every recorded trajectory
// sample, collision event and outcome, across vehicle models and with and
// without packet loss (packet loss doubles as an RNG-stream-alignment
// check: filter() and filter_into() must consume draws identically).
//
// A counting global allocator additionally pins the zero-allocation claim:
// after warm-up, the per-tick control computation performs no heap
// allocation on either the batch or the filtered path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "sim/simulator.h"
#include "swarm/comm.h"
#include "swarm/flocking_system.h"
#include "swarm/olfati_saber.h"
#include "swarm/spatial_grid.h"
#include "swarm/vasarhelyi.h"
#include "util/worker_pool.h"

namespace {

std::atomic<std::uint64_t> g_allocation_count{0};

}  // namespace

// Replacements for the global allocation functions; counting them is the
// only way to observe allocations made inside library code.
void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace swarmfuzz;

// The pre-optimization control flow, reproduced through the retained public
// APIs: per drone, materialize the filtered snapshot (self first) and
// evaluate the controller through the snapshot adapter.
class ReferenceControlSystem final : public sim::ControlSystem {
 public:
  ReferenceControlSystem(std::shared_ptr<const swarm::SwarmController> controller,
                         const swarm::CommConfig& comm)
      : controller_(std::move(controller)), comm_(comm) {}

  void reset(const sim::MissionSpec& /*mission*/, std::uint64_t seed) override {
    comm_.reset(seed);
  }

  void compute(const sim::WorldSnapshot& snapshot, const sim::MissionSpec& mission,
               std::span<sim::Vec3> desired) override {
    for (int i = 0; i < snapshot.size(); ++i) {
      const sim::WorldSnapshot perceived =
          comm_.filter(snapshot, snapshot.id[static_cast<size_t>(i)]);
      desired[i] = controller_->desired_velocity(0, perceived, mission);
    }
  }

 private:
  std::shared_ptr<const swarm::SwarmController> controller_;
  swarm::CommModel comm_;
};

sim::MissionSpec test_mission() {
  sim::MissionConfig config;
  config.num_drones = 10;
  return sim::generate_mission(config, 77);
}

sim::SimulationConfig test_config(sim::VehicleType vehicle) {
  sim::SimulationConfig config;
  config.vehicle = vehicle;
  config.gps.noise_stddev = 0.4;  // nonzero so the GPS RNG stream matters
  return config;
}

void expect_bit_identical(const sim::RunResult& optimized,
                          const sim::RunResult& reference) {
  EXPECT_EQ(optimized.collided, reference.collided);
  EXPECT_EQ(optimized.reached_destination, reference.reached_destination);
  EXPECT_EQ(optimized.end_time, reference.end_time);
  ASSERT_EQ(optimized.first_collision.has_value(),
            reference.first_collision.has_value());
  if (optimized.first_collision) {
    EXPECT_EQ(optimized.first_collision->kind, reference.first_collision->kind);
    EXPECT_EQ(optimized.first_collision->time, reference.first_collision->time);
    EXPECT_EQ(optimized.first_collision->drone, reference.first_collision->drone);
    EXPECT_EQ(optimized.first_collision->other, reference.first_collision->other);
  }

  const sim::Recorder& a = optimized.recorder;
  const sim::Recorder& b = reference.recorder;
  EXPECT_EQ(a.duration(), b.duration());
  ASSERT_EQ(a.num_samples(), b.num_samples());
  ASSERT_EQ(a.num_drones(), b.num_drones());
  for (int s = 0; s < a.num_samples(); ++s) {
    EXPECT_EQ(a.times()[static_cast<size_t>(s)], b.times()[static_cast<size_t>(s)]);
    const std::span<const sim::DroneState> sa = a.sample(s);
    const std::span<const sim::DroneState> sb = b.sample(s);
    for (int i = 0; i < a.num_drones(); ++i) {
      const sim::DroneState& da = sa[static_cast<size_t>(i)];
      const sim::DroneState& db = sb[static_cast<size_t>(i)];
      ASSERT_EQ(da.position.x, db.position.x) << "sample " << s << " drone " << i;
      ASSERT_EQ(da.position.y, db.position.y) << "sample " << s << " drone " << i;
      ASSERT_EQ(da.position.z, db.position.z) << "sample " << s << " drone " << i;
      ASSERT_EQ(da.velocity.x, db.velocity.x) << "sample " << s << " drone " << i;
      ASSERT_EQ(da.velocity.y, db.velocity.y) << "sample " << s << " drone " << i;
      ASSERT_EQ(da.velocity.z, db.velocity.z) << "sample " << s << " drone " << i;
    }
  }
  for (int i = 0; i < a.num_drones(); ++i) {
    EXPECT_EQ(a.min_obstacle_distance(i), b.min_obstacle_distance(i)) << i;
    EXPECT_EQ(a.time_of_min_obstacle_distance(i),
              b.time_of_min_obstacle_distance(i))
        << i;
  }
}

void run_equivalence(sim::VehicleType vehicle, const swarm::CommConfig& comm) {
  const sim::MissionSpec mission = test_mission();
  const sim::Simulator simulator(test_config(vehicle));

  swarm::FlockingControlSystem optimized(
      std::make_shared<swarm::VasarhelyiController>(), comm);
  ReferenceControlSystem reference(
      std::make_shared<swarm::VasarhelyiController>(), comm);

  const sim::RunResult a = simulator.run(mission, optimized);
  const sim::RunResult b = simulator.run(mission, reference);
  expect_bit_identical(a, b);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// RAII save/restore for the process-wide spatial-grid policy.
class GridPolicyScope {
 public:
  GridPolicyScope(bool enabled, int min_drones)
      : saved_(swarm::spatial_grid_policy()) {
    swarm::spatial_grid_policy() = {enabled, min_drones};
  }
  ~GridPolicyScope() { swarm::spatial_grid_policy() = saved_; }

 private:
  swarm::SpatialGridPolicy saved_;
};

// A swarm large enough that spatial culling genuinely prunes work (the
// 50 m default box cannot hold 40 drones at 8 m separation, so widen it).
sim::MissionSpec large_mission() {
  sim::MissionConfig config;
  config.num_drones = 40;
  config.spawn_range = 120.0;
  return sim::generate_mission(config, 91);
}

// The spatial grid claims to be a pure accelerator: every candidate set is
// a conservative superset re-filtered by the exact original test, in the
// original visit order. Hold it to that by running the SAME control system
// over a full mission with the grid forced on and forced off — collision
// events, recorder samples and RNG-dependent packet drops must all agree
// bitwise.
void run_grid_equivalence(std::shared_ptr<const swarm::SwarmController> controller,
                          sim::VehicleType vehicle, const swarm::CommConfig& comm) {
  const sim::MissionSpec mission = large_mission();
  const sim::Simulator simulator(test_config(vehicle));
  swarm::FlockingControlSystem system(std::move(controller), comm);

  sim::RunResult with_grid = [&] {
    const GridPolicyScope scope(true, 2);
    return simulator.run(mission, system);
  }();
  sim::RunResult without = [&] {
    const GridPolicyScope scope(false, 2);
    return simulator.run(mission, system);
  }();
  expect_bit_identical(with_grid, without);
}

TEST(SpatialGridEquivalence, VasarhelyiTrivialComm) {
  run_grid_equivalence(std::make_shared<swarm::VasarhelyiController>(),
                       sim::VehicleType::kPointMass, {});
}

TEST(SpatialGridEquivalence, VasarhelyiRangeLimitedWithDrop) {
  run_grid_equivalence(std::make_shared<swarm::VasarhelyiController>(),
                       sim::VehicleType::kPointMass,
                       {.range = 40.0, .drop_probability = 0.15});
}

TEST(SpatialGridEquivalence, VasarhelyiQuadrotorPacketDrop) {
  run_grid_equivalence(std::make_shared<swarm::VasarhelyiController>(),
                       sim::VehicleType::kQuadrotor,
                       {.range = kInf, .drop_probability = 0.3});
}

TEST(SpatialGridEquivalence, OlfatiSaberTrivialComm) {
  run_grid_equivalence(std::make_shared<swarm::OlfatiSaberController>(),
                       sim::VehicleType::kPointMass, {});
}

TEST(SpatialGridEquivalence, OlfatiSaberRangeLimitedWithDrop) {
  run_grid_equivalence(std::make_shared<swarm::OlfatiSaberController>(),
                       sim::VehicleType::kPointMass,
                       {.range = 40.0, .drop_probability = 0.15});
}

TEST(SimulatorPerfEquivalence, PointMassTrivialComm) {
  run_equivalence(sim::VehicleType::kPointMass, {});
}

TEST(SimulatorPerfEquivalence, PointMassPacketDrop) {
  run_equivalence(sim::VehicleType::kPointMass,
                  {.range = kInf, .drop_probability = 0.3});
}

TEST(SimulatorPerfEquivalence, PointMassRangeLimitedWithDrop) {
  run_equivalence(sim::VehicleType::kPointMass,
                  {.range = 40.0, .drop_probability = 0.15});
}

TEST(SimulatorPerfEquivalence, QuadrotorTrivialComm) {
  run_equivalence(sim::VehicleType::kQuadrotor, {});
}

TEST(SimulatorPerfEquivalence, QuadrotorRangeLimitedWithDrop) {
  run_equivalence(sim::VehicleType::kQuadrotor,
                  {.range = 40.0, .drop_probability = 0.15});
}

TEST(SimulatorPerfEquivalence, SteadyStateControlComputeDoesNotAllocate) {
  const sim::MissionSpec mission = test_mission();
  const int n = mission.num_drones();

  sim::WorldSnapshot snapshot;
  snapshot.time = 1.0;
  snapshot.resize(n);
  for (int i = 0; i < n; ++i) {
    snapshot.id[static_cast<size_t>(i)] = i;
    snapshot.gps_position[static_cast<size_t>(i)] =
        mission.initial_positions[static_cast<size_t>(i)];
    snapshot.velocity[static_cast<size_t>(i)] = sim::Vec3{1.0, 0.5, 0.0};
  }
  std::vector<sim::Vec3> desired(static_cast<size_t>(n));

  swarm::FlockingControlSystem batch(
      std::make_shared<swarm::VasarhelyiController>(), swarm::CommConfig{});
  batch.reset(mission, 123);
  swarm::FlockingControlSystem filtered(
      std::make_shared<swarm::VasarhelyiController>(),
      swarm::CommConfig{.range = 40.0, .drop_probability = 0.1});
  filtered.reset(mission, 9);

  // Warm-up grows every scratch buffer to its steady-state capacity.
  for (int it = 0; it < 8; ++it) {
    batch.compute(snapshot, mission, desired);
    filtered.compute(snapshot, mission, desired);
  }

  const std::uint64_t before = g_allocation_count.load();
  for (int it = 0; it < 200; ++it) {
    batch.compute(snapshot, mission, desired);
    filtered.compute(snapshot, mission, desired);
  }
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "steady-state control loop allocated";
}

TEST(SimulatorPerfEquivalence, SteadyStateGridPathDoesNotAllocate) {
  const GridPolicyScope scope(true, 2);  // force the grid paths for n = 10
  const sim::MissionSpec mission = test_mission();
  const int n = mission.num_drones();

  sim::WorldSnapshot snapshot;
  snapshot.time = 1.0;
  snapshot.resize(n);
  for (int i = 0; i < n; ++i) {
    snapshot.id[static_cast<size_t>(i)] = i;
    snapshot.gps_position[static_cast<size_t>(i)] =
        mission.initial_positions[static_cast<size_t>(i)];
    snapshot.velocity[static_cast<size_t>(i)] = sim::Vec3{1.0, 0.5, 0.0};
  }
  std::vector<sim::Vec3> desired(static_cast<size_t>(n));

  swarm::FlockingControlSystem batch(
      std::make_shared<swarm::VasarhelyiController>(), swarm::CommConfig{});
  batch.reset(mission, 123);
  swarm::FlockingControlSystem filtered(
      std::make_shared<swarm::VasarhelyiController>(),
      swarm::CommConfig{.range = 40.0, .drop_probability = 0.1});
  filtered.reset(mission, 9);

  // Warm-up grows grid buffers and gather scratch to steady-state capacity.
  for (int it = 0; it < 8; ++it) {
    batch.compute(snapshot, mission, desired);
    filtered.compute(snapshot, mission, desired);
  }

  const std::uint64_t before = g_allocation_count.load();
  for (int it = 0; it < 200; ++it) {
    batch.compute(snapshot, mission, desired);
    filtered.compute(snapshot, mission, desired);
  }
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "steady-state grid-accelerated control loop allocated";
}

// The parallel tick path makes the same zero-allocation claim as the serial
// one: after warm-up (which grows every lane's scratch and each persistent
// worker's thread-local context), chunked compute() over a multi-thread
// WorkerPool performs no heap allocation — the generation handoff itself is
// allocation-free by construction.
TEST(ParallelTickAllocation, SteadyStateThreadedComputeDoesNotAllocate) {
  const GridPolicyScope scope(true, 2);  // force the grid paths for n = 40
  const sim::MissionSpec mission = large_mission();
  const int n = mission.num_drones();

  sim::WorldSnapshot snapshot;
  snapshot.time = 1.0;
  snapshot.resize(n);
  for (int i = 0; i < n; ++i) {
    snapshot.id[static_cast<size_t>(i)] = i;
    snapshot.gps_position[static_cast<size_t>(i)] =
        mission.initial_positions[static_cast<size_t>(i)];
    snapshot.velocity[static_cast<size_t>(i)] = sim::Vec3{1.0, 0.5, 0.0};
  }
  std::vector<sim::Vec3> desired(static_cast<size_t>(n));

  util::WorkerPool pool(4);
  swarm::FlockingControlSystem batch(
      std::make_shared<swarm::VasarhelyiController>(), swarm::CommConfig{});
  batch.reset(mission, 123);
  batch.set_tick_pool(&pool);
  // Lossless range-limited comm: the serial filter_into() path, pool bound.
  swarm::FlockingControlSystem filtered(
      std::make_shared<swarm::VasarhelyiController>(),
      swarm::CommConfig{.range = 40.0, .drop_probability = 0.0});
  filtered.reset(mission, 9);
  filtered.set_tick_pool(&pool);

  for (int it = 0; it < 8; ++it) {
    batch.compute(snapshot, mission, desired);
    filtered.compute(snapshot, mission, desired);
  }

  const std::uint64_t before = g_allocation_count.load();
  for (int it = 0; it < 200; ++it) {
    batch.compute(snapshot, mission, desired);
    filtered.compute(snapshot, mission, desired);
  }
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "steady-state threaded control loop allocated";
}

}  // namespace
