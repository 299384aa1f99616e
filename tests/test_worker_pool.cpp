// WorkerPool unit tests plus the golden ParallelTick suite (DESIGN.md §15).
//
// parallel_for's contract is *bit-identical* parallelism: static contiguous
// chunks whose boundaries depend only on (n, threads), caller-inline lane 0,
// and serial-order error surfacing; for_each runs every index exactly once
// from a claim cursor. The unit tests pin the chunking, claiming, reuse,
// and exception semantics; the ParallelTick tests hold the whole simulator
// to the determinism claim — entire missions run with sim_threads = 1 and
// sim_threads = 4 must agree on every recorded sample, collision event and
// outcome, across vehicle models, communication models, and checkpoint
// resumption.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/simulator.h"
#include "swarm/comm.h"
#include "swarm/flocking_system.h"
#include "swarm/spatial_grid.h"
#include "swarm/vasarhelyi.h"
#include "util/worker_pool.h"

namespace {

using namespace swarmfuzz;

TEST(WorkerPool, ThreadsClampedToAtLeastOne) {
  EXPECT_EQ(util::WorkerPool(0).threads(), 1);
  EXPECT_EQ(util::WorkerPool(-3).threads(), 1);
  EXPECT_EQ(util::WorkerPool(4).threads(), 4);
}

// Every index in [0, n) is visited exactly once, chunks are contiguous, and
// lane order matches index order (lane boundaries are the static formula).
TEST(WorkerPool, PartitionsRangeExactlyOnce) {
  constexpr int kN = 100;
  util::WorkerPool pool(4);

  std::vector<std::atomic<int>> visits(kN);
  std::vector<int> lane_of(kN, -1);
  pool.parallel_for(kN, [&](int begin, int end, int lane) {
    ASSERT_LE(0, begin);
    ASSERT_LT(begin, end);
    ASSERT_LE(end, kN);
    for (int i = begin; i < end; ++i) {
      visits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      lane_of[static_cast<size_t>(i)] = lane;  // disjoint chunks: no race
    }
  });

  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
  // Static contiguous chunking implies lanes are non-decreasing over indices
  // and exactly [c*n/T, (c+1)*n/T) per lane.
  for (int i = 1; i < kN; ++i) {
    EXPECT_LE(lane_of[static_cast<size_t>(i - 1)], lane_of[static_cast<size_t>(i)]);
  }
  for (int i = 0; i < kN; ++i) {
    const int expected = lane_of[static_cast<size_t>(i)];
    const auto bound = [&](int lane) {
      return static_cast<int>((static_cast<long long>(kN) * lane) / 4);
    };
    EXPECT_GE(i, bound(expected));
    EXPECT_LT(i, bound(expected + 1));
  }
}

// n < threads leaves some lanes with empty chunks; coverage must still be
// exactly once and empty lanes must not be invoked.
TEST(WorkerPool, SmallRangeSkipsEmptyChunks) {
  util::WorkerPool pool(4);
  std::vector<std::atomic<int>> visits(2);
  std::atomic<int> invocations{0};
  pool.parallel_for(2, [&](int begin, int end, int /*lane*/) {
    invocations.fetch_add(1, std::memory_order_relaxed);
    ASSERT_LT(begin, end);
    for (int i = begin; i < end; ++i) {
      visits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(visits[0].load(), 1);
  EXPECT_EQ(visits[1].load(), 1);
  EXPECT_LE(invocations.load(), 2);
}

// The generation handoff supports arbitrary reuse: many batches through one
// pool, each fully completed before parallel_for returns.
TEST(WorkerPool, ReusableAcrossGenerations) {
  constexpr int kN = 64;
  util::WorkerPool pool(3);
  std::vector<int> data(kN, 0);
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(kN, [&](int begin, int end, int /*lane*/) {
      for (int i = begin; i < end; ++i) data[static_cast<size_t>(i)] += 1;
    });
  }
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(data[static_cast<size_t>(i)], 200) << "index " << i;
  }
}

// An exception from any lane is rethrown on the caller; when several lanes
// throw, the lowest lane wins — the error the serial loop would have hit
// first. The pool stays usable afterwards.
TEST(WorkerPool, RethrowsLowestLaneAndStaysUsable) {
  util::WorkerPool pool(4);
  try {
    pool.parallel_for(100, [&](int /*begin*/, int /*end*/, int lane) {
      if (lane == 1 || lane == 3) {
        throw std::runtime_error("lane " + std::to_string(lane));
      }
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane 1");
  }

  std::atomic<int> total{0};
  pool.parallel_for(100, [&](int begin, int end, int /*lane*/) {
    total.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 100);
}

// threads = 1 spawns no workers and runs the single chunk inline on the
// calling thread (lane 0, full range).
TEST(WorkerPool, SingleThreadRunsInline) {
  util::WorkerPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  pool.parallel_for(10, [&](int begin, int end, int lane) {
    ++calls;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 10);
    EXPECT_EQ(lane, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
}

// Lane 0 always runs on the caller even with workers present.
TEST(WorkerPool, CallerRunsLaneZero) {
  util::WorkerPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex m;
  std::vector<std::pair<int, bool>> seen;  // (lane, on_caller)
  pool.parallel_for(100, [&](int /*begin*/, int /*end*/, int lane) {
    const bool on_caller = std::this_thread::get_id() == caller;
    const std::lock_guard<std::mutex> lock(m);
    seen.emplace_back(lane, on_caller);
  });
  for (const auto& [lane, on_caller] : seen) {
    if (lane == 0) EXPECT_TRUE(on_caller);
  }
}

// for_each: every index runs exactly once even when job costs are so uneven
// that lanes claim very different numbers of jobs.
TEST(WorkerPool, ForEachRunsEveryIndexOnceWithUnevenCosts) {
  constexpr int kN = 200;
  util::WorkerPool pool(4);
  std::vector<std::atomic<int>> visits(kN);
  std::vector<std::atomic<int>> per_lane(4);
  pool.for_each(kN, [&](int i, int lane) {
    ASSERT_LE(0, lane);
    ASSERT_LT(lane, 4);
    if (i % 10 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200 * (i % 3 + 1)));
    }
    visits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    per_lane[static_cast<size_t>(lane)].fetch_add(1, std::memory_order_relaxed);
  });
  int total = 0;
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
  for (const std::atomic<int>& count : per_lane) total += count.load();
  EXPECT_EQ(total, kN);
}

// for_each's caller is lane 0 and claims jobs itself: every job a worker
// claims blocks until the caller has run one, so the batch only finishes if
// the caller takes part.
TEST(WorkerPool, ForEachCallerTakesPartAsLaneZero) {
  util::WorkerPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex m;
  std::condition_variable caller_done;
  bool caller_ran = false;
  std::atomic<bool> lane_mismatch{false};
  pool.for_each(64, [&](int /*i*/, int lane) {
    const bool on_caller = std::this_thread::get_id() == caller;
    if (on_caller != (lane == 0)) lane_mismatch.store(true);
    std::unique_lock lock(m);
    if (on_caller) {
      caller_ran = true;
      caller_done.notify_all();
    } else {
      caller_done.wait_for(lock, std::chrono::seconds(10),
                           [&] { return caller_ran; });
    }
  });
  EXPECT_TRUE(caller_ran);
  EXPECT_FALSE(lane_mismatch.load());
}

// A throwing job surfaces on the caller; the pool then runs a full batch
// again, every index exactly once.
TEST(WorkerPool, ForEachReusableAfterLaneThrows) {
  util::WorkerPool pool(3);
  EXPECT_THROW(pool.for_each(50,
                             [&](int i, int /*lane*/) {
                               if (i == 7) throw std::runtime_error("job 7");
                             }),
               std::runtime_error);

  std::vector<std::atomic<int>> visits(50);
  pool.for_each(50, [&](int i, int /*lane*/) {
    visits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

// ---------------------------------------------------------------------------
// ParallelTick: golden whole-mission bit-identity, sim_threads 1 vs 4.
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

// RAII save/restore for the process-wide spatial-grid policy (the parallel
// kernels live on the grid fast paths).
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

// 40 drones: above the spatial-grid min_drones so the pool engages, small
// enough that four full missions per test stay fast. max_time is shortened —
// determinism must hold at every tick, so a prefix of the mission is as
// strong a check as the whole and much cheaper.
sim::MissionSpec golden_mission() {
  sim::MissionConfig config;
  config.num_drones = 40;
  config.spawn_range = 120.0;
  config.max_time = 25.0;
  return sim::generate_mission(config, 91);
}

sim::SimulationConfig golden_config(sim::VehicleType vehicle, int sim_threads) {
  sim::SimulationConfig config;
  config.vehicle = vehicle;
  config.gps.noise_stddev = 0.4;  // nonzero so the GPS RNG stream matters
  config.sim_threads = sim_threads;
  return config;
}

void expect_bit_identical(const sim::RunResult& threaded,
                          const sim::RunResult& serial) {
  EXPECT_EQ(threaded.collided, serial.collided);
  EXPECT_EQ(threaded.reached_destination, serial.reached_destination);
  EXPECT_EQ(threaded.end_time, serial.end_time);
  ASSERT_EQ(threaded.first_collision.has_value(),
            serial.first_collision.has_value());
  if (threaded.first_collision) {
    EXPECT_EQ(threaded.first_collision->kind, serial.first_collision->kind);
    EXPECT_EQ(threaded.first_collision->time, serial.first_collision->time);
    EXPECT_EQ(threaded.first_collision->drone, serial.first_collision->drone);
    EXPECT_EQ(threaded.first_collision->other, serial.first_collision->other);
  }

  const sim::Recorder& a = threaded.recorder;
  const sim::Recorder& b = serial.recorder;
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

void run_thread_equivalence(sim::VehicleType vehicle,
                            const swarm::CommConfig& comm) {
  const GridPolicyScope scope(true, 2);
  const sim::MissionSpec mission = golden_mission();
  const sim::Simulator serial_sim(golden_config(vehicle, 1));
  const sim::Simulator threaded_sim(golden_config(vehicle, 4));

  swarm::FlockingControlSystem system(
      std::make_shared<swarm::VasarhelyiController>(), comm);

  const sim::RunResult serial = serial_sim.run(mission, system);
  const sim::RunResult threaded = threaded_sim.run(mission, system);
  expect_bit_identical(threaded, serial);
}

TEST(ParallelTick, PointMassTrivialComm) {
  run_thread_equivalence(sim::VehicleType::kPointMass, {});
}

// drop_probability = 0 with finite range: the serial filter_into() loop,
// with the pool bound for the run.
TEST(ParallelTick, PointMassLosslessRangeLimited) {
  run_thread_equivalence(sim::VehicleType::kPointMass,
                         {.range = 40.0, .drop_probability = 0.0});
}

// drop_probability > 0: receiver-order bernoulli draws in the serial filter
// loop with the pool bound — this pins the RNG stream alignment.
TEST(ParallelTick, PointMassRangeLimitedWithDrop) {
  run_thread_equivalence(sim::VehicleType::kPointMass,
                         {.range = 40.0, .drop_probability = 0.15});
}

TEST(ParallelTick, PointMassPacketDropInfiniteRange) {
  run_thread_equivalence(sim::VehicleType::kPointMass,
                         {.range = kInf, .drop_probability = 0.3});
}

TEST(ParallelTick, QuadrotorTrivialComm) {
  run_thread_equivalence(sim::VehicleType::kQuadrotor, {});
}

// Checkpoint/prefix-resume composes with intra-tick threading: a checkpoint
// captured by a serial run, resumed with sim_threads = 4, must reproduce the
// uninterrupted serial run bit-for-bit (the fuzzer's prefix-reuse path runs
// threaded simulators over serially-captured clean-run checkpoints).
TEST(ParallelTick, CheckpointResumeThreadedMatchesSerial) {
  const GridPolicyScope scope(true, 2);
  const sim::MissionSpec mission = golden_mission();
  const sim::Simulator serial_sim(
      golden_config(sim::VehicleType::kPointMass, 1));
  const sim::Simulator threaded_sim(
      golden_config(sim::VehicleType::kPointMass, 4));

  swarm::FlockingControlSystem system(
      std::make_shared<swarm::VasarhelyiController>(),
      swarm::CommConfig{.range = 40.0, .drop_probability = 0.15});

  class VectorSink final : public sim::CheckpointSink {
   public:
    void on_checkpoint(sim::SimulationCheckpoint&& checkpoint) override {
      checkpoints.push_back(std::move(checkpoint));
    }
    std::vector<sim::SimulationCheckpoint> checkpoints;
  };

  VectorSink sink;
  sim::RunHooks hooks;
  hooks.checkpoints = &sink;
  hooks.checkpoint_period = 5.0;
  const sim::RunResult serial = serial_sim.run(mission, system, hooks);
  ASSERT_GE(sink.checkpoints.size(), 2u);

  // Resume from a mid-mission checkpoint on the threaded simulator.
  const sim::SimulationCheckpoint& mid =
      sink.checkpoints[sink.checkpoints.size() / 2];
  const sim::RunResult resumed =
      threaded_sim.run_from(mid, serial.recorder, mission, system);
  expect_bit_identical(resumed, serial);
}

}  // namespace
