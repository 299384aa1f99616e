// Tracing from outside the library: spans recorded around calls into its
// public functions, plus two decorators that time the layers the benchmark
// cannot wrap directly.
//
//   Tracer          in-memory spans of one driving thread (name, start, end,
//                   parent, mission index), written out when the run ends.
//   TimedController SwarmController decorator; busy-time and call-count
//                   accumulators per parent span kind, thread-safe because
//                   EvalPool workers share the controller.
//   TimedObjective  ObjectiveFunction decorator; one fuzz.objective.batch span
//                   per evaluate/evaluate_batch call.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/objective.h"
#include "swarm/controller.h"

namespace perfbench {

enum class SpanKind : int {
  kNone = 0,  // controller calls outside any span
  kMission,
  kCleanRun,
  kScheduleSeeds,
  kOptimize,
  kObjectiveBatch,
  kSimRun,
};
inline constexpr int kSpanKinds = 7;

[[nodiscard]] std::string_view span_name(SpanKind kind) noexcept;

// Nanoseconds on the steady clock since the first call in this process.
[[nodiscard]] std::int64_t now_ns() noexcept;

struct Span {
  SpanKind kind = SpanKind::kNone;
  int mission = -1;
  int parent = -1;  // index into the same tracer's spans, -1 for roots
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Busy time and call count of one accumulator slot.
struct Accumulated {
  double busy_s = 0.0;
  std::int64_t calls = 0;
};

class TimedController final : public swarmfuzz::swarm::SwarmController {
 public:
  explicit TimedController(
      std::shared_ptr<const swarmfuzz::swarm::SwarmController> inner);

  using SwarmController::desired_velocity;
  using SwarmController::desired_velocity_all;
  [[nodiscard]] swarmfuzz::swarm::Vec3 desired_velocity(
      const swarmfuzz::swarm::NeighborView& view,
      const swarmfuzz::swarm::MissionSpec& mission) const override;
  void desired_velocity_all(const swarmfuzz::swarm::WorldSnapshot& snapshot,
                            const swarmfuzz::swarm::MissionSpec& mission,
                            std::span<swarmfuzz::swarm::Vec3> desired,
                            const swarmfuzz::swarm::TickExecutor& exec)
      const override;
  [[nodiscard]] double probe_influence_radius(
      const swarmfuzz::swarm::WorldSnapshot& snapshot,
      const swarmfuzz::swarm::MissionSpec& mission) const override;
  [[nodiscard]] std::string_view name() const noexcept override;

  // The span kind later calls are charged to. Set by the one thread that
  // drives this controller's missions; read by every thread that calls it.
  void set_parent(SpanKind kind) noexcept {
    parent_.store(static_cast<int>(kind), std::memory_order_relaxed);
  }
  // Calls charged to spans of `kind`, summed over threads.
  [[nodiscard]] Accumulated accumulated(SpanKind kind) const noexcept;

 private:
  void charge(std::int64_t start_ns) const noexcept;

  struct Slot {
    std::atomic<std::int64_t> busy_ns{0};
    std::atomic<std::int64_t> calls{0};
  };
  std::shared_ptr<const swarmfuzz::swarm::SwarmController> inner_;
  std::atomic<int> parent_{0};
  mutable std::array<Slot, kSpanKinds> slots_;
};

// Spans of one driving thread. Not thread-safe; one tracer per thread.
class Tracer {
 public:
  // `controller` (optional, borrowed) is told the innermost open span kind.
  explicit Tracer(TimedController* controller = nullptr)
      : controller_(controller) {}

  class Scope {
   public:
    Scope(Tracer& tracer, SpanKind kind, int mission);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  // Total duration of spans of `kind`, and the part of it not covered by
  // their direct children (self time).
  [[nodiscard]] double busy_s(SpanKind kind) const;
  [[nodiscard]] double self_s(SpanKind kind) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
  TimedController* controller_;
};

// Appends every span of `tracers` as one JSON object per line to `path`.
void write_spans(const std::string& path, std::span<const Tracer* const> tracers);

class TimedObjective final : public swarmfuzz::fuzz::ObjectiveFunction {
 public:
  TimedObjective(swarmfuzz::fuzz::ObjectiveFunction& inner, Tracer& tracer,
                 int mission)
      : inner_(inner), tracer_(tracer), mission_(mission) {}

  [[nodiscard]] swarmfuzz::fuzz::ObjectiveEval evaluate(double t_start,
                                                        double duration) override;
  void evaluate_batch(std::span<const swarmfuzz::fuzz::EvalRequest> batch,
                      const swarmfuzz::fuzz::BatchConsumer& consume) override;
  void project(double& t_start, double& duration) const override {
    inner_.project(t_start, duration);
  }

  [[nodiscard]] std::int64_t batches() const noexcept { return batches_; }
  [[nodiscard]] std::int64_t requests() const noexcept { return requests_; }

 private:
  swarmfuzz::fuzz::ObjectiveFunction& inner_;
  Tracer& tracer_;
  int mission_;
  std::int64_t batches_ = 0;
  std::int64_t requests_ = 0;
};

}  // namespace perfbench
