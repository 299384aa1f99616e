#include "trace.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::string_view span_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kNone: return "none";
    case SpanKind::kMission: return "mission";
    case SpanKind::kCleanRun: return "sim.clean_run";
    case SpanKind::kScheduleSeeds: return "fuzz.schedule_seeds";
    case SpanKind::kOptimize: return "fuzz.optimize";
    case SpanKind::kObjectiveBatch: return "fuzz.objective.batch";
    case SpanKind::kSimRun: return "sim.run";
  }
  return "unknown";
}

std::int64_t now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

TimedController::TimedController(
    std::shared_ptr<const swarmfuzz::swarm::SwarmController> inner)
    : inner_(std::move(inner)) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("TimedController: null controller");
  }
}

void TimedController::charge(std::int64_t start_ns) const noexcept {
  Slot& slot = slots_[static_cast<std::size_t>(parent_.load(std::memory_order_relaxed))];
  slot.busy_ns.fetch_add(now_ns() - start_ns, std::memory_order_relaxed);
  slot.calls.fetch_add(1, std::memory_order_relaxed);
}

swarmfuzz::swarm::Vec3 TimedController::desired_velocity(
    const swarmfuzz::swarm::NeighborView& view,
    const swarmfuzz::swarm::MissionSpec& mission) const {
  const std::int64_t start = now_ns();
  const swarmfuzz::swarm::Vec3 v = inner_->desired_velocity(view, mission);
  charge(start);
  return v;
}

void TimedController::desired_velocity_all(
    const swarmfuzz::swarm::WorldSnapshot& snapshot,
    const swarmfuzz::swarm::MissionSpec& mission,
    std::span<swarmfuzz::swarm::Vec3> desired,
    const swarmfuzz::swarm::TickExecutor& exec) const {
  const std::int64_t start = now_ns();
  inner_->desired_velocity_all(snapshot, mission, desired, exec);
  charge(start);
}

double TimedController::probe_influence_radius(
    const swarmfuzz::swarm::WorldSnapshot& snapshot,
    const swarmfuzz::swarm::MissionSpec& mission) const {
  return inner_->probe_influence_radius(snapshot, mission);
}

std::string_view TimedController::name() const noexcept { return inner_->name(); }

Accumulated TimedController::accumulated(SpanKind kind) const noexcept {
  const Slot& slot = slots_[static_cast<std::size_t>(kind)];
  return Accumulated{
      .busy_s = static_cast<double>(slot.busy_ns.load(std::memory_order_relaxed)) * 1e-9,
      .calls = slot.calls.load(std::memory_order_relaxed)};
}

Tracer::Scope::Scope(Tracer& tracer, SpanKind kind, int mission)
    : tracer_(tracer), index_(static_cast<int>(tracer.spans_.size())) {
  tracer_.spans_.push_back(Span{.kind = kind,
                                .mission = mission,
                                .parent = tracer_.open_,
                                .start_ns = now_ns(),
                                .end_ns = 0});
  tracer_.open_ = index_;
  if (tracer_.controller_ != nullptr) tracer_.controller_->set_parent(kind);
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  tracer_.open_ = span.parent;
  if (tracer_.controller_ != nullptr) {
    tracer_.controller_->set_parent(
        span.parent >= 0
            ? tracer_.spans_[static_cast<std::size_t>(span.parent)].kind
            : SpanKind::kNone);
  }
}

double Tracer::busy_s(SpanKind kind) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.kind == kind) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::self_s(SpanKind kind) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.kind == kind) ns += s.end_ns - s.start_ns;
    if (s.parent >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].kind == kind) {
      ns -= s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

void write_spans(const std::string& path, std::span<const Tracer* const> tracers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   "{\"thread\":%zu,\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                   "\"mission\":%d,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   t, i, s.parent, std::string(span_name(s.kind)).c_str(),
                   s.mission, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

swarmfuzz::fuzz::ObjectiveEval TimedObjective::evaluate(double t_start,
                                                        double duration) {
  const Tracer::Scope span(tracer_, SpanKind::kObjectiveBatch, mission_);
  ++batches_;
  ++requests_;
  return inner_.evaluate(t_start, duration);
}

void TimedObjective::evaluate_batch(
    std::span<const swarmfuzz::fuzz::EvalRequest> batch,
    const swarmfuzz::fuzz::BatchConsumer& consume) {
  const Tracer::Scope span(tracer_, SpanKind::kObjectiveBatch, mission_);
  ++batches_;
  requests_ += static_cast<std::int64_t>(batch.size());
  inner_.evaluate_batch(batch, consume);
}

}  // namespace perfbench
