#include "fuzz/serialize.h"

#include <string>

#include "math/stats.h"
#include "util/json.h"
#include "util/retry.h"

namespace swarmfuzz::fuzz {
namespace {

void write_plan(util::JsonWriter& json, const attack::SpoofingPlan& plan) {
  json.begin_object();
  json.key("target");
  json.value(plan.target);
  json.key("direction");
  json.value(attack::direction_name(plan.direction));
  json.key("start_time");
  json.value(plan.start_time);
  json.key("duration");
  json.value(plan.duration);
  json.key("distance");
  json.value(plan.distance);
  json.end_object();
}

void write_result_fields(util::JsonWriter& json, const FuzzResult& result) {
  json.key("clean_run_failed");
  json.value(result.clean_run_failed);
  json.key("found");
  json.value(result.found);
  json.key("iterations");
  json.value(result.iterations);
  json.key("simulations");
  json.value(result.simulations);
  json.key("attempts_tried");
  json.value(result.attempts_tried);
  if (result.no_seeds) {
    json.key("no_seeds");
    json.value(true);
  }
  // E_Fuzz corpus accounting; present only when a corpus was populated.
  if (result.corpus_admissions > 0 || result.corpus_size > 0 ||
      result.novelty_bins > 0) {
    json.key("corpus_size");
    json.value(result.corpus_size);
    json.key("novelty_bins");
    json.value(result.novelty_bins);
    json.key("corpus_admissions");
    json.value(result.corpus_admissions);
  }
  json.key("eval_batches");
  json.value(result.eval_batches);
  json.key("eval_parallelism");
  json.value(result.eval_parallelism);
  json.key("mission_vdo");
  json.value(result.mission_vdo);
  json.key("clean_mission_time");
  json.value(result.clean_mission_time);
  if (result.found) {
    json.key("victim");
    json.value(result.victim);
    json.key("victim_vdo");
    json.value(result.victim_vdo);
    json.key("plan");
    write_plan(json, result.plan);
  }
}

}  // namespace

std::string to_json(const FuzzResult& result) {
  util::JsonWriter json;
  json.begin_object();
  write_result_fields(json, result);
  json.key("attempts");
  json.begin_array();
  for (const SeedAttempt& attempt : result.attempts) {
    json.begin_object();
    json.key("target");
    json.value(attempt.seed.target);
    json.key("victim");
    json.value(attempt.seed.victim);
    json.key("direction");
    json.value(attack::direction_name(attempt.seed.direction));
    json.key("vdo");
    json.value(attempt.seed.vdo);
    json.key("influence");
    json.value(attempt.seed.influence);
    json.key("iterations");
    json.value(attempt.outcome.iterations);
    json.key("best_f");
    json.value(attempt.outcome.best_f);
    json.key("success");
    json.value(attempt.outcome.success);
    json.key("stalled");
    json.value(attempt.outcome.stalled);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::string to_json(const CampaignResult& result) {
  util::JsonWriter json;
  json.begin_object();
  json.key("fuzzer");
  json.value(fuzzer_kind_name(result.config.kind));
  json.key("num_drones");
  json.value(result.config.mission.num_drones);
  json.key("spoof_distance");
  json.value(result.config.fuzzer.spoof_distance);
  json.key("num_missions");
  json.value(static_cast<int>(result.outcomes.size()));

  json.key("success_rate");
  json.value(result.success_rate());
  const auto ci = math::wilson_interval(result.num_found(), result.num_fuzzable());
  json.key("success_rate_ci95");
  json.begin_array();
  json.value(ci.low);
  json.value(ci.high);
  json.end_array();
  json.key("avg_iterations_all");
  json.value(result.avg_iterations_all());
  json.key("avg_iterations_successful");
  json.value(result.avg_iterations_successful());

  json.key("avg_attempts_all");
  json.value(result.avg_attempts_all());
  json.key("num_no_seeds");
  json.value(result.num_no_seeds());

  json.key("num_faulted");
  json.value(result.num_faulted());
  json.key("faults");
  json.begin_object();
  for (const sim::FaultKind kind :
       {sim::FaultKind::kNumericalDivergence, sim::FaultKind::kTimeout,
        sim::FaultKind::kException, sim::FaultKind::kCleanRunFailed}) {
    json.key(sim::fault_kind_name(kind));
    json.value(result.fault_count(kind));
  }
  json.end_object();

  // Transport-layer accounting (util/retry.h): how hard the durable-I/O
  // path had to work. Process-wide counters of the reporting process.
  const util::RetryCounters io = util::io_retrier().counters();
  json.key("io_retry");
  json.begin_object();
  json.key("attempts");
  json.value(std::to_string(io.attempts));
  json.key("retries");
  json.value(std::to_string(io.retries));
  json.key("exhausted");
  json.value(std::to_string(io.exhausted));
  json.key("permanent");
  json.value(std::to_string(io.permanent));
  json.end_object();

  json.key("missions");
  json.begin_array();
  for (const MissionOutcome& outcome : result.outcomes) {
    json.begin_object();
    json.key("index");
    json.value(outcome.mission_index);
    // Seeds are 64-bit; JSON numbers only guarantee 53 bits, so stringify.
    json.key("seed");
    json.value(std::to_string(outcome.mission_seed));
    json.key("completed");
    json.value(outcome.completed);
    json.key("wall_time_s");
    json.value(outcome.wall_time_s);
    if (outcome.fault != sim::FaultKind::kNone) {
      json.key("fault");
      json.value(sim::fault_kind_name(outcome.fault));
      json.key("fault_detail");
      json.value(outcome.fault_detail);
    }
    write_result_fields(json, outcome.result);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace swarmfuzz::fuzz
