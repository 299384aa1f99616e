#include "fuzz/telemetry.h"

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "util/crc32.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/retry.h"

namespace swarmfuzz::fuzz {
namespace {

// --- CRC-32 record framing ------------------------------------------------
//
// The checksum is spliced in as the line's final member, so a framed line is
// `{...,"crc":"xxxxxxxx"}` and the checksummed payload is the same line with
// the crc member removed (i.e. what to_jsonl produced before framing). The
// member is matched positionally — it must end the line — and a `"crc"`
// substring inside a detail string is escaped (`\"crc\"`), so it can never be
// mistaken for it.

constexpr std::string_view kCrcPrefix = ",\"crc\":\"";
constexpr std::size_t kCrcHexLen = 8;

}  // namespace

std::string frame_with_crc(std::string line) {
  char hex[kCrcHexLen + 1];
  std::snprintf(hex, sizeof hex, "%08x", util::crc32(line));
  std::string member{kCrcPrefix};
  member.append(hex, kCrcHexLen);
  member.push_back('"');
  line.insert(line.size() - 1, member);
  return line;
}

void verify_crc_frame(std::string_view line) {
  // A framed line ends in the crc member: the last `,"crc":"`, then exactly
  // 8 lowercase hex digits, then the closing `"}`. Every writer frames its
  // records, so a line without that shape — unframed, or with a damaged
  // checksum — is rejected like a checksum mismatch.
  const auto mismatch = [] {
    throw std::invalid_argument("telemetry: record checksum mismatch");
  };
  const std::size_t member = line.rfind(kCrcPrefix);
  const std::size_t value_begin = member + kCrcPrefix.size();
  if (member == std::string_view::npos || !line.ends_with("\"}") ||
      line.size() != value_begin + kCrcHexLen + 2) {
    mismatch();
  }
  std::uint32_t expected = 0;
  for (const char ch : line.substr(value_begin, kCrcHexLen)) {
    const int digit = ch >= '0' && ch <= '9'   ? ch - '0'
                      : ch >= 'a' && ch <= 'f' ? ch - 'a' + 10
                                               : -1;
    if (digit < 0) mismatch();
    expected = expected << 4 | static_cast<std::uint32_t>(digit);
  }
  const std::string_view body = line.substr(0, member);
  const std::uint32_t actual =
      util::crc32_final(util::crc32_update(util::crc32_update(util::crc32_init(), body), "}"));
  if (actual != expected) mismatch();
}

namespace {

using attack::direction_from_name;

void write_plan(util::JsonWriter& json, const attack::SpoofingPlan& plan) {
  json.begin_object();
  json.key("target");
  json.value(plan.target);
  json.key("direction");
  json.value(attack::direction_name(plan.direction));
  json.key("start_time");
  json.value_exact(plan.start_time);
  json.key("duration");
  json.value_exact(plan.duration);
  json.key("distance");
  json.value_exact(plan.distance);
  json.end_object();
}

attack::SpoofingPlan plan_from(const util::JsonValue& node) {
  attack::SpoofingPlan plan;
  plan.target = node.at("target").as_int();
  plan.direction = direction_from_name(node.at("direction").as_string());
  plan.start_time = node.at("start_time").as_double();
  plan.duration = node.at("duration").as_double();
  plan.distance = node.at("distance").as_double();
  return plan;
}

void write_attempt(util::JsonWriter& json, const SeedAttempt& attempt) {
  json.begin_object();
  json.key("target");
  json.value(attempt.seed.target);
  json.key("victim");
  json.value(attempt.seed.victim);
  json.key("direction");
  json.value(attack::direction_name(attempt.seed.direction));
  json.key("vdo");
  json.value_exact(attempt.seed.vdo);
  json.key("influence");
  json.value_exact(attempt.seed.influence);
  json.key("success");
  json.value(attempt.outcome.success);
  json.key("stalled");
  json.value(attempt.outcome.stalled);
  json.key("t_start");
  json.value_exact(attempt.outcome.t_start);
  json.key("duration");
  json.value_exact(attempt.outcome.duration);
  json.key("best_f");
  json.value_exact(attempt.outcome.best_f);
  json.key("crashed_drone");
  json.value(attempt.outcome.crashed_drone);
  json.key("iterations");
  json.value(attempt.outcome.iterations);
  json.end_object();
}

SeedAttempt attempt_from(const util::JsonValue& node) {
  SeedAttempt attempt;
  attempt.seed.target = node.at("target").as_int();
  attempt.seed.victim = node.at("victim").as_int();
  attempt.seed.direction = direction_from_name(node.at("direction").as_string());
  attempt.seed.vdo = node.at("vdo").as_double();
  attempt.seed.influence = node.at("influence").as_double();
  attempt.outcome.success = node.at("success").as_bool();
  attempt.outcome.stalled = node.at("stalled").as_bool();
  attempt.outcome.t_start = node.at("t_start").as_double();
  attempt.outcome.duration = node.at("duration").as_double();
  attempt.outcome.best_f = node.at("best_f").as_double();
  attempt.outcome.crashed_drone = node.at("crashed_drone").as_int();
  attempt.outcome.iterations = node.at("iterations").as_int();
  return attempt;
}

void write_result(util::JsonWriter& json, const FuzzResult& result) {
  json.begin_object();
  json.key("clean_run_failed");
  json.value(result.clean_run_failed);
  json.key("found");
  json.value(result.found);
  json.key("victim");
  json.value(result.victim);
  json.key("victim_vdo");
  json.value_exact(result.victim_vdo);
  json.key("iterations");
  json.value(result.iterations);
  json.key("simulations");
  json.value(result.simulations);
  json.key("sim_steps_executed");
  json.value(result.sim_steps_executed);
  json.key("prefix_steps_reused");
  json.value(result.prefix_steps_reused);
  json.key("attempts_tried");
  json.value(result.attempts_tried);
  json.key("no_seeds");
  json.value(result.no_seeds);
  // E_Fuzz corpus accounting, written only when the search populated a
  // corpus so records from the other fuzzers stay byte-identical with files
  // written before the evolutionary schema existed.
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
  json.value_exact(result.mission_vdo);
  json.key("clean_mission_time");
  json.value_exact(result.clean_mission_time);
  json.key("plan");
  write_plan(json, result.plan);
  json.key("attempts");
  json.begin_array();
  for (const SeedAttempt& attempt : result.attempts) write_attempt(json, attempt);
  json.end_array();
  json.end_object();
}

FuzzResult result_from(const util::JsonValue& node) {
  FuzzResult result;
  result.clean_run_failed = node.at("clean_run_failed").as_bool();
  result.found = node.at("found").as_bool();
  result.victim = node.at("victim").as_int();
  result.victim_vdo = node.at("victim_vdo").as_double();
  result.iterations = node.at("iterations").as_int();
  result.simulations = node.at("simulations").as_int();
  result.sim_steps_executed = node.at("sim_steps_executed").as_int64();
  result.prefix_steps_reused = node.at("prefix_steps_reused").as_int64();
  result.attempts_tried = node.at("attempts_tried").as_int();
  result.no_seeds = node.at("no_seeds").as_bool();
  // Written only when the search populated a corpus (see write_result).
  if (const util::JsonValue* corpus_size = node.find("corpus_size");
      corpus_size != nullptr) {
    result.corpus_size = corpus_size->as_int();
    result.novelty_bins = node.at("novelty_bins").as_int();
    result.corpus_admissions = node.at("corpus_admissions").as_int();
  }
  result.eval_batches = node.at("eval_batches").as_int();
  result.eval_parallelism = node.at("eval_parallelism").as_int();
  result.mission_vdo = node.at("mission_vdo").as_double();
  result.clean_mission_time = node.at("clean_mission_time").as_double();
  result.plan = plan_from(node.at("plan"));
  const util::JsonValue& attempts = node.at("attempts");
  result.attempts.reserve(attempts.size());
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    result.attempts.push_back(attempt_from(attempts.at(i)));
  }
  return result;
}

}  // namespace

std::string to_jsonl(const TelemetryRecord& record) {
  util::JsonWriter json;
  json.begin_object();
  json.key("v");
  json.value(record.schema_version);
  json.key("index");
  json.value(record.mission_index);
  json.key("fuzzer");
  json.value(record.fuzzer);
  json.key("config");
  json.value(record.config_hash);
  // Seeds are 64-bit; JSON numbers only guarantee 53 bits, so stringify.
  json.key("seed");
  json.value(std::to_string(record.mission_seed));
  json.key("wall_time_s");
  json.value_exact(record.wall_time_s);
  json.key("result");
  write_result(json, record.result);
  // Written only when faulted, so fault-free records stay byte-identical
  // with files written before the fault schema existed.
  if (record.fault != sim::FaultKind::kNone) {
    json.key("fault");
    json.value(sim::fault_kind_name(record.fault));
    json.key("fault_detail");
    json.value(record.fault_detail);
    json.key("fault_attempts");
    json.value(record.fault_attempts);
  }
  json.end_object();
  return frame_with_crc(json.str());
}

TelemetryRecord telemetry_record_from_json(std::string_view line) {
  verify_crc_frame(line);
  const util::JsonValue root = util::parse_json(line);
  TelemetryRecord record;
  record.schema_version = root.at("v").as_int();
  if (record.schema_version != 1) {
    throw std::invalid_argument("telemetry: unsupported schema version " +
                                std::to_string(record.schema_version));
  }
  record.mission_index = root.at("index").as_int();
  record.fuzzer = root.at("fuzzer").as_string();
  // Optional here so a record written before the member existed still
  // loads; run_campaign refuses to resume from one.
  if (const util::JsonValue* config = root.find("config"); config != nullptr) {
    record.config_hash = config->as_string();
  }
  const std::string& seed_text = root.at("seed").as_string();
  record.mission_seed = std::stoull(seed_text);
  record.wall_time_s = root.at("wall_time_s").as_double();
  record.result = result_from(root.at("result"));
  if (const util::JsonValue* fault = root.find("fault"); fault != nullptr) {
    record.fault = sim::fault_kind_from_name(fault->as_string());
    record.fault_detail = root.at("fault_detail").as_string();
    record.fault_attempts = root.at("fault_attempts").as_int();
  }
  return record;
}

namespace {

// The whole content of `path`; nullopt when it cannot be opened (missing).
std::optional<std::string> read_whole_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::string content;
  char buffer[1 << 14];
  std::size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    content.append(buffer, read);
  }
  std::fclose(file);
  return content;
}

// Truncates an unterminated final line (a write that never finished) so
// appending resumes on a line boundary. Without this, the next append would
// glue a fresh record onto the torn fragment, turning the recoverable crash
// signature into an unrecoverable corrupt complete line. A missing or
// non-regular file is left alone: a pipe or a device has no tail to heal,
// and reading one can block forever (a pipe's read end is the reader's) or
// never end (/dev/full).
void heal_torn_tail(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) return;
  const std::optional<std::string> content = read_whole_file(path);
  if (!content || content->empty() || content->back() == '\n') return;
  const std::size_t last_newline = content->rfind('\n');
  const std::size_t keep = last_newline == std::string::npos ? 0 : last_newline + 1;
  SWARMFUZZ_WARN("telemetry: {} ends mid-record; truncating {} torn bytes",
                 path, content->size() - keep);
  std::filesystem::resize_file(path, keep, ec);
  if (ec) {
    throw util::IoError("telemetry: cannot truncate torn tail of " + path +
                            ": " + ec.message(),
                        ec.value());
  }
}

void append_jsonl_line_once(const std::string& path, std::string_view line) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    throw util::IoError("telemetry: cannot open " + path + " for append",
                        errno);
  }
  // Line and newline go out in one write: a crash cannot leave a record
  // without its terminator the way a separate newline write could.
  std::string framed{line};
  framed.push_back('\n');
  const bool ok =
      std::fwrite(framed.data(), 1, framed.size(), file) == framed.size() &&
      std::fflush(file) == 0;
  const int write_errno = errno;
  const bool closed = std::fclose(file) == 0;
  if (!ok) {
    throw util::IoError("telemetry: short write to " + path, write_errno);
  }
  if (!closed) {
    throw util::IoError("telemetry: cannot close " + path, errno);
  }
}

}  // namespace

void append_jsonl_line(const std::string& path, std::string_view line) {
  // A failed attempt may have landed a prefix of the record (a torn,
  // unterminated tail). Re-appending on top of it would glue two fragments
  // into a corrupt *complete* line — unrecoverable — so every retry heals
  // the tail back to a line boundary first.
  bool retrying = false;
  util::io_retrier().run("append_jsonl", [&] {
    if (retrying) heal_torn_tail(path);
    retrying = true;
    append_jsonl_line_once(path, line);
  });
}

JsonlTelemetrySink::JsonlTelemetrySink(const std::string& path, bool append)
    : path_(path) {
  if (append) heal_torn_tail(path);
  std::FILE* file = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (file == nullptr) {
    throw std::runtime_error("telemetry: cannot open " + path + " for writing");
  }
  std::fclose(file);
}

void JsonlTelemetrySink::record(const TelemetryRecord& record) {
  const std::string line = to_jsonl(record);
  const std::lock_guard<std::mutex> lock(mutex_);
  append_jsonl_line(path_, line);
}

void replay_jsonl(const std::string& path, std::string_view stream,
                  const std::function<void(std::string_view)>& parse_line) {
  const std::optional<std::string> content = read_whole_file(path);
  if (!content) return;
  const std::string_view text{*content};
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    const bool complete = end != std::string_view::npos;
    if (!complete) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    try {
      parse_line(line);
    } catch (const std::exception& e) {
      // Records never contain a raw newline, so a crash mid-write can only
      // tear the newline-terminated suffix of the file: a malformed final
      // line without '\n' is the expected crash signature and is skipped.
      // A malformed *complete* line means the file is corrupt, and resuming
      // from it would silently drop missions.
      if (complete) {
        throw std::runtime_error(std::string{stream} + ": corrupt record in " +
                                 path + ": " + e.what());
      }
      SWARMFUZZ_WARN("{}: skipping torn final record in {} ({} bytes): {}",
                     stream, path, line.size(), e.what());
    }
  }
}

std::vector<TelemetryRecord> load_telemetry(const std::string& path) {
  std::vector<TelemetryRecord> records;
  replay_jsonl(path, "telemetry", [&records](std::string_view line) {
    records.push_back(telemetry_record_from_json(line));
  });
  return records;
}

}  // namespace swarmfuzz::fuzz
