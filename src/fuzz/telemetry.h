// Campaign telemetry: one machine-readable record per completed mission.
//
// Records serve two purposes:
//   1. Observability — a campaign is no longer a black box; every mission
//      outcome (seed, fuzzer, status, fault, iterations, simulations,
//      wall-clock) streams to a JSONL sink as it completes.
//   2. Durability — when `CampaignConfig.checkpoint_path` is set the same
//      records double as a crash-safe checkpoint and are the campaign's one
//      durable record of each mission, faulted ones included: each line is
//      appended and flushed in a single retried call, carries the campaign's
//      config hash and a CRC-32 of its own payload (a trailing `"crc"`
//      member), and a killed campaign resumes by replaying the file and
//      running only the missing mission indices. A torn final line — the
//      crash signature — is detected by the framing and skipped.
//
// Serialization is exact: doubles are written with %.17g (see
// JsonWriter::value_exact) so a record parsed back reconstructs the
// original FuzzResult bit-for-bit. The only non-deterministic field is
// wall_time_s, which is measured, not computed.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/fuzzer.h"
#include "sim/fault.h"

namespace swarmfuzz::fuzz {

// One completed mission, as persisted to a telemetry/checkpoint stream.
struct TelemetryRecord {
  int schema_version = 1;
  int mission_index = -1;         // index within the campaign [0, num_missions)
  std::string fuzzer;             // fuzzer_kind_name() of the campaign's kind
  // campaign_config_hash() of the campaign that ran the mission, written as
  // the `"config"` member; a resume rejects a record whose hash is missing
  // or differs from its own. Empty when read from a record without one.
  std::string config_hash;
  std::uint64_t mission_seed = 0; // final (possibly retried) mission seed
  double wall_time_s = 0.0;       // wall-clock spent on this mission
  FuzzResult result;              // full outcome, including seed attempts
  // Fault containment (DESIGN.md section 11). kNone: the mission fuzzed
  // normally. Any other kind: the supervisor exhausted its fault retries and
  // recorded the mission as faulted (result is then default-constructed,
  // except kCleanRunFailed which keeps the clean-run accounting). Written
  // only when != kNone, so fault-free records are byte-identical with
  // pre-fault-schema files.
  sim::FaultKind fault = sim::FaultKind::kNone;
  std::string fault_detail;       // human-readable cause (empty when kNone)
  int fault_attempts = 0;         // fault retries consumed on this mission
};

// One JSONL line (no trailing newline), CRC-framed: the final member is
// `"crc":"<8 lowercase hex>"`, the CRC-32 of the line with that member
// removed. Doubles round-trip exactly.
[[nodiscard]] std::string to_jsonl(const TelemetryRecord& record);

// Parses one JSONL line. Throws std::invalid_argument when the line is not
// CRC-framed (see verify_crc_frame), is malformed — nesting deeper than
// util::parse_json accepts included — or lacks a field the writer always
// emits.
[[nodiscard]] TelemetryRecord telemetry_record_from_json(std::string_view line);

// Appends one line + '\n' to `path` in a single flushed write, creating the
// file if needed. Transient failures retry with backoff through
// util::io_retrier(), healing any torn tail the failed attempt left before
// re-appending; throws util::IoError once retries are exhausted or the
// error is permanent.
void append_jsonl_line(const std::string& path, std::string_view line);

// CRC-32 record framing, shared by every durable JSONL stream (telemetry,
// checkpoints, the E_Fuzz corpus). frame_with_crc splices the
// checksum in as the line's final member — `{...}` becomes
// `{...,"crc":"xxxxxxxx"}`, where the checksum covers the unframed line — so
// `line` must be a single-line JSON object. verify_crc_frame throws std::invalid_argument
// ("record checksum mismatch") unless the line ends in such a member whose
// value is exactly 8 lowercase hex digits matching the payload.
[[nodiscard]] std::string frame_with_crc(std::string line);
void verify_crc_frame(std::string_view line);

// Receives completed-mission records; implementations must be thread-safe
// (campaign workers call record() concurrently).
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void record(const TelemetryRecord& record) = 0;
};

// Thread-safe JSONL file sink. Every record() is one append_jsonl_line
// under the sink's mutex — open, one write of line + newline, flush, close,
// retried — so a crash loses at most the line being written, never a
// completed one. Opening in append mode first heals a torn tail: an
// unterminated final line (the previous process died mid-write) is
// truncated away so the next append starts on a line boundary instead of
// corrupting a complete line. Pipes and other non-regular files are never
// healed, so `/dev/stdout` works as a path.
class JsonlTelemetrySink final : public TelemetrySink {
 public:
  // `append` keeps existing records (resume), otherwise the file is
  // truncated; either way it is created if missing. Throws
  // std::runtime_error when it cannot be opened for writing.
  explicit JsonlTelemetrySink(const std::string& path, bool append = true);

  // Throws util::IoError (carrying errno) once append_jsonl_line gives up.
  void record(const TelemetryRecord& record) override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::mutex mutex_;
};

// The one loader of every durable JSONL stream (checkpoints, telemetry, the
// E_Fuzz corpus): hands each line of `path`, without its terminator and in
// file order, to `parse_line`. A line that fails to parse is skipped with a
// warning when it is the unterminated final line (the write a crash
// interrupted); a failing *complete* line — a CRC mismatch included — means
// the file is corrupt and throws std::runtime_error naming `stream` and
// `path`. A missing file replays nothing.
void replay_jsonl(const std::string& path, std::string_view stream,
                  const std::function<void(std::string_view)>& parse_line);

// replay_jsonl over telemetry records: every well-formed record of `path`.
[[nodiscard]] std::vector<TelemetryRecord> load_telemetry(const std::string& path);

}  // namespace swarmfuzz::fuzz
