#include "fuzz/telemetry.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <thread>

#include "fuzz/campaign.h"
#include "swarm/olfati_saber.h"
#include "util/retry.h"

namespace swarmfuzz::fuzz {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path{::testing::TempDir()} /
          ("swarmfuzz_telemetry_" + name))
      .string();
}

// Awkward doubles (non-terminating binary fractions, negatives, tiny
// magnitudes) that %.10g would mangle; %.17g must round-trip them exactly.
TelemetryRecord sample_record() {
  TelemetryRecord record;
  record.mission_index = 7;
  record.fuzzer = "SwarmFuzz";
  record.config_hash = "00c0ffee00c0ffee";
  record.mission_seed = 0xdeadbeefcafebabeull;
  record.wall_time_s = 1.0 / 3.0;
  record.result.found = true;
  record.result.victim = 4;
  record.result.victim_vdo = 0.1 + 0.2;
  record.result.iterations = 9;
  record.result.simulations = 41;
  // Beyond 32 bits, to exercise the int64 JSON path.
  record.result.sim_steps_executed = 123456789012345ll;
  record.result.prefix_steps_reused = 98765432109876ll;
  record.result.mission_vdo = 2.2250738585072014e-305;
  record.result.clean_mission_time = 98.30000000000001;
  record.result.plan = attack::SpoofingPlan{.target = 1,
                                            .direction = attack::SpoofDirection::kLeft,
                                            .start_time = 12.700000000000001,
                                            .duration = 1.0 / 7.0,
                                            .distance = 10.0};
  record.result.attempts.push_back(SeedAttempt{
      Seed{.target = 1, .victim = 4, .direction = attack::SpoofDirection::kLeft,
           .vdo = 2.25, .influence = 0.45000000000000007},
      OptimizationResult{.success = true, .stalled = false, .t_start = 12.5,
                         .duration = 8.0, .best_f = -0.010000000000000002,
                         .crashed_drone = 4, .iterations = 7}});
  record.result.attempts.push_back(SeedAttempt{
      Seed{.target = 3, .victim = 0, .direction = attack::SpoofDirection::kRight,
           .vdo = 1.0 / 3.0, .influence = -0.0},
      OptimizationResult{.success = false, .stalled = true, .t_start = 0.0,
                         .duration = 0.0, .best_f = 3.5, .crashed_drone = -1,
                         .iterations = 20}});
  return record;
}

MissionOutcome outcome_from(const TelemetryRecord& record) {
  return MissionOutcome{.mission_index = record.mission_index,
                        .completed = true,
                        .mission_seed = record.mission_seed,
                        .wall_time_s = record.wall_time_s,
                        .result = record.result};
}

TEST(Telemetry, JsonlRoundTripIsExact) {
  const TelemetryRecord original = sample_record();
  const std::string line = to_jsonl(original);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const TelemetryRecord parsed = telemetry_record_from_json(line);
  EXPECT_EQ(parsed.schema_version, original.schema_version);
  EXPECT_EQ(parsed.mission_index, original.mission_index);
  EXPECT_EQ(parsed.fuzzer, original.fuzzer);
  EXPECT_EQ(parsed.config_hash, original.config_hash);
  EXPECT_EQ(parsed.mission_seed, original.mission_seed);
  EXPECT_EQ(parsed.wall_time_s, original.wall_time_s);
  // deterministic_equal compares every FuzzResult field with exact ==.
  EXPECT_TRUE(deterministic_equal(outcome_from(original), outcome_from(parsed)));
  // And the round-trip is a fixed point at the text level too.
  EXPECT_EQ(to_jsonl(parsed), line);
}

TEST(Telemetry, StepCountersRoundTrip) {
  // deterministic_equal deliberately ignores the step counters (performance
  // accounting), so pin their round-trip explicitly.
  const TelemetryRecord original = sample_record();
  const TelemetryRecord parsed = telemetry_record_from_json(to_jsonl(original));
  EXPECT_EQ(parsed.result.sim_steps_executed, original.result.sim_steps_executed);
  EXPECT_EQ(parsed.result.prefix_steps_reused, original.result.prefix_steps_reused);
}

// Drops the trailing `,"crc":"xxxxxxxx"` member: the well-formed JSON of a
// record without its checksum.
std::string strip_crc_frame(std::string line) {
  const size_t begin = line.rfind(",\"crc\":\"");
  EXPECT_NE(begin, std::string::npos);
  line.erase(begin, line.size() - 1 - begin);  // keep the closing '}'
  return line;
}

// Expects `line` to be rejected with the checksum error.
void expect_checksum_mismatch(const std::string& line) {
  try {
    (void)telemetry_record_from_json(line);
    ADD_FAILURE() << "accepted: " << line;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("record checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Telemetry, RecordWithoutStepCountersIsRejected) {
  // The writer always emits the counters, so a record lacking them is
  // damaged even when its checksum covers the damage.
  std::string line = strip_crc_frame(to_jsonl(sample_record()));
  for (const std::string key : {"sim_steps_executed", "prefix_steps_reused"}) {
    const size_t begin = line.find("\"" + key + "\":");
    ASSERT_NE(begin, std::string::npos);
    const size_t end = line.find(',', begin) + 1;  // through trailing comma
    line.erase(begin, end - begin);
  }
  expect_checksum_mismatch(line);  // unframed
  EXPECT_THROW((void)telemetry_record_from_json(frame_with_crc(line)),
               std::invalid_argument);  // framed, but a counter is missing
}

TEST(Telemetry, RecordsAreCrcFramed) {
  const std::string line = to_jsonl(sample_record());
  // The checksum is the final member: 8 lowercase hex digits.
  ASSERT_GE(line.size(), 18u);
  EXPECT_EQ(line.substr(line.size() - 18, 8), ",\"crc\":\"");
  EXPECT_EQ(line.substr(line.size() - 2), "\"}");
  for (size_t i = line.size() - 10; i < line.size() - 2; ++i) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(line[i])));
  }
}

TEST(Telemetry, UnframedLineIsRejected) {
  expect_checksum_mismatch(strip_crc_frame(to_jsonl(sample_record())));
}

TEST(Telemetry, TrailingCrcMemberWithQuoteOrBackslashIsRejected) {
  // A last `,"crc":"` whose value holds a quote or backslash is no checksum
  // at all; it must not pass as an unchecked line.
  const std::string body = strip_crc_frame(to_jsonl(sample_record()));
  const std::string head = body.substr(0, body.size() - 1);  // drop '}'
  expect_checksum_mismatch(head + R"(,"crc":"ab"cd"})");
  expect_checksum_mismatch(head + R"(,"crc":"ab\cdef"})");
  expect_checksum_mismatch(head + R"(,"crc":"x","y":"1"})");
}

TEST(Telemetry, CorruptedFramedRecordIsRejected) {
  // Flip one payload byte while leaving the structure valid JSON: the
  // checksum must catch it even though a plain parse would succeed.
  std::string line = to_jsonl(sample_record());
  const size_t pos = line.find("\"simulations\":41");
  ASSERT_NE(pos, std::string::npos);
  line[pos + 15] = '2';  // 41 -> 42
  EXPECT_THROW((void)telemetry_record_from_json(line), std::invalid_argument);
}

TEST(Telemetry, NonHexChecksumDigitIsRejected) {
  // A damaged checksum digit must not turn the line into an unchecked
  // legacy record.
  const std::string line = to_jsonl(sample_record());
  for (const char bad : {'g', 'p', 'A', ' '}) {
    std::string damaged = line;
    damaged[damaged.size() - 3] = bad;
    EXPECT_THROW((void)telemetry_record_from_json(damaged), std::invalid_argument)
        << bad;
  }
  // Neither is a checksum of the wrong length.
  std::string shorter = line;
  shorter.erase(shorter.size() - 3, 1);
  EXPECT_THROW((void)telemetry_record_from_json(shorter), std::invalid_argument);
  std::string longer = line;
  longer.insert(longer.size() - 2, "0");
  EXPECT_THROW((void)telemetry_record_from_json(longer), std::invalid_argument);
}

TEST(Telemetry, DeeplyNestedLineThrowsInsteadOfOverflowing) {
  EXPECT_THROW((void)telemetry_record_from_json(std::string(200000, '[')),
               std::invalid_argument);
}

TEST(Telemetry, FaultFieldsRoundTripAndStayOffCleanRecords) {
  // Fault-free records must remain byte-compatible with the pre-fault
  // schema: no fault members at all.
  const std::string clean_line = to_jsonl(sample_record());
  EXPECT_EQ(clean_line.find("\"fault\""), std::string::npos);

  TelemetryRecord faulted = sample_record();
  faulted.fault = sim::FaultKind::kTimeout;
  faulted.fault_detail = "wall-clock deadline exceeded";
  faulted.fault_attempts = 3;
  const TelemetryRecord parsed = telemetry_record_from_json(to_jsonl(faulted));
  EXPECT_EQ(parsed.fault, sim::FaultKind::kTimeout);
  EXPECT_EQ(parsed.fault_detail, faulted.fault_detail);
  EXPECT_EQ(parsed.fault_attempts, 3);
}

TEST(Telemetry, CrcValidRecordWithShardMemberStillLoads) {
  // Records written by sharded campaigns carried a "shard" member. The
  // member is no longer written, but a CRC-valid record holding one must
  // still load — from a string and from a checkpoint file — so such
  // checkpoints still resume.
  const std::string plain_line = to_jsonl(sample_record());
  EXPECT_EQ(plain_line.find("\"shard\""), std::string::npos);
  std::string body = strip_crc_frame(plain_line);
  const size_t result_key = body.find("\"result\":");
  ASSERT_NE(result_key, std::string::npos);
  body.insert(result_key, "\"shard\":5,");
  const std::string line = frame_with_crc(body);

  const TelemetryRecord parsed = telemetry_record_from_json(line);
  EXPECT_TRUE(deterministic_equal(outcome_from(sample_record()),
                                  outcome_from(parsed)));
  EXPECT_EQ(to_jsonl(parsed), plain_line);  // rewritten without the member

  const std::string path = temp_path("shard_member.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << line << '\n';
  }
  const std::vector<TelemetryRecord> loaded = load_telemetry(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(to_jsonl(loaded[0]), plain_line);
  std::remove(path.c_str());
}

TEST(Telemetry, NonFiniteMissionVdoRoundTripsAsNull) {
  // A diverged clean run records mission_vdo = NaN; the line must stay
  // valid JSON (null, not a bare nan token) and read back as NaN.
  TelemetryRecord record = sample_record();
  record.result.mission_vdo = std::numeric_limits<double>::quiet_NaN();
  const std::string line = to_jsonl(record);
  EXPECT_EQ(line.find("nan"), std::string::npos);
  EXPECT_NE(line.find("\"mission_vdo\":null"), std::string::npos);
  const TelemetryRecord parsed = telemetry_record_from_json(line);
  EXPECT_TRUE(std::isnan(parsed.result.mission_vdo));
}

TEST(Telemetry, LoadersRejectUnframedAndBadChecksumLines) {
  // A complete line that is unframed, or whose checksum does not match, is
  // corruption.
  const auto bad_checksum = [](std::string line) {
    line[line.size() - 3] = line[line.size() - 3] == '0' ? '1' : '0';
    return line;
  };
  const std::string telemetry_line = to_jsonl(sample_record());
  const std::string path = temp_path("reject.jsonl");
  for (const std::string& bad :
       {strip_crc_frame(telemetry_line), bad_checksum(telemetry_line)}) {
    std::remove(path.c_str());
    append_jsonl_line(path, telemetry_line);
    append_jsonl_line(path, bad);
    EXPECT_THROW((void)load_telemetry(path), std::runtime_error) << bad;
  }
  std::remove(path.c_str());
}

TEST(Telemetry, MalformedLineThrows) {
  EXPECT_THROW((void)telemetry_record_from_json("{\"v\":1"), std::invalid_argument);
  EXPECT_THROW((void)telemetry_record_from_json("{}"), std::invalid_argument);
  EXPECT_THROW((void)telemetry_record_from_json("{\"v\":99}"),
               std::invalid_argument);
}

TEST(Telemetry, SinkWritesOneLinePerRecord) {
  const std::string path = temp_path("sink.jsonl");
  {
    JsonlTelemetrySink sink(path, /*append=*/false);
    TelemetryRecord record = sample_record();
    sink.record(record);
    record.mission_index = 8;
    sink.record(record);
  }
  const auto records = load_telemetry(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].mission_index, 7);
  EXPECT_EQ(records[1].mission_index, 8);
  std::remove(path.c_str());
}

// A record the device refuses (ENOSPC on /dev/full, at the flush) is
// retried through util::io_retrier() and then thrown, not dropped; the
// campaign worker's catch then stops the campaign.
TEST(Telemetry, SinkWriteFailureThrowsIoError) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  util::IoRetrier& retrier = util::io_retrier();
  retrier.reset();
  retrier.set_sleep([](std::int64_t) {});
  int code = 0;
  try {
    JsonlTelemetrySink sink("/dev/full", /*append=*/false);
    sink.record(sample_record());
  } catch (const util::IoError& e) {
    code = e.code();
  }
  const util::RetryCounters counters = retrier.counters();
  const int max_attempts = retrier.policy().max_attempts;
  retrier.set_sleep({});
  retrier.reset();

  EXPECT_EQ(code, ENOSPC) << "record() on a full device must throw ENOSPC";
  EXPECT_EQ(counters.attempts, max_attempts);
  EXPECT_EQ(counters.retries, max_attempts - 1);
  EXPECT_EQ(counters.exhausted, 1);
}

// An append-mode sink on a pipe writes to it and never reads it:
// `campaign --telemetry=/dev/stdout | cat` hung when the torn-tail heal
// read the sink's own output pipe. tests/CMakeLists.txt gives this test a
// short ctest TIMEOUT, so such a hang fails fast.
TEST(Telemetry, AppendSinkWritesToFifoWithoutReadingIt) {
  const std::string path = temp_path("sink.fifo");
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  // Non-blocking, so holding the read end does not wait for a writer.
  const int reader = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0) << std::strerror(errno);
  {
    JsonlTelemetrySink sink(path, /*append=*/true);
    sink.record(sample_record());
  }
  std::string content;
  char buffer[1 << 12];
  ssize_t got = 0;
  while ((got = ::read(reader, buffer, sizeof buffer)) > 0) {
    content.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(reader);
  std::remove(path.c_str());
  EXPECT_EQ(content, to_jsonl(sample_record()) + "\n");
}

TEST(Telemetry, SinkIsThreadSafe) {
  const std::string path = temp_path("concurrent.jsonl");
  {
    JsonlTelemetrySink sink(path, /*append=*/false);
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&sink, t] {
        TelemetryRecord record = sample_record();
        for (int i = 0; i < 25; ++i) {
          record.mission_index = t * 25 + i;
          sink.record(record);
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }
  // Interleaved writers must still produce 100 individually parseable lines.
  EXPECT_EQ(load_telemetry(path).size(), 100u);
  std::remove(path.c_str());
}

TEST(Telemetry, LoadSkipsTornTrailingLine) {
  const std::string path = temp_path("torn.jsonl");
  {
    std::ofstream out(path);
    out << to_jsonl(sample_record()) << "\n";
    const std::string full = to_jsonl(sample_record());
    out << full.substr(0, full.size() / 2);  // crash mid-write: no newline
  }
  const auto records = load_telemetry(path);
  EXPECT_EQ(records.size(), 1u);
  std::remove(path.c_str());
}

TEST(Telemetry, SinkHealsTornTailOnAppend) {
  // A crash mid-write leaves an unterminated fragment; reopening the sink
  // in append mode must truncate the fragment so the next record starts on
  // a clean line boundary instead of concatenating into garbage.
  const std::string path = temp_path("heal.jsonl");
  {
    std::ofstream out(path);
    out << to_jsonl(sample_record()) << "\n";
    const std::string full = to_jsonl(sample_record());
    out << full.substr(0, full.size() / 3);  // torn, no newline
  }
  {
    JsonlTelemetrySink sink(path, /*append=*/true);
    TelemetryRecord record = sample_record();
    record.mission_index = 9;
    sink.record(record);
  }
  const auto records = load_telemetry(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].mission_index, 7);
  EXPECT_EQ(records[1].mission_index, 9);
  std::remove(path.c_str());
}

TEST(Telemetry, LoadThrowsOnCorruptCompleteLine) {
  const std::string path = temp_path("corrupt.jsonl");
  {
    std::ofstream out(path);
    out << "{\"not a record\":true}\n";
    out << to_jsonl(sample_record()) << "\n";
  }
  EXPECT_THROW((void)load_telemetry(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Telemetry, LoadOfMissingFileIsEmpty) {
  EXPECT_TRUE(load_telemetry(temp_path("does_not_exist.jsonl")).empty());
}

// ---------------------------------------------------------------------------
// Checkpoint/resume through run_campaign.

CampaignConfig checkpoint_campaign(int missions = 6) {
  CampaignConfig config;
  config.num_missions = missions;
  config.mission.num_drones = 5;
  config.fuzzer.spoof_distance = 10.0;
  config.fuzzer.sim.dt = 0.05;
  config.fuzzer.sim.gps.rate_hz = 20.0;
  config.fuzzer.mission_budget = 12;  // keep tests fast
  config.num_threads = 2;
  return config;
}

TEST(Checkpoint, EmitsOneRecordPerMission) {
  const std::string path = temp_path("emit.jsonl");
  std::remove(path.c_str());
  CampaignConfig config = checkpoint_campaign();
  config.checkpoint_path = path;
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.num_completed(), config.num_missions);

  const auto records = load_telemetry(path);
  ASSERT_EQ(records.size(), static_cast<size_t>(config.num_missions));
  std::vector<bool> seen(static_cast<size_t>(config.num_missions), false);
  for (const TelemetryRecord& record : records) {
    ASSERT_GE(record.mission_index, 0);
    ASSERT_LT(record.mission_index, config.num_missions);
    EXPECT_FALSE(seen[static_cast<size_t>(record.mission_index)]);
    seen[static_cast<size_t>(record.mission_index)] = true;
    EXPECT_EQ(record.fuzzer, fuzzer_kind_name(config.kind));
    EXPECT_GT(record.wall_time_s, 0.0);
    EXPECT_TRUE(deterministic_equal(
        outcome_from(record),
        result.outcomes[static_cast<size_t>(record.mission_index)]));
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, InterruptedThenResumedEqualsUninterrupted) {
  const std::string path = temp_path("resume.jsonl");
  std::remove(path.c_str());

  CampaignConfig config = checkpoint_campaign();
  const CampaignResult uninterrupted = run_campaign(config);

  // "Kill" the campaign after 2 of 6 missions...
  CampaignConfig partial = config;
  partial.checkpoint_path = path;
  partial.max_new_missions = 2;
  const CampaignResult killed = run_campaign(partial);
  EXPECT_EQ(killed.num_completed(), 2);
  EXPECT_EQ(load_telemetry(path).size(), 2u);

  // ...then resume at a different thread count: the merged result must be
  // bit-for-bit identical to the uninterrupted run's deterministic fields.
  CampaignConfig resumed_config = config;
  resumed_config.checkpoint_path = path;
  resumed_config.num_threads = 3;
  const CampaignResult resumed = run_campaign(resumed_config);
  EXPECT_EQ(resumed.num_completed(), config.num_missions);
  EXPECT_TRUE(deterministic_equal(resumed, uninterrupted));

  // The checkpoint now covers the full campaign; a further resume runs
  // nothing new and still reconstructs the same result.
  const CampaignResult replayed = run_campaign(resumed_config);
  EXPECT_TRUE(deterministic_equal(replayed, uninterrupted));
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeToleratesTornTrailingLine) {
  const std::string path = temp_path("resume_torn.jsonl");
  std::remove(path.c_str());

  CampaignConfig config = checkpoint_campaign();
  const CampaignResult uninterrupted = run_campaign(config);

  CampaignConfig partial = config;
  partial.checkpoint_path = path;
  partial.max_new_missions = 3;
  (void)run_campaign(partial);
  {
    // Simulate a crash that tore the next record mid-write.
    std::ofstream out(path, std::ios::app);
    out << "{\"v\":1,\"index\":5,\"fuzz";
  }

  CampaignConfig resumed_config = config;
  resumed_config.checkpoint_path = path;
  const CampaignResult resumed = run_campaign(resumed_config);
  EXPECT_TRUE(deterministic_equal(resumed, uninterrupted));
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeAfterTruncationMidRecordRerunsOnlyThatMission) {
  // Kill-and-resume with the harshest failure: the process died while the
  // *last complete* record was being flushed, leaving it torn in half. The
  // resumed campaign must silently re-run exactly that mission and still be
  // bit-identical to an uninterrupted run.
  const std::string path = temp_path("truncate_mid.jsonl");
  std::remove(path.c_str());

  CampaignConfig config = checkpoint_campaign();
  const CampaignResult uninterrupted = run_campaign(config);

  CampaignConfig partial = config;
  partial.checkpoint_path = path;
  partial.max_new_missions = 3;
  (void)run_campaign(partial);
  const auto before = load_telemetry(path);
  ASSERT_EQ(before.size(), 3u);

  // Chop the file in the middle of the final record (newline included).
  const auto full_size = std::filesystem::file_size(path);
  const std::string last_line = to_jsonl(before.back());
  std::filesystem::resize_file(path, full_size - last_line.size() / 2);

  CampaignConfig resumed_config = config;
  resumed_config.checkpoint_path = path;
  const CampaignResult resumed = run_campaign(resumed_config);
  EXPECT_EQ(resumed.num_completed(), config.num_missions);
  EXPECT_TRUE(deterministic_equal(resumed, uninterrupted));
  // The healed checkpoint holds one record per mission again.
  EXPECT_EQ(load_telemetry(path).size(),
            static_cast<size_t>(config.num_missions));
  std::remove(path.c_str());
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Checkpoint, MismatchedCampaignIsRejected) {
  const std::string path = temp_path("mismatch.jsonl");
  std::remove(path.c_str());

  CampaignConfig config = checkpoint_campaign();
  config.checkpoint_path = path;
  config.max_new_missions = 2;
  (void)run_campaign(config);
  const std::string written = file_bytes(path);

  // Same file, another configuration: the records cannot belong to this
  // campaign, and resuming must fail loudly instead of fabricating results
  // and leave the checkpoint byte-identical.
  std::vector<std::pair<std::string, CampaignConfig>> foreign;
  foreign.emplace_back("base seed", config);
  foreign.back().second.base_seed += 1;
  foreign.emplace_back("drones", config);
  foreign.back().second.mission.num_drones += 3;
  foreign.emplace_back("vehicle", config);
  foreign.back().second.fuzzer.sim.vehicle = sim::VehicleType::kQuadrotor;
  foreign.emplace_back("controller", config);
  foreign.back().second.controller_factory = [] {
    return std::make_shared<swarm::OlfatiSaberController>();
  };
  for (const auto& [what, other] : foreign) {
    EXPECT_THROW((void)run_campaign(other), std::runtime_error) << what;
    EXPECT_EQ(file_bytes(path), written) << what;
  }

  // The original configuration still resumes, also with more missions: a
  // mission's outcome does not depend on the mission count.
  config.max_new_missions = 0;
  config.num_missions += 2;
  int resumed = -1;
  config.on_progress = [&resumed](const CampaignProgress& progress) {
    resumed = progress.resumed;
  };
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.num_completed(), config.num_missions);
  EXPECT_EQ(resumed, 2);
  std::remove(path.c_str());
}

TEST(Checkpoint, RecordWithoutConfigMemberIsRejected) {
  // A record written before records carried their campaign's config hash
  // cannot be matched to a configuration: the resume fails, names the
  // member, and leaves the file as it was.
  const std::string path = temp_path("no_config.jsonl");
  std::remove(path.c_str());
  CampaignConfig config = checkpoint_campaign();
  config.checkpoint_path = path;
  config.max_new_missions = 1;
  (void)run_campaign(config);
  const std::vector<TelemetryRecord> records = load_telemetry(path);
  ASSERT_EQ(records.size(), 1u);
  std::string body = strip_crc_frame(to_jsonl(records[0]));
  const std::string member = "\"config\":\"" + records[0].config_hash + "\",";
  const size_t begin = body.find(member);
  ASSERT_NE(begin, std::string::npos);
  body.erase(begin, member.size());
  {
    std::ofstream out(path, std::ios::trunc);
    out << frame_with_crc(body) << '\n';
  }
  const std::string written = file_bytes(path);

  config.max_new_missions = 0;
  try {
    (void)run_campaign(config);
    ADD_FAILURE() << "resumed from a record without a config hash";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("\"config\""), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(file_bytes(path), written);
  std::remove(path.c_str());
}

TEST(Checkpoint, FreshStartTruncatesExistingRecords) {
  const std::string path = temp_path("fresh.jsonl");
  std::remove(path.c_str());

  CampaignConfig config = checkpoint_campaign();
  config.checkpoint_path = path;
  config.max_new_missions = 2;
  (void)run_campaign(config);
  EXPECT_EQ(load_telemetry(path).size(), 2u);

  config.resume = false;
  config.max_new_missions = 3;
  (void)run_campaign(config);
  // Old records were discarded: only this run's three missions remain.
  EXPECT_EQ(load_telemetry(path).size(), 3u);
  std::remove(path.c_str());
}

TEST(Checkpoint, SecondarySinkSeesOnlyFreshMissions) {
  class CountingSink final : public TelemetrySink {
   public:
    void record(const TelemetryRecord&) override { ++count; }
    int count = 0;
  };
  const std::string path = temp_path("secondary.jsonl");
  std::remove(path.c_str());

  CampaignConfig config = checkpoint_campaign();
  config.checkpoint_path = path;
  config.max_new_missions = 2;
  CountingSink first;
  config.telemetry = &first;
  (void)run_campaign(config);
  EXPECT_EQ(first.count, 2);

  CountingSink second;
  config.telemetry = &second;
  config.max_new_missions = 0;
  (void)run_campaign(config);
  // Replayed missions are not re-emitted to the secondary sink.
  EXPECT_EQ(second.count, config.num_missions - 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swarmfuzz::fuzz
