#include "cli/commands.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/telemetry.h"
#include "swarm/controller.h"

namespace swarmfuzz::cli {
namespace {

util::Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"swarmfuzz"};
  argv.insert(argv.end(), args.begin(), args.end());
  return util::Options::parse(static_cast<int>(argv.size()), argv.data());
}

int run_dispatch(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"swarmfuzz"};
  argv.insert(argv.end(), args.begin(), args.end());
  return dispatch(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ControllerFactoryKnowsAllNames) {
  EXPECT_EQ(make_controller("vasarhelyi")->name(), "vasarhelyi");
  EXPECT_EQ(make_controller("vicsek")->name(), "vasarhelyi");
  EXPECT_EQ(make_controller("olfati")->name(), "olfati_saber");
  EXPECT_EQ(make_controller("olfati_saber")->name(), "olfati_saber");
  EXPECT_EQ(make_controller("reynolds")->name(), "reynolds");
  EXPECT_EQ(make_controller("boids")->name(), "reynolds");
  EXPECT_EQ(make_controller("")->name(), "vasarhelyi");
  EXPECT_THROW(make_controller("nonsense"), std::invalid_argument);
}

TEST(Cli, NoCommandPrintsUsage) {
  EXPECT_EQ(run_dispatch({}), 64);
}

TEST(Cli, UnknownCommandPrintsUsage) {
  EXPECT_EQ(run_dispatch({"frobnicate"}), 64);
}

TEST(Cli, BadOptionValueReportsError) {
  EXPECT_EQ(run_dispatch({"run", "--controller=nonsense"}), 1);
  // A malformed number or boolean is an error naming the flag, not a
  // silently truncated or defaulted value.
  for (const char* flag : {"--missions=2abc", "--distance=ten", "--resume=maybe"}) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_dispatch({"campaign", flag, "--progress=false"}), 1) << flag;
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(flag), std::string::npos)
        << flag;
  }
}

TEST(Cli, UnknownFlagExitsTwoAndNamesIt) {
  // A typo must not run the command with its defaults.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run_dispatch({"campaign", "--misions=2"}), 2);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("--misions"),
            std::string::npos);
  EXPECT_EQ(run_dispatch({"campaign", "--bogus-flag=3", "--missions=1"}), 2);
  for (const char* command : {"run", "fuzz", "campaign", "svg", "replay"}) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_dispatch({command, "--no-such-flag"}), 2) << command;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--no-such-flag"), std::string::npos) << command;
  }
  // A flag of another command is just as unknown here.
  EXPECT_EQ(run_dispatch({"run", "--progress=false"}), 2);
  EXPECT_EQ(run_dispatch({"campaign", "--obstacles=2"}), 2);
  // Faulted missions live in the checkpoint; the quarantine file is gone.
  EXPECT_EQ(run_dispatch({"campaign", "--quarantine=x"}), 2);
}

TEST(Cli, RemovedServiceCommandsAreGone) {
  // The multi-process campaign service is gone; `campaign --checkpoint
  // ... --resume` is the durable path.
  for (const char* command : {"serve", "shard", "merge", "resume-holes"}) {
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_dispatch({command, "--dir=x"}), 64) << command;
    (void)::testing::internal::GetCapturedStdout();
    EXPECT_NE(::testing::internal::GetCapturedStderr().find("unknown command"),
              std::string::npos)
        << command;
  }
}

TEST(Cli, HelpPrintsUsageAndExitsZero) {
  for (const char* command : {"run", "fuzz", "campaign", "svg", "replay"}) {
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(run_dispatch({command, "--help"}), 0) << command;
    EXPECT_NE(::testing::internal::GetCapturedStdout().find("usage:"),
              std::string::npos)
        << command;
  }
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(run_dispatch({"--help"}), 0);
  (void)::testing::internal::GetCapturedStdout();
}

TEST(Cli, DocumentedFlagsAreKnown) {
  // Every flag the CI workflow, README.md and EXPERIMENTS.md pass.
  const std::vector<std::pair<const char*, std::vector<const char*>>> uses = {
      {"run", {"--drones=100", "--spawn-range=180", "--sim-threads=2", "--seed=1013",
               "--controller=olfati", "--vehicle=quadrotor", "--gps-rate=5",
               "--nav-filter", "--obstacles=2", "--dt=0.05", "--gps-noise=0.5"}},
      {"fuzz", {"--fuzzer=evolutionary", "--seed=1013", "--distance=10",
                "--eval-threads=2", "--corpus-dir=d", "--novelty-bins=8",
                "--evo-batch=4", "--max-corpus=9", "--mission-timeout=5",
                "--eval-max-steps=9", "--no-prefix-reuse", "--checkpoint-period=2",
                "--json", "--sim-threads=1", "--budget=6"}},
      {"campaign", {"--missions=12", "--drones=5", "--budget=12", "--dt=0.05",
                    "--gps-rate=20", "--distance=10", "--checkpoint=g.jsonl",
                    "--resume", "--telemetry=t.jsonl", "--progress=false",
                    "--summary=s.json", "--json", "--threads=2", "--eval-threads=1",
                    "--sim-threads=1", "--fuzzer=e_fuzz", "--controller=olfati",
                    "--vehicle=quadrotor", "--mission-timeout=2",
                    "--eval-max-steps=9", "--max-fault-retries=0", "--fail-fast",
                    "--fault-inject=nan@1", "--seed=42",
                    "--novelty-bins=8", "--evo-batch=4", "--max-corpus=9",
                    "--clean-retries=1", "--no-prefix-reuse",
                    "--checkpoint-period=2", "--nav-filter"}},
      {"svg", {"--seed=1013", "--distance=10", "--drones=10"}},
      {"replay", {"--seed=1013", "--target=1", "--start=3", "--duration=20",
                  "--detect", "--direction=left", "--distance=10",
                  "--detect-threshold=5"}},
  };
  for (const auto& [command, flags] : uses) {
    std::vector<const char*> argv{"swarmfuzz", command};
    argv.insert(argv.end(), flags.begin(), flags.end());
    const util::Options options =
        util::Options::parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(unknown_flags(command, options).empty())
        << command << ": " << testing::PrintToString(unknown_flags(command, options));
  }
  EXPECT_THROW((void)unknown_flags("frobnicate", parse({})), std::invalid_argument);
}

TEST(Cli, EnvironmentFallbacksAreNotFlags) {
  // SWARMFUZZ_<NAME> variables keep feeding options and are never checked
  // against a command's flags.
  ::setenv("SWARMFUZZ_MISSIONS", "3", 1);
  ::setenv("SWARMFUZZ_NOT_A_FLAG", "1", 1);
  const util::Options options = parse({"campaign"});
  EXPECT_TRUE(unknown_flags("campaign", options).empty());
  EXPECT_EQ(options.get_int("missions", 30), 3);
  ::unsetenv("SWARMFUZZ_MISSIONS");
  ::unsetenv("SWARMFUZZ_NOT_A_FLAG");
}

TEST(Cli, CampaignSummaryPrintsNotApplicableWithoutSpvs) {
  // One robust mission at a tiny budget finds no SPV: the average over
  // successful missions is undefined and prints as n/a, not nan.
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(cmd_campaign(parse({"campaign", "--missions=1", "--budget=4",
                                "--progress=false"})),
            0);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("success rate      0.0%"), std::string::npos) << out;
  EXPECT_NE(out.find("/ n/a (successful)"), std::string::npos) << out;
  EXPECT_EQ(out.find("nan"), std::string::npos) << out;
}

TEST(Cli, RunCommandCompletesCleanMission) {
  EXPECT_EQ(cmd_run(parse({"run", "--seed=1013"})), 0);
}

TEST(Cli, RunCommandWithEachController) {
  EXPECT_EQ(cmd_run(parse({"run", "--seed=1013", "--controller=olfati"})), 0);
  EXPECT_EQ(cmd_run(parse({"run", "--seed=1013", "--controller=reynolds"})), 0);
}

TEST(Cli, SvgCommandPrintsSeedpool) {
  EXPECT_EQ(cmd_svg(parse({"svg", "--seed=1013"})), 0);
}

TEST(Cli, ReplayCommandRunsPlan) {
  EXPECT_EQ(cmd_replay(parse({"replay", "--seed=1013", "--target=1",
                              "--start=20", "--duration=10", "--detect"})),
            0);
}

TEST(Cli, ReplayRejectsNonFiniteWindow) {
  // Used to fly an unspoofed mission and print "t_s=nans ... no collision".
  EXPECT_EQ(run_dispatch({"replay", "--seed=1013", "--start=nan"}), 1);
  EXPECT_EQ(run_dispatch({"replay", "--seed=1013", "--duration=nan"}), 1);
}

TEST(Cli, FuzzCommandFindsSpvOnVulnerableMission) {
  EXPECT_EQ(cmd_fuzz(parse({"fuzz", "--seed=1013", "--distance=10"})), 0);
}

TEST(Cli, CampaignCommandSmall) {
  EXPECT_EQ(cmd_campaign(parse({"campaign", "--missions=2", "--budget=6"})), 0);
}

TEST(Cli, CampaignCheckpointAndTelemetryFlags) {
  const std::string dir = ::testing::TempDir();
  const std::string checkpoint =
      (std::filesystem::path{dir} / "cli_checkpoint.jsonl").string();
  const std::string telemetry =
      (std::filesystem::path{dir} / "cli_telemetry.jsonl").string();
  std::remove(checkpoint.c_str());
  std::remove(telemetry.c_str());

  const std::string checkpoint_flag = "--checkpoint=" + checkpoint;
  const std::string telemetry_flag = "--telemetry=" + telemetry;
  EXPECT_EQ(cmd_campaign(parse({"campaign", "--missions=3", "--budget=6",
                                checkpoint_flag.c_str(), telemetry_flag.c_str(),
                                "--progress=false"})),
            0);
  EXPECT_EQ(fuzz::load_telemetry(checkpoint).size(), 3u);
  EXPECT_EQ(fuzz::load_telemetry(telemetry).size(), 3u);

  // Re-running with --resume replays the checkpoint instead of re-fuzzing:
  // the telemetry stream (which only sees fresh missions) gains no records.
  EXPECT_EQ(cmd_campaign(parse({"campaign", "--missions=3", "--budget=6",
                                checkpoint_flag.c_str(), telemetry_flag.c_str(),
                                "--resume", "--progress=false"})),
            0);
  EXPECT_EQ(fuzz::load_telemetry(checkpoint).size(), 3u);
  EXPECT_EQ(fuzz::load_telemetry(telemetry).size(), 3u);
  std::remove(checkpoint.c_str());
  std::remove(telemetry.c_str());
}

}  // namespace
}  // namespace swarmfuzz::cli
