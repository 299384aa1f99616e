#include "cli/commands.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "fuzz/service.h"
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

TEST(Cli, ResumeHolesRequiresDir) {
  EXPECT_EQ(run_dispatch({"resume-holes"}), 1);
}

TEST(Cli, ServeShardMergeResumeHolesRoundTrip) {
  const std::string dir =
      (std::filesystem::path{::testing::TempDir()} / "cli_service").string();
  std::filesystem::remove_all(dir);
  const std::string dir_flag = "--dir=" + dir;

  EXPECT_EQ(cmd_serve(parse({"serve", dir_flag.c_str(), "--missions=4",
                             "--budget=6", "--leases=2"})),
            0);

  // Nothing has run yet: a bounded merge --wait must time out, report the
  // unclaimed leases, and fail rather than emit a partial report.
  EXPECT_EQ(cmd_merge(parse({"merge", dir_flag.c_str(), "--wait",
                             "--wait-timeout=0.2", "--progress=false"})),
            1);

  // A malformed chaos plan is rejected at the CLI boundary.
  const std::string chaos_flag = "--chaos=bogus@x";
  EXPECT_EQ(run_dispatch({"shard", dir_flag.c_str(), chaos_flag.c_str()}), 1);

  // One worker drains both leases; coordinating over a finished service
  // returns success without re-carving anything.
  EXPECT_EQ(cmd_shard(parse({"shard", dir_flag.c_str(), "--owner=w1"})), 0);
  EXPECT_EQ(cmd_serve(parse({"serve", dir_flag.c_str(), "--missions=4",
                             "--budget=6", "--leases=2", "--coordinate",
                             "--coordinate-timeout=30"})),
            0);

  // A complete partial-tolerant merge leaves no holes manifest behind.
  EXPECT_EQ(cmd_merge(parse({"merge", dir_flag.c_str(), "--allow-partial",
                             "--progress=false"})),
            0);
  EXPECT_FALSE(std::filesystem::exists(fuzz::holes_path(dir)));

  // Lose one shard file: merge --allow-partial records the gap machine-
  // readably, resume-holes turns it back into claimable leases, and a second
  // worker finishes the campaign.
  std::filesystem::remove(dir + "/shard-1.jsonl");
  EXPECT_EQ(cmd_merge(parse({"merge", dir_flag.c_str(), "--allow-partial",
                             "--progress=false"})),
            0);
  EXPECT_TRUE(std::filesystem::exists(fuzz::holes_path(dir)));
  EXPECT_EQ(cmd_resume_holes(parse({"resume-holes", dir_flag.c_str()})), 0);
  EXPECT_EQ(cmd_shard(parse({"shard", dir_flag.c_str(), "--owner=w2"})), 0);
  EXPECT_EQ(cmd_merge(parse({"merge", dir_flag.c_str(), "--allow-partial",
                             "--progress=false"})),
            0);
  EXPECT_FALSE(std::filesystem::exists(fuzz::holes_path(dir)));
}

}  // namespace
}  // namespace swarmfuzz::cli
