// Subcommand implementations for the `swarmfuzz` command-line tool.
//
//   swarmfuzz run       - fly one mission without attack and report it
//   swarmfuzz fuzz      - run a fuzzer (SwarmFuzz/R/G/S) on one mission
//   swarmfuzz campaign  - run a many-mission campaign, print summary + CI
//   swarmfuzz svg       - print the Swarm Vulnerability Graph and seedpool
//   swarmfuzz replay    - execute an explicit spoofing plan, with optional
//                         spoofing detection (--detect)
//   swarmfuzz serve     - initialize a sharded campaign service directory
//                         (manifest + work leases; see fuzz/service.h);
//                         --coordinate keeps it resident as the adaptive
//                         straggler-re-carving coordinator (fuzz/coordinator.h)
//   swarmfuzz shard     - run one shard worker against a service directory
//                         (--chaos=... injects deterministic failures)
//   swarmfuzz merge     - merge shard streams into the campaign report;
//                         --allow-partial records gaps in holes.json
//   swarmfuzz resume-holes - turn holes.json back into claimable leases
//
// Common options: --drones, --seed, --distance, --controller
// (vasarhelyi|olfati|reynolds), --dt, --gps-rate, --nav-filter.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "swarm/controller.h"
#include "util/options.h"

namespace swarmfuzz::cli {

// Builds a controller by name; throws std::invalid_argument on unknown names.
[[nodiscard]] std::shared_ptr<const swarm::SwarmController> make_controller(
    std::string_view name);

int cmd_run(const util::Options& options);
int cmd_fuzz(const util::Options& options);
int cmd_campaign(const util::Options& options);
int cmd_svg(const util::Options& options);
int cmd_replay(const util::Options& options);
int cmd_serve(const util::Options& options);
int cmd_shard(const util::Options& options);
int cmd_merge(const util::Options& options);
int cmd_resume_holes(const util::Options& options);

// Prints usage to stdout; returns the exit code to use.
int print_usage();

// Flags on `options`' command line that `command` does not read (SWARMFUZZ_*
// environment fallbacks are not flags). Throws std::invalid_argument for an
// unknown command.
[[nodiscard]] std::vector<std::string> unknown_flags(std::string_view command,
                                                     const util::Options& options);

// Dispatches on the first positional argument. `<command> --help` prints the
// usage and returns 0; a flag the command does not read is reported on
// stderr and returns 2 before anything runs.
int dispatch(int argc, const char* const* argv);

}  // namespace swarmfuzz::cli
