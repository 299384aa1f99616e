// Output checks: an outcome digest over the fields deterministic_equal
// compares, and the replay of a reported SPV through Simulator::run.
#pragma once

#include <cstdint>
#include <string>

#include "fuzz/fuzzer.h"
#include "sim/simulator.h"

namespace perfbench {

// FNV-1a over field values; NaNs hash alike, as deterministic_equal
// treats them as equal.
class Digest {
 public:
  void add(std::int64_t v) noexcept;
  void add(double v) noexcept;
  void add(bool v) noexcept { add(static_cast<std::int64_t>(v)); }
  void add(int v) noexcept { add(static_cast<std::int64_t>(v)); }
  void add(std::uint64_t v) noexcept;

  // Every field deterministic_equal(FuzzResult, FuzzResult) compares.
  void add(const swarmfuzz::fuzz::FuzzResult& r) noexcept;
  // Outcome of a plain mission: collision, arrival, end time, executed
  // steps and every drone's closest obstacle approach.
  void add(const swarmfuzz::sim::RunResult& r) noexcept;

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

// Replays `result`'s SPV on `mission` with an attack::GpsSpoofer built from
// the reported plan, on a fresh Vasarhelyi swarm under `config`'s simulator
// and comm settings. Returns an empty string when the reported victim (not
// the target) is the first to hit an obstacle, else what went wrong.
[[nodiscard]] std::string replay_spv(const swarmfuzz::sim::MissionSpec& mission,
                                     const swarmfuzz::fuzz::FuzzResult& result,
                                     const swarmfuzz::fuzz::FuzzerConfig& config);

}  // namespace perfbench
