// Command-line and environment option parsing shared by the examples and
// the benchmark harness.
//
// Syntax: --name=value or --name value; bare --flag sets "true".
// Environment variables override defaults but are overridden by the command
// line (env < CLI), letting CI scale benchmark workloads via e.g.
// SWARMFUZZ_MISSIONS without editing commands.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace swarmfuzz::util {

class Options {
 public:
  Options() = default;

  // Parses argv, recording unrecognized positional arguments in order.
  // Throws std::invalid_argument on a malformed option ("--" alone).
  static Options parse(int argc, const char* const* argv);

  // Reads SWARMFUZZ_<NAME> (upper-cased, '-' -> '_') for a fallback value.
  [[nodiscard]] static std::optional<std::string> from_env(std::string_view name);

  [[nodiscard]] bool has(std::string_view name) const;

  // Lookup order: CLI flag, then SWARMFUZZ_<NAME> env var, then fallback.
  [[nodiscard]] std::string get(std::string_view name, std::string_view fallback) const;
  [[nodiscard]] int get_int(std::string_view name, int fallback) const;
  [[nodiscard]] double get_double(std::string_view name, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view name, bool fallback) const;

  // Names of the flags given on the command line (env fallbacks excluded),
  // in sorted order.
  [[nodiscard]] std::vector<std::string> flags() const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  // Program name (argv[0]), empty when parsed from an empty argv.
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
};

}  // namespace swarmfuzz::util
