// Command-line and environment option parsing shared by the examples and
// the benchmark harness.
//
// Syntax: --name=value or --name value; bare --flag sets "true".
// Environment variables override defaults but are overridden by the command
// line (env < CLI), letting CI scale benchmark workloads via e.g.
// SWARMFUZZ_MISSIONS without editing commands.
#pragma once

#include <charconv>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace swarmfuzz::util {

// Parses all of `text` as a T (an integer or floating-point type); nullopt
// when a character is left over, the value is out of range, or `text` is
// empty. Shared by the option getters and the CLI's small grammars, so
// "2abc" is never read as 2.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

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
  // The typed getters parse the whole value (an empty one means the
  // fallback) and throw std::invalid_argument, naming the flag or variable,
  // when it is not a well-formed int / double / boolean — a typo such as
  // --missions=2abc must not run with 2 or with the default.
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

// Runs a program's `body` and reports an exception escaping it the way the
// swarmfuzz CLI does: one "error: <what>" line on stderr and exit status 1,
// not std::terminate's abort. The examples wrap their main in it, so a
// malformed value such as --drones=5x ends in a one-line error.
template <typename Body>
int run_main(Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace swarmfuzz::util
