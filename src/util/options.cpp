#include "util/options.h"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace swarmfuzz::util {
namespace {

std::string env_key(std::string_view name) {
  std::string key = "SWARMFUZZ_";
  for (const char c : name) {
    key.push_back(c == '-' ? '_'
                           : static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  return key;
}

// The error for a malformed value `text` of option `name`, naming the flag
// when it came from the command line and the variable otherwise.
std::invalid_argument malformed(bool on_command_line, std::string_view name,
                                const std::string& text, std::string_view expected) {
  const std::string source =
      on_command_line ? "--" + std::string{name} : env_key(name);
  return std::invalid_argument(source + "=" + text + ": not " +
                               std::string{expected});
}

std::optional<bool> parse_bool(const std::string& text) {
  if (text == "1" || text == "true" || text == "yes" || text == "on") return true;
  if (text == "0" || text == "false" || text == "no" || text == "off") return false;
  return std::nullopt;
}

}  // namespace

Options Options::parse(int argc, const char* const* argv) {
  Options opts;
  if (argc > 0) opts.program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      opts.positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    if (body.empty()) throw std::invalid_argument("Options: bare '--'");
    if (const size_t eq = body.find('='); eq != std::string_view::npos) {
      opts.values_[std::string{body.substr(0, eq)}] = std::string{body.substr(eq + 1)};
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      opts.values_[std::string{body}] = argv[++i];
    } else {
      opts.values_[std::string{body}] = "true";
    }
  }
  return opts;
}

std::vector<std::string> Options::flags() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& entry : values_) names.push_back(entry.first);
  return names;
}

std::optional<std::string> Options::from_env(std::string_view name) {
  if (const char* value = std::getenv(env_key(name).c_str())) {
    return std::string{value};
  }
  return std::nullopt;
}

bool Options::has(std::string_view name) const {
  return values_.find(name) != values_.end() || from_env(name).has_value();
}

std::string Options::get(std::string_view name, std::string_view fallback) const {
  if (const auto it = values_.find(name); it != values_.end()) return it->second;
  if (auto env = from_env(name)) return *env;
  return std::string{fallback};
}

int Options::get_int(std::string_view name, int fallback) const {
  const std::string text = get(name, "");
  if (text.empty()) return fallback;
  if (const auto value = parse_number<int>(text)) return *value;
  throw malformed(values_.contains(name), name, text, "an integer");
}

double Options::get_double(std::string_view name, double fallback) const {
  const std::string text = get(name, "");
  if (text.empty()) return fallback;
  if (const auto value = parse_number<double>(text)) return *value;
  throw malformed(values_.contains(name), name, text, "a number");
}

bool Options::get_bool(std::string_view name, bool fallback) const {
  const std::string text = get(name, "");
  if (text.empty()) return fallback;
  if (const auto value = parse_bool(text)) return *value;
  throw malformed(values_.contains(name), name, text,
                  "a boolean (true|false|yes|no|on|off|1|0)");
}

}  // namespace swarmfuzz::util
