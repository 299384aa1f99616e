// Minimal JSON writer and reader for exporting fuzzing results as
// machine-readable artifacts and reading them back (campaign checkpoints).
// Writes UTF-8 with proper string escaping; numbers use %.10g by default
// (round-trips doubles we care about) or %.17g via value_exact() when
// bit-exact round-trips are required.
//
// Usage:
//   JsonWriter json;
//   json.begin_object();
//   json.key("found");    json.value(true);
//   json.key("victims");  json.begin_array();
//   json.value(3); json.value(4);
//   json.end_array();
//   json.end_object();
//   std::string text = json.str();
//
// The writer validates nesting: mismatched begin/end or a value where a key
// is required throws std::logic_error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace swarmfuzz::util {

class JsonWriter {
 public:
  JsonWriter() = default;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  // Object key; must be followed by exactly one value/container.
  void key(std::string_view name);

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view{text}); }
  // Non-finite doubles (NaN/inf have no JSON spelling) are written as null;
  // as_double() reads null back as NaN.
  void value(double number);
  void value(int number);
  void value(std::int64_t number);
  void value(bool boolean);
  void null();

  // Writes a double with %.17g so that parsing it back (strtod) recovers the
  // exact same bit pattern. Used by checkpoint records, where resumed
  // campaigns must reproduce results bit-for-bit.
  void value_exact(double number);

  // Finished document text. Throws std::logic_error if containers are open.
  [[nodiscard]] std::string str() const;

  // Escapes a string per RFC 8259 (quotes, backslash, control characters).
  [[nodiscard]] static std::string escape(std::string_view text);

 private:
  enum class Scope { kObject, kArray };
  void prepare_for_value();

  std::string out_;
  std::vector<Scope> stack_;
  std::vector<bool> has_items_;  // per scope: need a comma before next item
  bool expecting_value_ = false; // a key was just written
};

// Parsed JSON document node. Object member order is preserved; duplicate
// keys keep the first occurrence on lookup. Numbers are stored both as a
// double and as their raw source text so 64-bit integers (mission seeds)
// survive a round-trip unmangled.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  // Typed accessors; throw std::invalid_argument on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;  // null reads back as quiet NaN
  [[nodiscard]] int as_int() const;                 // rejects non-integral values
  [[nodiscard]] std::int64_t as_int64() const;      // from the raw number text
  [[nodiscard]] std::uint64_t as_uint64() const;    // from the raw number text
  [[nodiscard]] const std::string& as_string() const;

  // Raw source text of a number ("1e-3", "18446744073709551615", ...).
  [[nodiscard]] const std::string& number_text() const;

  // Containers.
  [[nodiscard]] std::size_t size() const;           // array/object element count
  [[nodiscard]] const JsonValue& at(std::size_t index) const;  // array element
  [[nodiscard]] bool has(std::string_view key) const;
  // Object member; throws std::invalid_argument when the key is absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  // Object member or nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  [[nodiscard]] static JsonValue make_null();
  [[nodiscard]] static JsonValue make_bool(bool value);
  [[nodiscard]] static JsonValue make_number(double value, std::string text);
  [[nodiscard]] static JsonValue make_string(std::string value);
  [[nodiscard]] static JsonValue make_array(std::vector<JsonValue> items);
  [[nodiscard]] static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string text_;  // string value, or raw number text
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Parses one complete JSON document (RFC 8259 subset: no comments, strict
// literals, \uXXXX escapes decoded to UTF-8 including surrogate pairs).
// Trailing whitespace is allowed; any other trailing content, malformed
// input, or arrays/objects nested more than 256 deep throw
// std::invalid_argument with an offset-bearing message.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace swarmfuzz::util
