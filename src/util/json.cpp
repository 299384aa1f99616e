#include "util/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace swarmfuzz::util {

std::string JsonWriter::escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::prepare_for_value() {
  if (!stack_.empty() && stack_.back() == Scope::kObject && !expecting_value_) {
    throw std::logic_error("JsonWriter: value in object requires a key");
  }
  if (!expecting_value_ && !stack_.empty() && has_items_.back()) {
    out_.push_back(',');
  }
  if (expecting_value_) {
    expecting_value_ = false;
  } else if (!stack_.empty()) {
    has_items_.back() = true;
  }
}

void JsonWriter::begin_object() {
  prepare_for_value();
  out_.push_back('{');
  stack_.push_back(Scope::kObject);
  has_items_.push_back(false);
}

void JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Scope::kObject || expecting_value_) {
    throw std::logic_error("JsonWriter: unbalanced end_object");
  }
  out_.push_back('}');
  stack_.pop_back();
  has_items_.pop_back();
}

void JsonWriter::begin_array() {
  prepare_for_value();
  out_.push_back('[');
  stack_.push_back(Scope::kArray);
  has_items_.push_back(false);
}

void JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Scope::kArray) {
    throw std::logic_error("JsonWriter: unbalanced end_array");
  }
  out_.push_back(']');
  stack_.pop_back();
  has_items_.pop_back();
}

void JsonWriter::key(std::string_view name) {
  if (stack_.empty() || stack_.back() != Scope::kObject || expecting_value_) {
    throw std::logic_error("JsonWriter: key outside object");
  }
  if (has_items_.back()) out_.push_back(',');
  has_items_.back() = true;
  out_.push_back('"');
  out_ += escape(name);
  out_ += "\":";
  expecting_value_ = true;
}

void JsonWriter::value(std::string_view text) {
  prepare_for_value();
  out_.push_back('"');
  out_ += escape(text);
  out_.push_back('"');
}

void JsonWriter::value(double number) {
  // JSON has no NaN/Infinity literals; emitting them produces a document no
  // conforming parser (including ours) accepts. Undefined numeric values —
  // averages over empty sets, non-finite VDOs — serialize as null instead,
  // and as_double() maps null back to NaN on the way in.
  if (!std::isfinite(number)) {
    null();
    return;
  }
  prepare_for_value();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", number);
  out_ += buf;
}

void JsonWriter::value(int number) {
  prepare_for_value();
  out_ += std::to_string(number);
}

void JsonWriter::value(std::int64_t number) {
  prepare_for_value();
  out_ += std::to_string(number);
}

void JsonWriter::value(bool boolean) {
  prepare_for_value();
  out_ += boolean ? "true" : "false";
}

void JsonWriter::null() {
  prepare_for_value();
  out_ += "null";
}

void JsonWriter::value_exact(double number) {
  if (!std::isfinite(number)) {
    null();
    return;
  }
  prepare_for_value();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", number);
  out_ += buf;
}

std::string JsonWriter::str() const {
  if (!stack_.empty() || expecting_value_) {
    throw std::logic_error("JsonWriter: document not finished");
  }
  return out_;
}

// ---------------------------------------------------------------------------
// JsonValue

namespace {

[[noreturn]] void kind_error(const char* wanted) {
  throw std::invalid_argument(std::string{"JsonValue: not a "} + wanted);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) kind_error("bool");
  return bool_;
}

double JsonValue::as_double() const {
  // null is how the writer spells a non-finite double (see
  // JsonWriter::value); reading it back as NaN makes the round-trip total.
  if (is_null()) return std::numeric_limits<double>::quiet_NaN();
  if (!is_number()) kind_error("number");
  return number_;
}

int JsonValue::as_int() const {
  if (!is_number()) kind_error("number");
  if (number_ != std::floor(number_) || number_ < -2147483648.0 ||
      number_ > 2147483647.0) {
    throw std::invalid_argument("JsonValue: number is not a 32-bit integer");
  }
  return static_cast<int>(number_);
}

std::int64_t JsonValue::as_int64() const {
  if (!is_number()) kind_error("number");
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text_.c_str(), &end, 10);
  if (errno != 0 || end == text_.c_str() || *end != '\0') {
    throw std::invalid_argument("JsonValue: number is not an int64: " + text_);
  }
  return static_cast<std::int64_t>(parsed);
}

std::uint64_t JsonValue::as_uint64() const {
  if (!is_number()) kind_error("number");
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text_.c_str(), &end, 10);
  if (errno != 0 || end == text_.c_str() || *end != '\0') {
    throw std::invalid_argument("JsonValue: number is not a uint64: " + text_);
  }
  return static_cast<std::uint64_t>(parsed);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) kind_error("string");
  return text_;
}

const std::string& JsonValue::number_text() const {
  if (!is_number()) kind_error("number");
  return text_;
}

std::size_t JsonValue::size() const {
  if (is_array()) return items_.size();
  if (is_object()) return members_.size();
  kind_error("container");
}

const JsonValue& JsonValue::at(std::size_t index) const {
  if (!is_array()) kind_error("array");
  if (index >= items_.size()) {
    throw std::invalid_argument("JsonValue: array index out of range");
  }
  return items_[index];
}

bool JsonValue::has(std::string_view key) const { return find(key) != nullptr; }

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* found = find(key);
  if (found == nullptr) {
    throw std::invalid_argument("JsonValue: missing key: " + std::string{key});
  }
  return *found;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::make_number(double value, std::string text) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  v.text_ = std::move(text);
  return v;
}

JsonValue JsonValue::make_string(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.text_ = std::move(value);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

// ---------------------------------------------------------------------------
// Parser: straightforward recursive descent over the input span.

namespace {

class JsonParser {
 public:
  // Deepest array/object nesting accepted. Parsing (and destroying) a value
  // recurses once per level, so an unbounded depth lets a few hundred KB of
  // '[' overflow the stack; real documents nest a handful of levels.
  static constexpr int kMaxDepth = 256;

  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("parse_json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // No restore on failure: fail() abandons the whole parse.
        if (++depth_ > kMaxDepth) fail("nesting too deep");
        JsonValue value = c == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      }
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return JsonValue::make_object(std::move(members));
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return JsonValue::make_array(std::move(items));
  }

  void append_utf8(std::string& out, unsigned code_point) {
    if (code_point < 0x80) {
      out.push_back(static_cast<char>(code_point));
    } else if (code_point < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (code_point >> 6)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3f)));
    } else if (code_point < 0x10000) {
      out.push_back(static_cast<char>(0xe0 | (code_point >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xf0 | (code_point >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3f)));
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          unsigned code_point = parse_hex4();
          if (code_point >= 0xd800 && code_point <= 0xdbff) {
            // High surrogate: require the paired low surrogate.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired UTF-16 surrogate");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xdc00 || low > 0xdfff) fail("bad low surrogate");
            code_point = 0x10000 + ((code_point - 0xd800) << 10) + (low - 0xdc00);
          } else if (code_point >= 0xdc00 && code_point <= 0xdfff) {
            fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, code_point);
          break;
        }
        default: fail("unknown escape");
      }
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      fail("malformed number");
    }
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() && text_[pos_ + 1] >= '0' &&
        text_[pos_ + 1] <= '9') {
      fail("leading zero in number");
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("malformed number fraction");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("malformed number exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    std::string raw{text_.substr(start, pos_ - start)};
    const double parsed = std::strtod(raw.c_str(), nullptr);
    return JsonValue::make_number(parsed, std::move(raw));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open arrays/objects
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser{text}.parse_document();
}

}  // namespace swarmfuzz::util
