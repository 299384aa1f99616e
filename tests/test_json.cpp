#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace swarmfuzz::util {
namespace {

TEST(Json, EmptyObjectAndArray) {
  JsonWriter obj;
  obj.begin_object();
  obj.end_object();
  EXPECT_EQ(obj.str(), "{}");

  JsonWriter arr;
  arr.begin_array();
  arr.end_array();
  EXPECT_EQ(arr.str(), "[]");
}

TEST(Json, ObjectWithMixedValues) {
  JsonWriter json;
  json.begin_object();
  json.key("name");
  json.value("swarmfuzz");
  json.key("count");
  json.value(3);
  json.key("rate");
  json.value(0.5);
  json.key("ok");
  json.value(true);
  json.key("missing");
  json.null();
  json.end_object();
  EXPECT_EQ(json.str(),
            R"({"name":"swarmfuzz","count":3,"rate":0.5,"ok":true,"missing":null})");
}

TEST(Json, ArrayCommas) {
  JsonWriter json;
  json.begin_array();
  json.value(1);
  json.value(2);
  json.value(3);
  json.end_array();
  EXPECT_EQ(json.str(), "[1,2,3]");
}

TEST(Json, NestedContainers) {
  JsonWriter json;
  json.begin_object();
  json.key("list");
  json.begin_array();
  json.begin_object();
  json.key("a");
  json.value(1);
  json.end_object();
  json.begin_object();
  json.key("b");
  json.value(2);
  json.end_object();
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.str(), R"({"list":[{"a":1},{"b":2}]})");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonWriter::escape(std::string{"\x01"}), "\\u0001");
}

TEST(Json, NumbersFormatCompactly) {
  JsonWriter json;
  json.begin_array();
  json.value(1.0);
  json.value(-2.5);
  json.value(1e9);
  json.end_array();
  EXPECT_EQ(json.str(), "[1,-2.5,1000000000]");
}

TEST(Json, ValueInObjectWithoutKeyThrows) {
  JsonWriter json;
  json.begin_object();
  EXPECT_THROW(json.value(1), std::logic_error);
}

TEST(Json, KeyOutsideObjectThrows) {
  JsonWriter json;
  json.begin_array();
  EXPECT_THROW(json.key("x"), std::logic_error);
}

TEST(Json, UnbalancedEndsThrow) {
  JsonWriter json;
  json.begin_object();
  EXPECT_THROW(json.end_array(), std::logic_error);
  JsonWriter json2;
  json2.begin_array();
  EXPECT_THROW(json2.end_object(), std::logic_error);
}

TEST(Json, UnfinishedDocumentThrowsOnStr) {
  JsonWriter json;
  json.begin_object();
  EXPECT_THROW((void)json.str(), std::logic_error);
  JsonWriter json2;
  json2.begin_object();
  json2.key("dangling");
  EXPECT_THROW((void)json2.str(), std::logic_error);
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_EQ(parse_json("42").as_int(), 42);
  EXPECT_DOUBLE_EQ(parse_json("-2.5e3").as_double(), -2500.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse_json("  7 ").as_int(), 7);  // surrounding whitespace ok
}

TEST(JsonParse, ObjectsAndArrays) {
  const JsonValue root = parse_json(
      R"({"name":"swarmfuzz","count":3,"rate":0.5,"ok":true,"missing":null,)"
      R"("list":[1,2,3],"nested":{"a":[{"b":2}]}})");
  EXPECT_EQ(root.size(), 7u);
  EXPECT_EQ(root.at("name").as_string(), "swarmfuzz");
  EXPECT_EQ(root.at("count").as_int(), 3);
  EXPECT_DOUBLE_EQ(root.at("rate").as_double(), 0.5);
  EXPECT_TRUE(root.at("ok").as_bool());
  EXPECT_TRUE(root.at("missing").is_null());
  ASSERT_EQ(root.at("list").size(), 3u);
  EXPECT_EQ(root.at("list").at(2).as_int(), 3);
  EXPECT_EQ(root.at("nested").at("a").at(0).at("b").as_int(), 2);
  EXPECT_TRUE(root.has("list"));
  EXPECT_FALSE(root.has("absent"));
  EXPECT_EQ(root.find("absent"), nullptr);
  EXPECT_THROW((void)root.at("absent"), std::invalid_argument);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("say \"hi\"")").as_string(), "say \"hi\"");
  EXPECT_EQ(parse_json(R"("a\\b\/c")").as_string(), "a\\b/c");
  EXPECT_EQ(parse_json(R"("line\nbreak\ttab")").as_string(), "line\nbreak\ttab");
  EXPECT_EQ(parse_json(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(parse_json(R"("\u00e9")").as_string(), "\xc3\xa9");      // é
  EXPECT_EQ(parse_json(R"("\u20ac")").as_string(), "\xe2\x82\xac");  // €
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");  // surrogate pair (emoji)
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("weird \"key\"\n");
  writer.value("control \x01 char");
  writer.key("values");
  writer.begin_array();
  writer.value(0.1);
  writer.value(-7);
  writer.value(false);
  writer.null();
  writer.end_array();
  writer.end_object();

  const JsonValue root = parse_json(writer.str());
  EXPECT_EQ(root.at("weird \"key\"\n").as_string(), "control \x01 char");
  EXPECT_DOUBLE_EQ(root.at("values").at(0).as_double(), 0.1);
  EXPECT_EQ(root.at("values").at(1).as_int(), -7);
  EXPECT_FALSE(root.at("values").at(2).as_bool());
  EXPECT_TRUE(root.at("values").at(3).is_null());
}

TEST(JsonParse, ExactDoubleRoundTrip) {
  // %.10g (plain value()) loses bits on these; value_exact must not.
  for (const double original : {1.0 / 3.0, 0.1 + 0.2, 98.30000000000001,
                                2.2250738585072014e-305, -0.45000000000000007}) {
    JsonWriter writer;
    writer.value_exact(original);
    const double parsed = parse_json(writer.str()).as_double();
    EXPECT_EQ(parsed, original);
  }
}

TEST(JsonParse, NonFiniteDoublesRoundTripAsNull) {
  // JSON has no spelling for nan/inf: a bare `nan` token would make the
  // whole document unparseable. Both writers must emit null instead, and
  // as_double() must map null back to NaN so undefined aggregates (averages
  // over empty sets) survive a serialize/parse cycle as "undefined".
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    JsonWriter plain;
    plain.value(bad);
    EXPECT_EQ(plain.str(), "null");
    JsonWriter exact;
    exact.value_exact(bad);
    EXPECT_EQ(exact.str(), "null");
    const JsonValue parsed = parse_json(exact.str());
    EXPECT_TRUE(parsed.is_null());
    EXPECT_TRUE(std::isnan(parsed.as_double()));
  }
}

TEST(JsonParse, Uint64ViaNumberText) {
  const JsonValue value = parse_json("18446744073709551615");
  EXPECT_EQ(value.number_text(), "18446744073709551615");
  EXPECT_EQ(value.as_uint64(), 18446744073709551615ull);
  EXPECT_THROW((void)parse_json("1.5").as_uint64(), std::invalid_argument);
}

TEST(JsonParse, DuplicateKeysKeepFirst) {
  EXPECT_EQ(parse_json(R"({"k":1,"k":2})").at("k").as_int(), 1);
}

TEST(JsonParse, MalformedInputThrows) {
  for (const char* bad :
       {"", "   ", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "nulll", "01",
        "1.", "1e", "-", "\"unterminated", "\"bad \\q escape\"", "[1] trailing",
        "{\"a\":1,}", "\"\\ud800\"", "{'a':1}"}) {
    EXPECT_THROW((void)parse_json(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonParse, RejectsRawControlCharactersInStrings) {
  EXPECT_THROW((void)parse_json("\"a\nb\""), std::invalid_argument);
}

// Each nesting level is one recursion of the parser (and of the value's
// destructor): unbounded input depth used to overflow the stack.
TEST(JsonParse, DeepNestingThrowsInsteadOfOverflowing) {
  for (const char open : {'[', '{'}) {
    std::string deep(200000, open);
    if (open == '{') {
      deep.clear();
      for (int i = 0; i < 100000; ++i) deep += "{\"a\":";
    }
    try {
      (void)parse_json(deep);
      ADD_FAILURE() << "accepted " << open;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("nesting too deep"), std::string::npos)
          << e.what();
    }
  }
}

TEST(JsonParse, NestingUpToTheLimitParses) {
  const std::string at_limit =
      std::string(256, '[') + std::string(256, ']');
  EXPECT_NO_THROW((void)parse_json(at_limit));
  const std::string over = std::string(257, '[') + std::string(257, ']');
  EXPECT_THROW((void)parse_json(over), std::invalid_argument);
}

}  // namespace
}  // namespace swarmfuzz::util
