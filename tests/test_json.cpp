#include "json/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace json = synapse::json;

namespace {

/// Documents covering every value kind, escapes, UTF-8, nesting,
/// duplicate keys and number edge cases; each must survive a
/// parse/dump/parse round trip.
const std::vector<std::string>& fixtures() {
  static const std::vector<std::string> docs = {
      "null",
      "true",
      "false",
      "42",
      "-3.25",
      "1e6",
      "\"hi\"",
      R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})",
      R"("a\"b\\c\nd\teA")",
      R"("é")",
      R"("€")",
      R"("Aé€")",
      R"({"s": "x", "n": 2.5, "b": true})",
      R"({"arr":[1,2.5,"s",true,null],"nested":{"k":"v"},"z":-7})",
      R"({"a":[1,{"b":[]},{}],"c":"d"})",
      "[]",
      "{}",
      "[[[[[1]]]]]",
      R"({"dup":1,"dup":2,"dup":3})",
      R"({"x":0.0,"y":1e-12,"z":1e15,"w":-2.5e9})",
      R"("az")",
      R"("\u00e9")",
      R"("A\u00e9\u20ac")",
      R"("a\u0000z")",
  };
  return docs;
}

}  // namespace

TEST(Json, ParseScalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_EQ(json::parse("true").as_bool(), true);
  EXPECT_EQ(json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(json::parse("42").as_double(), 42.0);
  EXPECT_DOUBLE_EQ(json::parse("-3.25").as_double(), -3.25);
  EXPECT_DOUBLE_EQ(json::parse("1e6").as_double(), 1e6);
  EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNested) {
  const auto v = json::parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  EXPECT_EQ(v["a"].size(), 3u);
  EXPECT_DOUBLE_EQ(v["a"].at(0).as_double(), 1.0);
  EXPECT_EQ(v["a"].at(2)["b"].as_string(), "c");
  EXPECT_TRUE(v["d"]["e"].is_null());
}

TEST(Json, ParseStringEscapes) {
  const auto v = json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd\teA");
}

TEST(Json, UnicodeEscapeUtf8) {
  EXPECT_EQ(json::parse(R"("é")").as_string(), "\xc3\xa9");   // é
  EXPECT_EQ(json::parse(R"("€")").as_string(), "\xe2\x82\xac");  // €
}

TEST(Json, ParseErrorsCarryLocation) {
  try {
    json::parse("{\n  \"a\": ,\n}");
    FAIL() << "expected JsonError";
  } catch (const json::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_THROW(json::parse(""), json::JsonError);
  EXPECT_THROW(json::parse("{"), json::JsonError);
  EXPECT_THROW(json::parse("[1,]"), json::JsonError);
  EXPECT_THROW(json::parse("{\"a\":1} trailing"), json::JsonError);
  EXPECT_THROW(json::parse("tru"), json::JsonError);
  EXPECT_THROW(json::parse("'single'"), json::JsonError);
}

TEST(Json, TypeMismatchThrows) {
  const auto v = json::parse("{\"n\": 1}");
  EXPECT_THROW(v.as_string(), json::JsonError);
  EXPECT_THROW(v["n"].as_array(), json::JsonError);
  EXPECT_THROW(v["missing"], json::JsonError);
  EXPECT_THROW(v["n"].at(0), json::JsonError);
}

TEST(Json, GetOrDefaults) {
  const auto v = json::parse(R"({"s": "x", "n": 2.5, "b": true})");
  EXPECT_EQ(v.get_or("s", std::string("d")), "x");
  EXPECT_EQ(v.get_or("absent", std::string("d")), "d");
  EXPECT_DOUBLE_EQ(v.get_or("n", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(v.get_or("s", 9.0), 9.0);  // wrong type -> default
  EXPECT_EQ(v.get_or("b", false), true);
}

TEST(Json, DumpCompactRoundTrip) {
  const std::string doc =
      R"({"arr":[1,2.5,"s",true,null],"nested":{"k":"v"},"z":-7})";
  const auto v = json::parse(doc);
  const auto again = json::parse(json::dump(v));
  EXPECT_TRUE(v == again);
}

TEST(Json, DumpPrettyRoundTrip) {
  const auto v = json::parse(R"({"a":[1,{"b":[]},{}],"c":"d"})");
  const std::string pretty = json::dump(v, 2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_TRUE(json::parse(pretty) == v);
}

TEST(Json, IntegersPrintWithoutDecimalPoint) {
  json::Object o;
  o["n"] = 1234567890;
  const std::string s = json::dump(json::Value(std::move(o)));
  EXPECT_EQ(s, "{\"n\":1234567890}");
}

TEST(Json, NanAndInfBecomeNull) {
  json::Object o;
  o["nan"] = std::nan("");
  o["inf"] = INFINITY;
  const auto round = json::parse(json::dump(json::Value(std::move(o))));
  EXPECT_TRUE(round["nan"].is_null());
  EXPECT_TRUE(round["inf"].is_null());
}

TEST(Json, ControlCharsEscaped) {
  json::Value v(std::string("a\x01z"));
  EXPECT_EQ(json::dump(v), "\"a\\u0001z\"");
  EXPECT_EQ(json::parse(json::dump(v)).as_string(), "a\x01z");
}

TEST(Json, MutableIndexingCreatesObjects) {
  json::Value v;  // null
  v["a"]["b"] = 3;
  EXPECT_DOUBLE_EQ(v["a"]["b"].as_double(), 3.0);
}

TEST(Json, FileRoundTrip) {
  const std::string path = "/tmp/synapse_json_test.json";
  json::Object o;
  o["k"] = json::Array{1, 2, 3};
  json::save_file(path, json::Value(o));
  const auto loaded = json::load_file(path);
  ::unlink(path.c_str());
  EXPECT_TRUE(loaded == json::Value(o));
}

TEST(Json, LoadMissingFileThrows) {
  EXPECT_THROW(json::load_file("/no/such/file.json"), json::JsonError);
}

// Property-style sweep: numbers of widely varying magnitude survive a
// dump/parse round trip within double precision.
class JsonNumberRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(JsonNumberRoundTrip, Exact) {
  const double x = GetParam();
  json::Object o;
  o["x"] = x;
  const auto round = json::parse(json::dump(json::Value(std::move(o))));
  EXPECT_DOUBLE_EQ(round["x"].as_double(), x);
}

INSTANTIATE_TEST_SUITE_P(
    Magnitudes, JsonNumberRoundTrip,
    ::testing::Values(0.0, 1.0, -1.0, 0.1, 1e-12, 1e15, -2.5e9, 3.14159265358979,
                      1234567890123.0, 6.02e23));

TEST(Json, FixtureDocumentsRoundTrip) {
  for (const auto& doc : fixtures()) {
    const json::Value v = json::parse(doc);
    const std::string text = json::dump(v);
    // Value equality plus byte-identical re-dumps pin ordering and
    // number formatting too.
    EXPECT_TRUE(json::parse(text) == v) << doc;
    EXPECT_EQ(json::dump(json::parse(text)), text) << doc;
  }
  const json::Value nested = json::parse("[[[[[1]]]]]");
  EXPECT_DOUBLE_EQ(nested.at(0).at(0).at(0).at(0).at(0).as_double(), 1.0);
  const json::Value nums =
      json::parse(R"({"x":0.0,"y":1e-12,"z":1e15,"w":-2.5e9})");
  EXPECT_EQ(nums["x"].as_double(), 0.0);
  EXPECT_EQ(nums["y"].as_double(), 1e-12);
  EXPECT_EQ(nums["z"].as_double(), 1e15);
  EXPECT_EQ(nums["w"].as_double(), -2.5e9);
  EXPECT_EQ(json::parse(R"("a\u0000z")").as_string(), std::string("a\0z", 3));
}

TEST(Json, RandomDocumentsRoundTrip) {
  // Seeded generator of flat objects over every value kind: dump, then
  // the reparse must equal the original DOM.
  std::mt19937 rng(20260807);
  for (int trial = 0; trial < 200; ++trial) {
    json::Object o;
    const int n = std::uniform_int_distribution<int>(0, 6)(rng);
    for (int i = 0; i < n; ++i) {
      const std::string key = "k" + std::to_string(i);
      switch (std::uniform_int_distribution<int>(0, 4)(rng)) {
        case 0: o[key] = nullptr; break;
        case 1: o[key] = (rng() & 1) == 0; break;
        case 2:
          o[key] = std::uniform_real_distribution<double>(-1e9, 1e9)(rng);
          break;
        case 3: o[key] = "s\t\"\\" + std::to_string(rng() % 1000); break;
        default: {
          json::Array a;
          const int len = std::uniform_int_distribution<int>(0, 5)(rng);
          for (int k = 0; k < len; ++k) a.push_back(k * 0.5);
          o[key] = std::move(a);
        }
      }
    }
    const json::Value v(std::move(o));
    const std::string doc = json::dump(v);
    EXPECT_TRUE(json::parse(doc) == v) << doc;
  }
}

TEST(Json, MalformedDocumentsReportLineAndColumn) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"", "parse error at line 1:1: invalid value"},
      {"{", "parse error at line 1:2: unexpected end of input"},
      {"[1,]", "parse error at line 1:4: invalid value"},
      {"{\"a\":1} trailing", "parse error at line 1:9: trailing characters"},
      {"tru", "parse error at line 1:1: invalid literal"},
      {"'single'", "parse error at line 1:1: invalid value"},
      {"{\n  \"a\": ,\n}", "parse error at line 2:8: invalid value"},
  };
  for (const auto& [doc, message] : bad) {
    try {
      json::parse(doc);
      ADD_FAILURE() << "accepted: " << doc;
    } catch (const json::JsonError& e) {
      EXPECT_EQ(std::string(e.what()), message) << doc;
    }
  }
}

TEST(Json, DuplicateKeysLastWins) {
  const json::Value v = json::parse(R"({"dup":1,"dup":2,"dup":3})");
  EXPECT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v["dup"].as_double(), 3.0);
}

TEST(Json, ParsesFromAView) {
  // The view need not be NUL-terminated or span a whole string.
  const std::string text = R"(xx{"k":[1,2]}yy)";
  const json::Value v = json::parse(std::string_view(text).substr(2, 11));
  EXPECT_EQ(v["k"].size(), 2u);
}
