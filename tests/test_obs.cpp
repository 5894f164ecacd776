// Tests for the observability layer: the JSON builder, hierarchical
// counters, the versioned run report, and the serializers that project
// library report structs into JSON.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/obs/counters.hpp"
#include "sealpaa/obs/json.hpp"
#include "sealpaa/obs/report.hpp"
#include "sealpaa/obs/serialize.hpp"
#include "sealpaa/prob/stats.hpp"
#include "sealpaa/sim/montecarlo.hpp"
#include "sealpaa/util/cli.hpp"
#include "sealpaa/util/parallel.hpp"

namespace {

using sealpaa::obs::Counters;
using sealpaa::obs::Json;
using sealpaa::obs::RunReport;
using sealpaa::obs::ScopedTimer;
using sealpaa::util::CliArgs;

TEST(Json, ScalarsSerialize) {
  EXPECT_EQ(Json().dump(0), "null");
  EXPECT_EQ(Json(true).dump(0), "true");
  EXPECT_EQ(Json(false).dump(0), "false");
  EXPECT_EQ(Json(-42).dump(0), "-42");
  EXPECT_EQ(Json(std::uint64_t{18446744073709551615ULL}).dump(0),
            "18446744073709551615");
  EXPECT_EQ(Json(0.5).dump(0), "0.5");
  EXPECT_EQ(Json("hi").dump(0), "\"hi\"");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(0), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(0), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(0), "null");
}

TEST(Json, DoubleRoundTripsAtFullPrecision) {
  const double value = 0.1234567890123456789;
  const std::string text = Json(value).dump(0);
  EXPECT_DOUBLE_EQ(std::stod(text), value);
}

/// The text printf("%.17g") gives `value` in the C locale: what every
/// double on the wire and in the reports has always been written as.
[[nodiscard]] std::string printf_17g(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

TEST(Json, DoublesPrintExactlyAsPercent17g) {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                1e300,
                                1e-300,
                                -1e300,
                                -1e-300,
                                0.1,
                                0.35,
                                1e20,
                                3.25e-5};
  // Every power of two from 2^-1074 to 2^1023, with its predecessor.
  for (int exponent = -1074; exponent <= 1023; ++exponent) {
    const double power = std::ldexp(1.0, exponent);
    values.push_back(power);
    values.push_back(-power);
    values.push_back(std::nextafter(power, 0.0));
  }
  for (const double value : values) {
    EXPECT_EQ(Json(value).dump(0), printf_17g(value)) << printf_17g(value);
  }
  // 1M random finite bit patterns (splitmix64, the same on every
  // platform).
  std::uint64_t state = 0x5ea1'17a7'0017'6017ULL;
  int checked = 0;
  while (checked < 1'000'000) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    const double value = std::bit_cast<double>(z ^ (z >> 31));
    if (!std::isfinite(value)) continue;
    ++checked;
    ASSERT_EQ(Json(value).dump(0), printf_17g(value)) << printf_17g(value);
  }
  // Non-finite values still print null.
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(0), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(0), "null");
}

TEST(Json, IntegersAndEscapesKeepTheirBytes) {
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::min()).dump(0),
            "-9223372036854775808");
  EXPECT_EQ(Json(std::int64_t{0}).dump(0), "0");
  EXPECT_EQ(Json(std::uint64_t{0}).dump(0), "0");
  std::string every_byte;
  for (int c = 1; c < 256; ++c) every_byte.push_back(static_cast<char>(c));
  std::string expected = "\"";
  for (int c = 1; c < 256; ++c) {
    switch (c) {
      case '"': expected += "\\\""; break;
      case '\\': expected += "\\\\"; break;
      case '\b': expected += "\\b"; break;
      case '\f': expected += "\\f"; break;
      case '\n': expected += "\\n"; break;
      case '\r': expected += "\\r"; break;
      case '\t': expected += "\\t"; break;
      default:
        if (c < 0x20) {
          char code[8];
          std::snprintf(code, sizeof code, "\\u%04x", static_cast<unsigned>(c));
          expected += code;
        } else {
          expected.push_back(static_cast<char>(c));
        }
    }
  }
  expected += '"';
  EXPECT_EQ(Json::escape(every_byte), expected);
  // Keys are escaped the same way.
  Json object = Json::object();
  object.set(every_byte, Json(1));
  EXPECT_EQ(object.dump(0), "{" + expected + ":1}");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b").dump(0), "\"a\\\"b\"");
  EXPECT_EQ(Json("back\\slash").dump(0), "\"back\\\\slash\"");
  EXPECT_EQ(Json("tab\there").dump(0), "\"tab\\there\"");
  EXPECT_EQ(Json(std::string("ctrl\x01")).dump(0), "\"ctrl\\u0001\"");
}

TEST(Json, ObjectsKeepInsertionOrder) {
  Json object = Json::object();
  object.set("zulu", Json(1));
  object.set("alpha", Json(2));
  object.set("mike", Json(3));
  EXPECT_EQ(object.dump(0), "{\"zulu\":1,\"alpha\":2,\"mike\":3}");
  // Replacing a key keeps its original position.
  object.set("alpha", Json(9));
  EXPECT_EQ(object.dump(0), "{\"zulu\":1,\"alpha\":9,\"mike\":3}");
  ASSERT_NE(object.find("alpha"), nullptr);
  EXPECT_EQ(object.find("alpha")->dump(0), "9");
  EXPECT_EQ(object.find("missing"), nullptr);
  EXPECT_EQ(object.size(), 3u);
}

TEST(Json, ArraysAndNesting) {
  Json array = Json::array();
  array.push_back(Json(1));
  array.push_back(Json::object());
  EXPECT_EQ(array.dump(0), "[1,{}]");
  EXPECT_EQ(array.size(), 2u);
  EXPECT_EQ(Json::array().dump(0), "[]");
  EXPECT_EQ(Json::object().dump(0), "{}");
}

TEST(Json, PrettyPrintIndents) {
  Json object = Json::object();
  object.set("k", Json(1));
  EXPECT_EQ(object.dump(2), "{\n  \"k\": 1\n}");
}

TEST(Json, TypeMisuseThrows) {
  Json scalar(1);
  EXPECT_THROW(scalar.push_back(Json(2)), std::logic_error);
  EXPECT_THROW(scalar.set("k", Json(2)), std::logic_error);
  EXPECT_EQ(scalar.find("k"), nullptr);
}

TEST(JsonParse, RoundTripsEveryValueKind) {
  const std::string text =
      R"({"null":null,"t":true,"f":false,"i":-42,)"
      R"("u":18446744073709551615,"d":0.25,"s":"hi",)"
      R"("a":[1,[2],{"k":3}],"o":{"nested":{"deep":true}}})";
  const Json parsed = Json::parse(text);
  EXPECT_EQ(parsed.dump(0), text);  // insertion order survives the trip
}

TEST(JsonParse, NumbersKeepNativeIntegerTypes) {
  EXPECT_EQ(Json::parse("-42").integer(), -42);
  EXPECT_EQ(Json::parse("18446744073709551615").unsigned_integer(),
            18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e-3").number(), 2.5e-3);
  // A full-precision double survives a serialize/parse round trip.
  const double value = 0.99892578169237822;
  EXPECT_EQ(Json::parse(Json(value).dump(0)).number(), value);
}

TEST(JsonParse, StringEscapesAndSurrogatePairs) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\n\t")").string_value(), "a\"b\\c\n\t");
  EXPECT_EQ(Json::parse(R"("Aé")").string_value(), "A\xC3\xA9");
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").string_value(),
            "\xF0\x9F\x98\x80");  // surrogate pair -> U+1F600 as UTF-8
  EXPECT_THROW((void)Json::parse(R"("\ud83d")"), std::invalid_argument);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW((void)Json::parse(""), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("{"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("{'single':1}"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("01"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("nul"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse(R"({"dup":1,"dup":2})"),
               std::invalid_argument);
}

TEST(JsonParse, DepthLimitGuardsRecursion) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_THROW((void)Json::parse(deep, 64), std::invalid_argument);
  EXPECT_NO_THROW((void)Json::parse(deep, 128));
}

TEST(JsonParse, AccessorsValidateTypes) {
  const Json doc = Json::parse(R"({"n":1,"s":"x","a":[true]})");
  EXPECT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("a")->at(0).boolean(), true);
  EXPECT_THROW((void)doc.find("s")->integer(), std::invalid_argument);
  EXPECT_THROW((void)doc.find("n")->string_value(), std::invalid_argument);
  EXPECT_THROW((void)doc.find("a")->at(7), std::out_of_range);
  EXPECT_EQ(doc.items().size(), 3u);
}

TEST(Counters, AddNoteMaxAndRealAccumulate) {
  Counters counters;
  counters.add("sim/samples", 10);
  counters.add("sim/samples", 5);
  counters.add("sim/shards");
  counters.note_max("pool/high_water", 3);
  counters.note_max("pool/high_water", 2);  // smaller: keeps 3
  counters.add_real("sim/seconds", 0.5);
  counters.add_real("sim/seconds", 0.25);
  EXPECT_EQ(counters.value("sim/samples"), 15u);
  EXPECT_EQ(counters.value("sim/shards"), 1u);
  EXPECT_EQ(counters.value("pool/high_water"), 3u);
  EXPECT_DOUBLE_EQ(counters.real_value("sim/seconds"), 0.75);
  EXPECT_EQ(counters.value("never/written"), 0u);
  counters.clear();
  EXPECT_EQ(counters.value("sim/samples"), 0u);
}

TEST(Counters, JsonNestsPathSegments) {
  Counters counters;
  counters.add("a/b/c", 7);
  counters.add_real("a/seconds", 1.5);
  const Json tree = counters.to_json();
  const Json* a = tree.find("a");
  ASSERT_NE(a, nullptr);
  const Json* b = a->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->find("c"), nullptr);
  EXPECT_EQ(b->find("c")->dump(0), "7");
  ASSERT_NE(a->find("seconds"), nullptr);
  EXPECT_EQ(a->find("seconds")->dump(0), "1.5");
}

TEST(Counters, ScopedTimerRecordsOnScopeExit) {
  Counters counters;
  {
    ScopedTimer timer(counters, "work");
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  }
  EXPECT_GT(counters.real_value("work/wall_seconds"), 0.0);
  EXPECT_GE(counters.real_value("work/cpu_seconds"), 0.0);
}

TEST(Counters, ScopedTimerStopIsIdempotent) {
  Counters counters;
  ScopedTimer timer(counters, "once");
  timer.stop();
  const double first = counters.real_value("once/wall_seconds");
  timer.stop();  // no double accounting
  EXPECT_DOUBLE_EQ(counters.real_value("once/wall_seconds"), first);
}

TEST(RunReport, DocumentCarriesSchemaAndSections) {
  RunReport report("unit-test");
  const char* argv[] = {"prog", "--samples=100", "pos"};
  const CliArgs args(3, argv);
  report.record_args(args);
  report.section("payload").set("answer", Json(42));
  report.counters().add("events", 2);
  const Json document = report.to_json();
  ASSERT_NE(document.find("schema"), nullptr);
  EXPECT_EQ(document.find("schema")->dump(0), "\"sealpaa.run-report\"");
  EXPECT_EQ(document.find("schema_version")->dump(0), "1");
  EXPECT_EQ(document.find("tool")->dump(0), "\"unit-test\"");
  ASSERT_NE(document.find("args"), nullptr);
  EXPECT_EQ(document.find("args")->find("samples")->dump(0), "\"100\"");
  ASSERT_NE(document.find("sections"), nullptr);
  EXPECT_EQ(
      document.find("sections")->find("payload")->find("answer")->dump(0),
      "42");
  EXPECT_EQ(document.find("counters")->find("events")->dump(0), "2");
}

TEST(RunReport, SectionIsReusedNotDuplicated) {
  RunReport report("unit-test");
  report.section("s").set("a", Json(1));
  report.section("s").set("b", Json(2));
  const Json document = report.to_json();
  EXPECT_EQ(document.find("sections")->size(), 1u);
  EXPECT_EQ(document.find("sections")->find("s")->size(), 2u);
}

TEST(RunReport, WriteFileRoundTrips) {
  const std::string path = "/tmp/sealpaa_obs_report_test.json";
  {
    RunReport report("roundtrip");
    report.section("data").set("value", Json(0.5));
    report.write_file(path);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\"schema\": \"sealpaa.run-report\""),
            std::string::npos);
  EXPECT_NE(text.find("\"value\": 0.5"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
  std::remove(path.c_str());
}

TEST(RunReport, WriteFileThrowsOnBadPath) {
  RunReport report("bad-path");
  EXPECT_THROW(report.write_file("/nonexistent_dir_xyz/report.json"),
               std::runtime_error);
}

TEST(ReportPath, ExplicitFlagWins) {
  const char* argv[] = {"prog", "--json-report=/tmp/out.json"};
  const CliArgs args(2, argv);
  const auto path = sealpaa::obs::report_path(args, "DEFAULT.json");
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, "/tmp/out.json");
}

TEST(ReportPath, DefaultAndSuppression) {
  const char* none[] = {"prog"};
  EXPECT_FALSE(sealpaa::obs::report_path(CliArgs(1, none)).has_value());
  EXPECT_EQ(sealpaa::obs::report_path(CliArgs(1, none), "BENCH_x.json"),
            std::optional<std::string>("BENCH_x.json"));
  const char* suppressed[] = {"prog", "--no-json"};
  EXPECT_FALSE(sealpaa::obs::report_path(CliArgs(2, suppressed),
                                         "BENCH_x.json")
                   .has_value());
}

TEST(ReportPath, BareFlagIsRejected) {
  const char* argv[] = {"prog", "--json-report"};
  const CliArgs args(2, argv);
  EXPECT_THROW((void)sealpaa::obs::report_path(args),
               std::invalid_argument);
}

TEST(Serialize, EmptyIntervalIsNullPopulatedIsObject) {
  EXPECT_TRUE(
      sealpaa::obs::to_json(sealpaa::prob::Interval::empty_interval())
          .is_null());
  const Json populated =
      sealpaa::obs::to_json(sealpaa::prob::Interval{0.25, 0.75});
  ASSERT_NE(populated.find("low"), nullptr);
  EXPECT_EQ(populated.find("low")->dump(0), "0.25");
  EXPECT_EQ(populated.find("width")->dump(0), "0.5");
}

TEST(Serialize, MonteCarloReportProjectsMetricsAndCis) {
  using sealpaa::multibit::AdderChain;
  using sealpaa::multibit::InputProfile;
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  const AdderChain chain =
      AdderChain::homogeneous(sealpaa::adders::lpaa(5), 4);
  const auto report =
      sealpaa::sim::MonteCarloSimulator::run(chain, profile, 5000, 1);
  const Json json = sealpaa::obs::to_json(report);
  EXPECT_EQ(json.find("samples")->dump(0), "5000");
  ASSERT_NE(json.find("metrics"), nullptr);
  EXPECT_EQ(json.find("metrics")->find("cases")->dump(0), "5000");
  EXPECT_FALSE(json.find("stage_failure_ci")->is_null());

  // Zero samples: the CIs must serialize as null, not a fake interval.
  const auto empty_run =
      sealpaa::sim::MonteCarloSimulator::run(chain, profile, 0, 1);
  const Json empty_json = sealpaa::obs::to_json(empty_run);
  EXPECT_TRUE(empty_json.find("stage_failure_ci")->is_null());
  EXPECT_TRUE(empty_json.find("value_error_ci")->is_null());
}

TEST(Serialize, ThreadPoolStats) {
  sealpaa::util::ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) pool.submit([] {});
  pool.wait();
  const Json json = sealpaa::obs::to_json(pool.stats());
  EXPECT_EQ(json.find("tasks_executed")->dump(0), "8");
  EXPECT_EQ(json.find("worker_busy_seconds")->size(), 2u);
}

}  // namespace
