// Unit tests for the utility layer (table renderer, formatting, CSV,
// CLI parsing, op counters).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sealpaa/util/cli.hpp"
#include "sealpaa/util/op_counter.hpp"
#include "sealpaa/util/csv.hpp"
#include "sealpaa/util/format.hpp"
#include "sealpaa/util/table.hpp"
#include "sealpaa/util/timer.hpp"

namespace {

using sealpaa::util::Align;
using sealpaa::util::CliArgs;
using sealpaa::util::OpCounter;
using sealpaa::util::OpCounts;
using sealpaa::util::TextTable;

TEST(TextTable, RendersHeaderAndRows) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"bb", "22"});
  const std::string out = table.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| alpha"), std::string::npos);
  EXPECT_NE(out.find("| bb"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, RightAlignmentPadsLeft) {
  TextTable table({"n"});
  table.set_align(0, Align::Right);
  table.add_row({"7"});
  table.add_row({"100"});
  const std::string out = table.str();
  EXPECT_NE(out.find("|   7 |"), std::string::npos);
  EXPECT_NE(out.find("| 100 |"), std::string::npos);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable table({"a", "b", "c"});
  table.add_row({"x"});
  EXPECT_NO_THROW((void)table.str());
}

TEST(TextTable, SeparatorEmitsRule) {
  TextTable table({"a"});
  table.add_row({"1"});
  table.add_separator();
  table.add_row({"2"});
  const std::string out = table.str();
  // header rule + top + separator + bottom = 4 rules
  std::size_t rules = 0;
  std::istringstream stream(out);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(Format, Fixed) {
  EXPECT_EQ(sealpaa::util::fixed(0.123456, 3), "0.123");
  EXPECT_EQ(sealpaa::util::fixed(1.0, 2), "1.00");
}

TEST(Format, EngineeringStyle) {
  EXPECT_EQ(sealpaa::util::engineering(255.0), "255");
  EXPECT_EQ(sealpaa::util::engineering(1.04e9), "1.04x10^9");
  EXPECT_EQ(sealpaa::util::engineering(6.87e10), "68.7x10^9");
}

TEST(Format, WithCommas) {
  EXPECT_EQ(sealpaa::util::with_commas(0), "0");
  EXPECT_EQ(sealpaa::util::with_commas(999), "999");
  EXPECT_EQ(sealpaa::util::with_commas(1000), "1,000");
  EXPECT_EQ(sealpaa::util::with_commas(1234567), "1,234,567");
}

TEST(Format, Duration) {
  EXPECT_EQ(sealpaa::util::duration(2.5e-9), "2.5 ns");
  EXPECT_EQ(sealpaa::util::duration(3.2e-6), "3.2 us");
  EXPECT_EQ(sealpaa::util::duration(0.004), "4.00 ms");
  EXPECT_EQ(sealpaa::util::duration(1.5), "1.500 s");
}

TEST(Csv, EscapesSpecialCharacters) {
  const std::string path = "/tmp/sealpaa_csv_test.csv";
  {
    sealpaa::util::CsvWriter writer(path);
    writer.write_row({"plain", "with,comma", "with\"quote"});
    writer.close();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"with,comma\",\"with\"\"quote\"");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(sealpaa::util::CsvWriter("/nonexistent_dir_xyz/file.csv"),
               std::runtime_error);
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta=4",
                        "--verbose", "pos1", "pos2"};
  const CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 4);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 3.0);
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, BooleanFlagsRejectNonBooleans) {
  const char* argv[] = {"prog", "--a=true", "--b=1",  "--c=yes", "--d=false",
                        "--e=0",    "--f=no", "--search=beam", "--g=TRUE",
                        "--h="};
  const CliArgs args(10, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_TRUE(args.get_bool("b", false));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
  EXPECT_FALSE(args.get_bool("e", true));
  EXPECT_FALSE(args.get_bool("f", true));
  // A word that is not a boolean is an error, not false.
  EXPECT_THROW((void)args.get_bool("search", false), std::invalid_argument);
  EXPECT_THROW((void)args.get_bool("g", false), std::invalid_argument);
  EXPECT_THROW((void)args.get_bool("h", false), std::invalid_argument);
}

TEST(Cli, StrictIntegerParsingRejectsGarbage) {
  const char* argv[] = {"prog", "--samples=1e6", "--grain=12cores",
                        "--seed=0x10", "--width= 8"};
  const CliArgs args(5, argv);
  // "1e6" used to silently parse as 1 via strtoll — the motivating bug.
  EXPECT_THROW((void)args.get_int("samples", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_uint("samples", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("grain", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("seed", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("width", 0), std::invalid_argument);
}

TEST(Cli, StrictIntegerParsingRejectsOutOfRange) {
  const char* argv[] = {"prog", "--big=99999999999999999999",
                        "--neg=-1"};
  const CliArgs args(3, argv);
  EXPECT_THROW((void)args.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_uint("big", 0), std::invalid_argument);
  EXPECT_EQ(args.get_int("neg", 0), -1);
  // get_uint refuses negatives rather than wrapping.
  EXPECT_THROW((void)args.get_uint("neg", 0), std::invalid_argument);
}

TEST(Cli, StrictDoubleParsingRejectsGarbage) {
  const char* argv[] = {"prog", "--p=0.5x", "--q=", "--r=nan",
                        "--s=1e999", "--ok=2.5e-1"};
  const CliArgs args(6, argv);
  EXPECT_THROW((void)args.get_double("p", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("q", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("r", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("s", 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(args.get_double("ok", 0.0), 0.25);
}

TEST(Cli, FallbacksStillApplyWhenFlagAbsent) {
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_EQ(args.get_uint("missing", 9u), 9u);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 0.25), 0.25);
}

TEST(Cli, ExpectFlagsRejectsUnknownFlag) {
  // "--thread=8" (singular) used to be silently ignored; the run would
  // proceed single-threaded with no hint anything was wrong.
  const char* argv[] = {"prog", "--thread=8", "pos"};
  const CliArgs args(3, argv);
  EXPECT_THROW(args.expect_flags({"threads", "samples"}),
               std::invalid_argument);
  try {
    args.expect_flags({"threads", "samples"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--thread"), std::string::npos);
  }
}

TEST(Cli, ExpectFlagsAcceptsKnownFlags) {
  const char* argv[] = {"prog", "--threads=8", "--verbose"};
  const CliArgs args(3, argv);
  EXPECT_NO_THROW(args.expect_flags({"threads", "verbose", "unused"}));
  EXPECT_EQ(args.flags().size(), 2u);
}

TEST(Counters, AccumulateAndMerge) {
  OpCounter counter;
  counter.count_mul(3);
  counter.count_add(2);
  counter.count_cmp();
  counter.note_live(5);
  counter.note_live(2);  // smaller: keeps peak 5
  const OpCounts& counts = counter.counts();
  EXPECT_EQ(counts.multiplications, 3u);
  EXPECT_EQ(counts.additions, 2u);
  EXPECT_EQ(counts.comparisons, 1u);
  EXPECT_EQ(counts.memory_units, 5u);
  EXPECT_EQ(counts.total_arithmetic(), 6u);

  OpCounts other;
  other.multiplications = 10;
  other.memory_units = 3;
  const OpCounts merged = counts + other;
  EXPECT_EQ(merged.multiplications, 13u);
  EXPECT_EQ(merged.memory_units, 5u);  // max, not sum

  counter.reset();
  EXPECT_EQ(counter.counts().total_arithmetic(), 0u);
}

TEST(Counters, SummaryIsHumanReadable) {
  OpCounter counter;
  counter.count_mul(1500);
  EXPECT_NE(counter.counts().summary().find("mul=1,500"), std::string::npos);
}

TEST(Timer, MeasuresElapsedTime) {
  sealpaa::util::WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GT(timer.elapsed_seconds(), 0.0);
  timer.reset();
  EXPECT_LT(timer.elapsed_seconds(), 1.0);
}

}  // namespace
