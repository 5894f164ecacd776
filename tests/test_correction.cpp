// GeAr error detection/correction: functional corrector and the exact
// recovery-cycle distribution DP, validated against exhaustive sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/block_error.hpp"
#include "sealpaa/gear/correction.hpp"
#include "sealpaa/multibit/blocks.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace {

using sealpaa::adders::accurate;
using sealpaa::analysis::BlockAnalysisOptions;
using sealpaa::analysis::BlockErrorModel;
using sealpaa::gear::correction_cycle_distribution;
using sealpaa::gear::expected_recovery_cycles;
using sealpaa::gear::GearAdder;
using sealpaa::gear::GearAnalyzer;
using sealpaa::gear::GearConfig;
using sealpaa::gear::GearCorrector;
using sealpaa::multibit::BlockChainSpec;
using sealpaa::multibit::exact_add;
using sealpaa::multibit::InputProfile;

TEST(Detection, FlagsExactlyTheMispredictedBlocks) {
  const GearConfig config(8, 2, 2);
  const GearCorrector corrector(config);
  const GearAdder adder(config);
  // Exhaustive: detection must fire iff the GeAr sum bits in that
  // block's result region differ from the exact sum.
  for (std::uint64_t a = 0; a < 256; ++a) {
    for (std::uint64_t b = 0; b < 256; ++b) {
      const auto failing = corrector.detect(a, b);
      const auto approx = adder.evaluate(a, b);
      const auto exact = exact_add(a, b, false, 8);
      for (int block = 1; block < config.blocks(); ++block) {
        const int start = config.result_start(block);
        const int count = block == config.blocks() - 1
                              ? config.n() - start
                              : config.r();
        std::uint64_t mask = ((1ULL << count) - 1ULL)
                             << static_cast<unsigned>(start);
        const bool wrong =
            (approx.sum_bits & mask) != (exact.sum_bits & mask);
        const bool flagged =
            std::find(failing.begin(), failing.end(), block) != failing.end();
        EXPECT_EQ(flagged, wrong)
            << "a=" << a << " b=" << b << " block=" << block;
      }
    }
  }
}

TEST(Correction, AlwaysYieldsTheExactSum) {
  const GearCorrector corrector(GearConfig(10, 3, 1));
  for (std::uint64_t a = 0; a < 1024; a += 7) {
    for (std::uint64_t b = 0; b < 1024; b += 11) {
      const auto result = corrector.evaluate(a, b);
      const auto exact = exact_add(a, b, false, 10);
      EXPECT_EQ(result.outputs.value(10), exact.value(10));
      EXPECT_EQ(result.total_cycles, 1 + result.failing_blocks);
    }
  }
}

TEST(Detection, FlagsClampedTailBlocksCorrectly) {
  // Ragged geometry: the last block's result region is narrower than R
  // and its overlap wider than P.  detect() must compare exactly the
  // clamped region — the historical bug compared P prediction bits for
  // every block and mis-flagged clamped tails.
  for (const GearConfig& config :
       {GearConfig(9, 2, 2), GearConfig(10, 4, 3), GearConfig(7, 3, 2)}) {
    const GearCorrector corrector(config);
    const GearAdder adder(config);
    const std::size_t n = static_cast<std::size_t>(config.n());
    const std::uint64_t limit = 1ULL << n;
    for (std::uint64_t a = 0; a < limit; ++a) {
      for (std::uint64_t b = 0; b < limit; ++b) {
        const auto failing = corrector.detect(a, b);
        const auto approx = adder.evaluate(a, b);
        const auto exact = exact_add(a, b, false, n);
        for (int block = 1; block < config.blocks(); ++block) {
          const int start = config.result_start(block);
          const int count = block == config.blocks() - 1
                                ? config.n() - start
                                : config.r();
          const std::uint64_t mask = ((1ULL << count) - 1ULL)
                                     << static_cast<unsigned>(start);
          const bool wrong =
              (approx.sum_bits & mask) != (exact.sum_bits & mask);
          const bool flagged = std::find(failing.begin(), failing.end(),
                                         block) != failing.end();
          ASSERT_EQ(flagged, wrong) << config.describe() << " a=" << a
                                    << " b=" << b << " block=" << block;
        }
      }
    }
  }
}

TEST(Correction, ClampedTailStillYieldsTheExactSum) {
  const GearCorrector corrector(GearConfig(10, 4, 3));
  for (std::uint64_t a = 0; a < 1024; ++a) {
    for (std::uint64_t b = 0; b < 1024; b += 3) {
      const auto result = corrector.evaluate(a, b);
      const auto exact = exact_add(a, b, false, 10);
      ASSERT_EQ(result.outputs.value(10), exact.value(10))
          << "a=" << a << " b=" << b;
      ASSERT_EQ(result.total_cycles, 1 + result.failing_blocks);
    }
  }
}

TEST(CycleDistribution, MatchesExhaustiveCounting) {
  for (const GearConfig& config :
       {GearConfig(8, 2, 2), GearConfig(8, 2, 0), GearConfig(9, 3, 3),
        GearConfig(10, 2, 2),
        // Ragged tails exercise the per-block overlap in the DP.
        GearConfig(9, 2, 2), GearConfig(10, 4, 3)}) {
    const GearCorrector corrector(config);
    const std::size_t n = static_cast<std::size_t>(config.n());
    std::map<int, std::uint64_t> histogram;
    const std::uint64_t limit = 1ULL << n;
    for (std::uint64_t a = 0; a < limit; ++a) {
      for (std::uint64_t b = 0; b < limit; ++b) {
        histogram[static_cast<int>(corrector.detect(a, b).size())]++;
      }
    }
    const auto distribution = correction_cycle_distribution(
        config, InputProfile::uniform(n, 0.5));
    const double total = static_cast<double>(limit) * static_cast<double>(limit);
    for (std::size_t c = 0; c < distribution.size(); ++c) {
      const double expected =
          static_cast<double>(histogram[static_cast<int>(c)]) / total;
      EXPECT_NEAR(distribution[c], expected, 1e-12)
          << config.describe() << " cycles=" << c;
    }
  }
}

TEST(CycleDistribution, SumsToOne) {
  const auto distribution = correction_cycle_distribution(
      GearConfig(16, 4, 4), InputProfile::uniform(16, 0.3));
  double total = 0.0;
  for (double p : distribution) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(CycleDistribution, ZeroFailuresMatchesGearSuccessProbability) {
  // P(0 failing blocks) is GearAnalyzer::analyze's success probability,
  // so it is checked against the DPs analyze does not run: the
  // cell-driven DP with accurate sub-adders, and the block model with
  // carry-in 0 wherever BlockChainSpec accepts the geometry.  Width 63
  // and the 16 overlapping windows of ACA(32, 16) exceed its rails (62
  // bits, 12 windows).
  std::size_t block_model_checked = 0;
  for (const GearConfig& config :
       {GearConfig(8, 2, 2), GearConfig(12, 3, 3), GearConfig(16, 4, 4),
        GearConfig(63, 4, 4), GearConfig(63, 1, 12), GearConfig::aca(32, 16)}) {
    const auto profile = InputProfile::uniform_with_cin(
        static_cast<std::size_t>(config.n()), 0.5, 0.0);
    const auto distribution =
        correction_cycle_distribution(config, profile);
    const auto by_cell =
        GearAnalyzer::analyze_with_cell(config, accurate(), profile);
    EXPECT_NEAR(distribution[0], 1.0 - by_cell.p_error_sum_only, 1e-12)
        << config.describe();
    EXPECT_NEAR(distribution[0], 1.0 - by_cell.p_error_exact_dp, 1e-12)
        << config.describe();
    std::optional<BlockChainSpec> spec;
    try {
      spec = config.to_blocks();
    } catch (const std::invalid_argument&) {
      continue;
    }
    BlockAnalysisOptions options;
    options.compute_pmf = false;
    EXPECT_NEAR(distribution[0],
                1.0 - BlockErrorModel::analyze(*spec, profile, options).p_error,
                1e-12)
        << config.describe();
    ++block_model_checked;
  }
  EXPECT_EQ(block_model_checked, 3u);
}

TEST(ExpectedCycles, MatchesSumOfBlockFailureProbabilities) {
  // Linearity of expectation: E[#failures] = sum_i P(B_i), regardless of
  // the correlations between blocks.
  const GearConfig config(12, 2, 2);
  const auto profile = InputProfile::uniform(12, 0.5);
  const auto analysis = GearAnalyzer::analyze(config, profile);
  double expected = 0.0;
  for (double f : analysis.block_failure) expected += f;
  EXPECT_NEAR(expected_recovery_cycles(config, profile), expected, 1e-12);
}

TEST(ExpectedCycles, DecreasesWithOverlap) {
  const auto profile = InputProfile::uniform(8, 0.5);
  const double p0 = expected_recovery_cycles(GearConfig(8, 2, 0), profile);
  const double p2 = expected_recovery_cycles(GearConfig(8, 2, 2), profile);
  EXPECT_GT(p0, p2);
}

TEST(CycleDistribution, SingleBlockNeverFails) {
  const auto distribution = correction_cycle_distribution(
      GearConfig(8, 8, 0), InputProfile::uniform(8, 0.5));
  ASSERT_EQ(distribution.size(), 1u);
  EXPECT_NEAR(distribution[0], 1.0, 1e-12);
}

TEST(CycleDistribution, WidthMismatchThrows) {
  EXPECT_THROW((void)correction_cycle_distribution(
                   GearConfig(8, 2, 2), InputProfile::uniform(6, 0.5)),
               std::invalid_argument);
}

}  // namespace
