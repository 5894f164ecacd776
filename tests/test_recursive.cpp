// Golden-number validation of the recursive analyzer against the paper:
// the full Table 4 trace and all 42 analytical cells of Table 7, plus
// invariants and cross-engine checks.
#include <gtest/gtest.h>

#include <cmath>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/baseline/weighted_exhaustive.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/prob/rng.hpp"

namespace {

using sealpaa::adders::accurate;
using sealpaa::adders::lpaa;
using sealpaa::analysis::AnalyzeOptions;
using sealpaa::analysis::RecursiveAnalyzer;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;

TEST(Table4, FourBitLpaa1TraceMatchesThePaper) {
  // Table 4: P(A) = {0.9, 0.5, 0.4, 0.8}, P(B) = {0.8, 0.7, 0.6, 0.9},
  // P(Cin) = 0.5.
  const InputProfile profile({0.9, 0.5, 0.4, 0.8}, {0.8, 0.7, 0.6, 0.9}, 0.5);
  AnalyzeOptions options;
  options.record_trace = true;
  const auto result = RecursiveAnalyzer::analyze(lpaa(1), profile, options);

  ASSERT_EQ(result.trace.size(), 4u);
  // Stage 0 carry-in (0.5, 0.5) -> carry-out (0.02, 0.85).
  EXPECT_NEAR(result.trace[0].carry_in.c0, 0.5, 1e-12);
  EXPECT_NEAR(result.trace[0].carry_in.c1, 0.5, 1e-12);
  EXPECT_NEAR(result.trace[0].carry_out.c0, 0.02, 1e-12);
  EXPECT_NEAR(result.trace[0].carry_out.c1, 0.85, 1e-12);
  // Stage 1 -> (0.1305, 0.7295).
  EXPECT_NEAR(result.trace[1].carry_out.c0, 0.1305, 1e-12);
  EXPECT_NEAR(result.trace[1].carry_out.c1, 0.7295, 1e-12);
  // Stage 2 -> (0.2064, 0.58574).
  EXPECT_NEAR(result.trace[2].carry_out.c0, 0.2064, 1e-12);
  EXPECT_NEAR(result.trace[2].carry_out.c1, 0.58574, 1e-12);
  // Final P(Succ) = 0.738476.
  EXPECT_NEAR(result.p_success, 0.738476, 1e-9);
  EXPECT_NEAR(result.p_error, 1.0 - 0.738476, 1e-9);
}

struct Table7Case {
  int lpaa;
  int bits;
  double p_error_analytical;
  int printed_digits = 5;  // Table 7 truncates to this many decimals
};

// All analytical cells of Table 7 (p = 0.1 for every input bit).
const Table7Case kTable7[] = {
    {1, 2, 0.30780},  {1, 4, 0.53090},  {1, 6, 0.68240},  {1, 8, 0.78498},
    {1, 10, 0.85443}, {1, 12, 0.90145},
    {2, 2, 0.9271, 4}, {2, 4, 0.99468},  {2, 6, 0.99961},  {2, 8, 0.99997},
    {2, 10, 0.99999}, {2, 12, 0.99999},
    {3, 2, 0.95707},  {3, 4, 0.99763},  {3, 6, 0.99986},  {3, 8, 0.99999},
    {3, 10, 0.99999}, {3, 12, 0.99999},
    {4, 2, 0.31851},  {4, 4, 0.54033},  {4, 6, 0.68999},  {4, 8, 0.79092},
    {4, 10, 0.85899}, {4, 12, 0.90490},
    {5, 2, 0.27000},  {5, 4, 0.40950},  {5, 6, 0.52170},  {5, 8, 0.61258},
    {5, 10, 0.68618}, {5, 12, 0.74581},
    {6, 2, 0.1143, 4}, {6, 4, 0.13533},  {6, 6, 0.15266},  {6, 8, 0.16953},
    {6, 10, 0.18605}, {6, 12, 0.20225},
    {7, 2, 0.01980},  {7, 4, 0.02333},  {7, 6, 0.02685},  {7, 8, 0.03035},
    {7, 10, 0.03385}, {7, 12, 0.03733},
};

TEST(Table7, AllFortyTwoAnalyticalCellsMatchThePaper) {
  for (const Table7Case& c : kTable7) {
    const InputProfile profile =
        InputProfile::uniform(static_cast<std::size_t>(c.bits), 0.1);
    const double p_error =
        RecursiveAnalyzer::error_probability(lpaa(c.lpaa), profile);
    // The paper's table prints `printed_digits` decimals, truncating some
    // entries and rounding others (it was compiled by hand), so accept
    // one unit in the last printed place.
    const double tolerance = std::pow(10.0, -c.printed_digits) + 1e-12;
    EXPECT_NEAR(p_error, c.p_error_analytical, tolerance)
        << "LPAA" << c.lpaa << " N=" << c.bits << " computed " << p_error;
  }
}

TEST(Invariants, AccurateAdderNeverErrs) {
  sealpaa::prob::Xoshiro256StarStar rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t width = 1 + static_cast<std::size_t>(trial) % 16;
    const InputProfile profile = InputProfile::random(width, rng);
    const auto result = RecursiveAnalyzer::analyze(accurate(), profile);
    EXPECT_NEAR(result.p_success, 1.0, 1e-12);
    EXPECT_NEAR(result.p_error, 0.0, 1e-12);
  }
}

TEST(Invariants, SuccessMassIsMonotoneNonIncreasing) {
  sealpaa::prob::Xoshiro256StarStar rng(11);
  for (int cell_index = 1; cell_index <= 7; ++cell_index) {
    const InputProfile profile = InputProfile::random(12, rng);
    AnalyzeOptions options;
    options.record_trace = true;
    const auto result =
        RecursiveAnalyzer::analyze(lpaa(cell_index), profile, options);
    double previous = 1.0;
    for (const auto& stage : result.trace) {
      const double mass = stage.carry_out.success_mass();
      EXPECT_LE(mass, previous + 1e-12) << "LPAA" << cell_index;
      previous = mass;
    }
    // P(Succ) uses the final IPM, bounded by the pre-final success mass.
    EXPECT_LE(result.p_success,
              result.trace[result.trace.size() - 2].carry_out.success_mass() +
                  1e-12);
  }
}

TEST(Invariants, SingleStageMatchesDirectTruthTableSum) {
  // For N=1 the success probability is just the probability of drawing a
  // success row.
  const double pa = 0.35;
  const double pb = 0.6;
  const double pc = 0.25;
  const InputProfile profile({pa}, {pb}, pc);
  for (int i = 1; i <= 7; ++i) {
    double expected = 0.0;
    for (std::size_t row = 0; row < 8; ++row) {
      if (!lpaa(i).row_is_success(row)) continue;
      const double wa = (row & 4U) != 0 ? pa : 1 - pa;
      const double wb = (row & 2U) != 0 ? pb : 1 - pb;
      const double wc = (row & 1U) != 0 ? pc : 1 - pc;
      expected += wa * wb * wc;
    }
    EXPECT_NEAR(RecursiveAnalyzer::analyze(lpaa(i), profile).p_success,
                expected, 1e-14)
        << "LPAA" << i;
  }
}

TEST(CrossValidation, MatchesWeightedExhaustiveOnRandomProfiles) {
  using sealpaa::baseline::WeightedExhaustive;
  sealpaa::prob::Xoshiro256StarStar rng(2017);
  for (int cell_index = 1; cell_index <= 7; ++cell_index) {
    for (std::size_t width : {1u, 2u, 3u, 5u, 8u}) {
      const InputProfile profile = InputProfile::random(width, rng);
      const AdderChain chain =
          AdderChain::homogeneous(lpaa(cell_index), width);
      const double analytical =
          RecursiveAnalyzer::analyze(chain, profile).p_success;
      const double exhaustive =
          WeightedExhaustive::analyze(chain, profile).p_stage_success;
      EXPECT_NEAR(analytical, exhaustive, 1e-12)
          << "LPAA" << cell_index << " width " << width;
    }
  }
}

TEST(CrossValidation, HybridChainMatchesWeightedExhaustive) {
  using sealpaa::baseline::WeightedExhaustive;
  const AdderChain chain(
      {lpaa(7), lpaa(7), lpaa(6), lpaa(1), accurate(), lpaa(3)});
  sealpaa::prob::Xoshiro256StarStar rng(99);
  const InputProfile profile = InputProfile::random(6, rng);
  const double analytical =
      RecursiveAnalyzer::analyze(chain, profile).p_success;
  const double exhaustive =
      WeightedExhaustive::analyze(chain, profile).p_stage_success;
  EXPECT_NEAR(analytical, exhaustive, 1e-12);
}

TEST(HybridConsistency, HybridOfIdenticalCellsEqualsHomogeneous) {
  const InputProfile profile = InputProfile::uniform(8, 0.3);
  const AdderChain hybrid(std::vector<sealpaa::adders::AdderCell>(8, lpaa(4)));
  const double a = RecursiveAnalyzer::analyze(hybrid, profile).p_error;
  const double b = RecursiveAnalyzer::error_probability(lpaa(4), profile);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Validation, WidthMismatchThrows) {
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  const AdderChain chain = AdderChain::homogeneous(lpaa(1), 5);
  EXPECT_THROW((void)RecursiveAnalyzer::analyze(chain, profile),
               std::invalid_argument);
}

TEST(StageLoss, SumsToErrorProbabilityAndLocatesWeakStages) {
  const InputProfile profile({0.5, 0.5, 0.5, 0.5}, {0.5, 0.5, 0.5, 0.5}, 0.5);
  const AdderChain chain(
      {accurate(), lpaa(2), accurate(), accurate()});
  AnalyzeOptions options;
  options.record_trace = true;
  const auto result = RecursiveAnalyzer::analyze(chain, profile, options);
  const auto losses = sealpaa::analysis::stage_loss_report(result);
  ASSERT_EQ(losses.size(), 4u);
  double total = 0.0;
  for (double loss : losses) total += loss;
  EXPECT_NEAR(total, result.p_error, 1e-14);
  // Only the LPAA2 stage loses mass.
  EXPECT_NEAR(losses[0], 0.0, 1e-14);
  EXPECT_GT(losses[1], 0.1);
  EXPECT_NEAR(losses[2], 0.0, 1e-14);
  EXPECT_NEAR(losses[3], 0.0, 1e-14);
}

TEST(StageLoss, RequiresTrace) {
  const auto result = RecursiveAnalyzer::analyze(
      lpaa(1), InputProfile::uniform(4, 0.5));
  EXPECT_THROW((void)sealpaa::analysis::stage_loss_report(result),
               std::invalid_argument);
}

TEST(FinalCarry, ComposabilityAcrossSplitChains) {
  // Analyzing [0..7] must equal analyzing [0..3] then feeding its final
  // carry state into [4..7] — the recursion's defining property.
  const InputProfile full = InputProfile::uniform(8, 0.2);
  const auto whole = RecursiveAnalyzer::analyze(lpaa(6), full);

  const InputProfile low = InputProfile::uniform(4, 0.2);
  const auto head = RecursiveAnalyzer::analyze(lpaa(6), low);

  sealpaa::analysis::CarryState carry = head.final_carry;
  const auto mkl = sealpaa::analysis::MklMatrices::from_cell(lpaa(6));
  const auto weights = sealpaa::analysis::operand_weights(0.2, 0.2);
  double p_success = 0.0;
  for (int i = 0; i < 4; ++i) {
    if (i == 3) {
      p_success = sealpaa::analysis::final_success(mkl, weights, carry);
    }
    carry = sealpaa::analysis::advance_stage(mkl, weights, carry);
  }
  EXPECT_NEAR(p_success, whole.p_success, 1e-14);
}

}  // namespace
