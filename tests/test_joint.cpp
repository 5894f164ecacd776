// The joint (approximate carry, exact carry) DP: cross-checks against
// both the recursive analyzer and full weighted enumeration, plus the
// exact error moments of ErrorPmf against the same enumeration.
#include <gtest/gtest.h>

#include <cmath>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/analysis/joint.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/baseline/weighted_exhaustive.hpp"
#include "sealpaa/prob/rng.hpp"

namespace {

using sealpaa::adders::accurate;
using sealpaa::adders::lpaa;
using sealpaa::analysis::JointCarryAnalyzer;
using sealpaa::analysis::propagate_error_pmf;
using sealpaa::analysis::RecursiveAnalyzer;
using sealpaa::baseline::WeightedExhaustive;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;

TEST(JointDp, StageSuccessAgreesWithRecursiveAnalyzer) {
  sealpaa::prob::Xoshiro256StarStar rng(41);
  for (int cell = 1; cell <= 7; ++cell) {
    const InputProfile profile = InputProfile::random(10, rng);
    const AdderChain chain = AdderChain::homogeneous(lpaa(cell), 10);
    const auto joint = JointCarryAnalyzer::analyze(chain, profile);
    const auto recursive = RecursiveAnalyzer::analyze(chain, profile);
    EXPECT_NEAR(joint.p_stage_success, recursive.p_success, 1e-13)
        << "LPAA" << cell;
  }
}

TEST(JointDp, ValueCorrectnessAgreesWithWeightedExhaustive) {
  sealpaa::prob::Xoshiro256StarStar rng(43);
  for (int cell = 1; cell <= 7; ++cell) {
    for (std::size_t width : {2u, 4u, 7u}) {
      const InputProfile profile = InputProfile::random(width, rng);
      const AdderChain chain = AdderChain::homogeneous(lpaa(cell), width);
      const auto joint = JointCarryAnalyzer::analyze(chain, profile);
      const auto oracle = WeightedExhaustive::analyze(chain, profile);
      EXPECT_NEAR(joint.p_value_correct, oracle.p_value_correct, 1e-12)
          << "LPAA" << cell << " width " << width;
      EXPECT_NEAR(joint.p_sum_bits_correct, oracle.p_sum_bits_correct, 1e-12)
          << "LPAA" << cell << " width " << width;
    }
  }
}

TEST(JointDp, ValueCorrectnessAtLeastStageSuccess) {
  // A fully successful run is value-correct; masking can only add mass.
  sealpaa::prob::Xoshiro256StarStar rng(47);
  for (int cell = 1; cell <= 7; ++cell) {
    const InputProfile profile = InputProfile::random(12, rng);
    const AdderChain chain = AdderChain::homogeneous(lpaa(cell), 12);
    const auto joint = JointCarryAnalyzer::analyze(chain, profile);
    EXPECT_GE(joint.p_value_correct, joint.p_stage_success - 1e-13)
        << "LPAA" << cell;
    EXPECT_GE(joint.p_sum_bits_correct, joint.p_value_correct - 1e-13)
        << "LPAA" << cell;
  }
}

TEST(JointDp, ExactChainIsPerfect) {
  const InputProfile profile = InputProfile::uniform(16, 0.37);
  const AdderChain chain = AdderChain::homogeneous(accurate(), 16);
  const auto joint = JointCarryAnalyzer::analyze(chain, profile);
  EXPECT_NEAR(joint.p_value_correct, 1.0, 1e-13);
  EXPECT_NEAR(joint.p_stage_success, 1.0, 1e-13);
}

// The exact error moments come from ErrorPmf; these pin its mean and
// mean squared error to full weighted enumeration.

TEST(Moments, AgreeWithWeightedExhaustive) {
  sealpaa::prob::Xoshiro256StarStar rng(53);
  for (int cell = 1; cell <= 7; ++cell) {
    for (std::size_t width : {2u, 4u, 6u}) {
      const InputProfile profile = InputProfile::random(width, rng);
      const AdderChain chain = AdderChain::homogeneous(lpaa(cell), width);
      const auto pmf = propagate_error_pmf(chain, profile);
      const auto oracle = WeightedExhaustive::analyze(chain, profile);
      EXPECT_NEAR(pmf.mean_error(), oracle.mean_error, 1e-9)
          << "LPAA" << cell << " width " << width;
      EXPECT_NEAR(pmf.mean_squared_error(), oracle.mean_squared_error,
                  1e-7 * (1.0 + oracle.mean_squared_error))
          << "LPAA" << cell << " width " << width;
    }
  }
}

TEST(Moments, HybridChainsSupported) {
  sealpaa::prob::Xoshiro256StarStar rng(59);
  const AdderChain chain({lpaa(5), lpaa(6), accurate(), lpaa(7), lpaa(1)});
  const InputProfile profile = InputProfile::random(5, rng);
  const auto pmf = propagate_error_pmf(chain, profile);
  const auto oracle = WeightedExhaustive::analyze(chain, profile);
  EXPECT_NEAR(pmf.mean_error(), oracle.mean_error, 1e-10);
  EXPECT_NEAR(pmf.mean_squared_error(), oracle.mean_squared_error, 1e-8);
}

TEST(Moments, ExactChainHasZeroError) {
  const InputProfile profile = InputProfile::uniform(12, 0.5);
  const AdderChain chain = AdderChain::homogeneous(accurate(), 12);
  const auto pmf = propagate_error_pmf(chain, profile);
  EXPECT_NEAR(pmf.mean_error(), 0.0, 1e-12);
  EXPECT_NEAR(pmf.mean_squared_error(), 0.0, 1e-12);
  EXPECT_NEAR(pmf.mean_squared_error() - pmf.mean_error() * pmf.mean_error(),
              0.0, 1e-12);
}

TEST(Moments, VarianceAndRmsDeriveFromMoments) {
  const InputProfile profile = InputProfile::uniform(6, 0.5);
  const AdderChain chain = AdderChain::homogeneous(lpaa(5), 6);
  const auto pmf = propagate_error_pmf(chain, profile);
  const auto oracle = WeightedExhaustive::analyze(chain, profile);
  // Central second moment straight off the mass points.
  const double mean = pmf.mean_error();
  double variance = 0.0;
  for (const auto& entry : pmf.entries()) {
    const double d = static_cast<double>(entry.value) - mean;
    variance += entry.probability * d * d;
  }
  EXPECT_NEAR(variance, pmf.mean_squared_error() - mean * mean,
              1e-9 * (1.0 + variance));
  const double rms = std::sqrt(pmf.mean_squared_error());
  EXPECT_NEAR(rms * rms, oracle.mean_squared_error,
              1e-9 * (1.0 + oracle.mean_squared_error));
}

TEST(JointDp, HomogeneousLpaaChainsHaveZeroMaskingGap) {
  // Empirical finding (bench_x4): for every built-in cell the stage-
  // success and value-level probabilities coincide on homogeneous
  // chains — LPAA1-5/7 corrupt a sum bit in every error row, and
  // LPAA6's exact XOR sum imprints any carry divergence immediately.
  const InputProfile profile = InputProfile::uniform(8, 0.5);
  for (int cell = 1; cell <= 7; ++cell) {
    const AdderChain chain = AdderChain::homogeneous(lpaa(cell), 8);
    const auto joint = JointCarryAnalyzer::analyze(chain, profile);
    EXPECT_NEAR(joint.p_value_correct, joint.p_stage_success, 1e-12)
        << "LPAA" << cell;
  }
}

TEST(JointDp, HybridChainsCanMaskErrors) {
  // An LPAA6 carry-only error entering an LPAA2 stage at (a,b) = (1,1)
  // reproduces the exact sum bit and re-converges the carry, so the
  // value-level error probability is strictly below the stage-success
  // error probability.
  const AdderChain chain({lpaa(6), lpaa(2)});
  const InputProfile profile = InputProfile::uniform(2, 0.5);
  const auto joint = JointCarryAnalyzer::analyze(chain, profile);
  EXPECT_GT(joint.p_value_correct, joint.p_stage_success + 1e-6);
  // Cross-check against the enumeration oracle.
  const auto oracle = WeightedExhaustive::analyze(chain, profile);
  EXPECT_NEAR(joint.p_value_correct, oracle.p_value_correct, 1e-12);
  EXPECT_NEAR(joint.p_stage_success, oracle.p_stage_success, 1e-12);
}

TEST(JointDp, WidthMismatchThrows) {
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  const AdderChain chain = AdderChain::homogeneous(lpaa(1), 5);
  EXPECT_THROW((void)JointCarryAnalyzer::analyze(chain, profile),
               std::invalid_argument);
}

}  // namespace
