// Correlated-operand generalization: joint profiles, the recursion's
// JointInputProfile overload and its agreement with the ground-truth
// oracle.
#include <gtest/gtest.h>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/baseline/weighted_exhaustive.hpp"
#include "sealpaa/prob/rng.hpp"
#include "sealpaa/sim/metrics.hpp"

namespace {

using sealpaa::adders::accurate;
using sealpaa::adders::lpaa;
using sealpaa::analysis::RecursiveAnalyzer;
using sealpaa::baseline::WeightedExhaustive;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;
using sealpaa::multibit::JointBitDistribution;
using sealpaa::multibit::JointInputProfile;

TEST(JointProfile, Validation) {
  EXPECT_THROW(JointInputProfile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(
      JointInputProfile({JointBitDistribution{0.5, 0.5, 0.5, 0.5}}, 0.5),
      std::domain_error);
  EXPECT_THROW(
      JointInputProfile({JointBitDistribution{-0.1, 0.5, 0.3, 0.3}}, 0.5),
      std::domain_error);
  EXPECT_NO_THROW(
      JointInputProfile({JointBitDistribution{0.25, 0.25, 0.25, 0.25}}, 0.5));
}

TEST(JointProfile, MarginalsRecovered) {
  const JointInputProfile profile(
      {JointBitDistribution{0.1, 0.2, 0.3, 0.4}}, 0.5);
  EXPECT_NEAR(profile.marginal_a(0), 0.7, 1e-12);
  EXPECT_NEAR(profile.marginal_b(0), 0.6, 1e-12);
}

TEST(JointProfile, CorrelatedFactoryRhoRange) {
  const InputProfile marginals = InputProfile::uniform(4, 0.5);
  EXPECT_NO_THROW(JointInputProfile::correlated(marginals, 0.0));
  EXPECT_NO_THROW(JointInputProfile::correlated(marginals, 1.0));
  EXPECT_NO_THROW(JointInputProfile::correlated(marginals, -1.0));
  // With asymmetric marginals, rho = 1 is infeasible.
  const InputProfile skewed({0.9}, {0.1}, 0.5);
  EXPECT_THROW(JointInputProfile::correlated(skewed, 1.0),
               std::domain_error);
}

TEST(JointProfile, FullCorrelationForcesEqualOperands) {
  const auto profile = JointInputProfile::correlated(
      InputProfile::uniform(6, 0.5), 1.0);
  sealpaa::prob::Xoshiro256StarStar rng(401);
  for (int trial = 0; trial < 200; ++trial) {
    const auto sample = profile.sample(rng);
    EXPECT_EQ(sample.a, sample.b);
  }
}

TEST(JointProfile, AssignmentProbabilitiesSumToOne) {
  const auto profile = JointInputProfile::correlated(
      InputProfile::uniform(3, 0.3), 0.4);
  double total = 0.0;
  for (std::uint64_t a = 0; a < 8; ++a) {
    for (std::uint64_t b = 0; b < 8; ++b) {
      total += profile.assignment_probability(a, b, false);
      total += profile.assignment_probability(a, b, true);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(JointRecursion, RhoZeroReducesToTheIndependentRecursion) {
  sealpaa::prob::Xoshiro256StarStar rng(403);
  for (int cell = 1; cell <= 7; ++cell) {
    const InputProfile marginals = InputProfile::random(8, rng, 0.05, 0.95);
    const auto joint = JointInputProfile::independent(marginals);
    const AdderChain chain = AdderChain::homogeneous(lpaa(cell), 8);
    EXPECT_NEAR(RecursiveAnalyzer::analyze(chain, joint).p_error,
                RecursiveAnalyzer::analyze(chain, marginals).p_error, 1e-13)
        << "LPAA" << cell;
  }
}

TEST(JointRecursion, MatchesJointGroundTruth) {
  sealpaa::prob::Xoshiro256StarStar rng(409);
  for (int cell = 1; cell <= 7; ++cell) {
    for (double rho : {-0.6, -0.2, 0.3, 0.8}) {
      const InputProfile marginals = InputProfile::uniform(6, 0.4);
      const auto joint = JointInputProfile::correlated(marginals, rho);
      const AdderChain chain = AdderChain::homogeneous(lpaa(cell), 6);
      const auto oracle = WeightedExhaustive::analyze_joint(chain, joint);
      EXPECT_NEAR(RecursiveAnalyzer::analyze(chain, joint).p_success,
                  oracle.p_stage_success, 1e-12)
          << "LPAA" << cell << " rho " << rho;
    }
  }
}

TEST(JointRecursion, CorrelationChangesTheAnswer) {
  const InputProfile marginals = InputProfile::uniform(8, 0.5);

  // LPAA1's error rows (0,1,0)/(1,0,0) both need A != B: with fully
  // correlated operands (A = B) it never errs.
  const AdderChain lpaa1_chain = AdderChain::homogeneous(lpaa(1), 8);
  EXPECT_NEAR(RecursiveAnalyzer::analyze(
                  lpaa1_chain, JointInputProfile::correlated(marginals, 1.0))
                  .p_error,
              0.0, 1e-12);

  // LPAA6's error rows (0,0,1)/(1,1,0) both need A == B: with fully
  // anti-correlated operands it never errs, and positive correlation
  // makes it strictly worse than the independent model.
  const AdderChain lpaa6_chain = AdderChain::homogeneous(lpaa(6), 8);
  EXPECT_NEAR(RecursiveAnalyzer::analyze(
                  lpaa6_chain, JointInputProfile::correlated(marginals, -1.0))
                  .p_error,
              0.0, 1e-12);
  const double independent6 = RecursiveAnalyzer::analyze(
      lpaa6_chain, JointInputProfile::correlated(marginals, 0.0)).p_error;
  const double positive6 = RecursiveAnalyzer::analyze(
      lpaa6_chain, JointInputProfile::correlated(marginals, 0.8)).p_error;
  EXPECT_GT(positive6, independent6 + 0.01);
}

TEST(JointRecursion, AccurateChainStillPerfect) {
  const auto joint = JointInputProfile::correlated(
      InputProfile::uniform(10, 0.5), -0.5);
  EXPECT_NEAR(
      RecursiveAnalyzer::analyze(AdderChain::homogeneous(accurate(), 10), joint)
          .p_error,
      0.0, 1e-12);
}

TEST(JointRecursion, HybridChainsAndTraces) {
  const AdderChain chain({lpaa(1), lpaa(6), lpaa(7), accurate()});
  const auto joint = JointInputProfile::correlated(
      InputProfile::uniform(4, 0.5), 0.5);
  sealpaa::analysis::AnalyzeOptions options;
  options.record_trace = true;
  const auto result = RecursiveAnalyzer::analyze(chain, joint, options);
  ASSERT_EQ(result.trace.size(), 4u);
  const auto oracle = WeightedExhaustive::analyze_joint(chain, joint);
  EXPECT_NEAR(result.p_success, oracle.p_stage_success, 1e-12);
  // Trace carries marginals for reporting.
  EXPECT_NEAR(result.trace[0].p_a, 0.5, 1e-12);
}

TEST(JointRecursion, WidthMismatchThrows) {
  const auto joint = JointInputProfile::correlated(
      InputProfile::uniform(4, 0.5), 0.2);
  const AdderChain chain = AdderChain::homogeneous(lpaa(1), 5);
  EXPECT_THROW((void)RecursiveAnalyzer::analyze(chain, joint),
               std::invalid_argument);
}

}  // namespace
