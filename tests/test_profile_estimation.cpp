// Workload profile estimation: marginals, joints, correlations.
#include <gtest/gtest.h>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/multibit/profile_estimation.hpp"
#include "sealpaa/prob/rng.hpp"

namespace {

using sealpaa::multibit::estimate_joint_profile;
using sealpaa::multibit::estimate_profile;
using sealpaa::multibit::InputProfile;
using sealpaa::multibit::JointInputProfile;
using sealpaa::multibit::operand_correlation;
using sealpaa::multibit::OperandSample;

TEST(Estimation, ExactCountsOnTinyTrace) {
  // Bit 0 of A: 1,0,1,1 -> 0.75; bit 0 of B: 0,0,1,1 -> 0.5.
  const std::vector<OperandSample> trace = {
      {0b1, 0b0}, {0b0, 0b0}, {0b1, 0b1}, {0b1, 0b1}};
  const InputProfile profile = estimate_profile(trace, 1);
  EXPECT_DOUBLE_EQ(profile.p_a(0), 0.75);
  EXPECT_DOUBLE_EQ(profile.p_b(0), 0.5);

  const JointInputProfile joint = estimate_joint_profile(trace, 1);
  EXPECT_DOUBLE_EQ(joint.joint(0)[0], 0.25);  // (0,0) once
  EXPECT_DOUBLE_EQ(joint.joint(0)[2], 0.25);  // (1,0) once
  EXPECT_DOUBLE_EQ(joint.joint(0)[3], 0.5);   // (1,1) twice
  EXPECT_DOUBLE_EQ(joint.joint(0)[1], 0.0);
}

TEST(Estimation, Validation) {
  EXPECT_THROW((void)estimate_profile({}, 4), std::invalid_argument);
  EXPECT_THROW((void)estimate_profile({{1, 2}}, 0), std::invalid_argument);
  EXPECT_THROW((void)estimate_joint_profile({{1, 2}}, 4, 0.0, -1.0),
               std::invalid_argument);
}

TEST(Estimation, RecoversGeneratingDistribution) {
  // Sample from a known correlated distribution and recover it.
  sealpaa::prob::Xoshiro256StarStar rng(501);
  const auto generator = JointInputProfile::correlated(
      InputProfile::uniform(6, 0.4), 0.6);
  std::vector<OperandSample> trace;
  trace.reserve(200000);
  for (int i = 0; i < 200000; ++i) {
    const auto sample = generator.sample(rng);
    trace.push_back({sample.a, sample.b});
  }
  const auto estimated = estimate_joint_profile(trace, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t idx = 0; idx < 4; ++idx) {
      EXPECT_NEAR(estimated.joint(i)[idx], generator.joint(i)[idx], 0.01)
          << "bit " << i << " idx " << idx;
    }
  }
  const auto rho = operand_correlation(trace, 6);
  for (double r : rho) EXPECT_NEAR(r, 0.6, 0.03);
}

TEST(Estimation, CorrelationOfIndependentBitsNearZero) {
  sealpaa::prob::Xoshiro256StarStar rng(503);
  std::vector<OperandSample> trace;
  for (int i = 0; i < 100000; ++i) {
    trace.push_back({rng.next() & 0xFF, rng.next() & 0xFF});
  }
  for (double r : operand_correlation(trace, 8)) {
    EXPECT_NEAR(r, 0.0, 0.02);
  }
}

TEST(Estimation, ConstantBitYieldsZeroCorrelation) {
  const std::vector<OperandSample> trace = {{0b1, 0b1}, {0b1, 0b0}};
  const auto rho = operand_correlation(trace, 1);
  EXPECT_DOUBLE_EQ(rho[0], 0.0);  // A is constant -> undefined -> 0
}

TEST(Estimation, SmoothingAvoidsHardZeros) {
  const std::vector<OperandSample> trace = {{1, 1}, {1, 1}};
  const auto unsmoothed = estimate_joint_profile(trace, 1, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(unsmoothed.joint(0)[0], 0.0);
  const auto smoothed = estimate_joint_profile(trace, 1, 0.0, 1.0);
  EXPECT_GT(smoothed.joint(0)[0], 0.0);
  double total = 0.0;
  for (double p : smoothed.joint(0)) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Estimation, AnalyticalPredictionTracksEmpiricalRateOnIidTrace) {
  // When the trace really is i.i.d. per-bit, the independent analytical
  // prediction converges to the trace-measured failure rate.
  sealpaa::prob::Xoshiro256StarStar rng(509);
  const InputProfile generator = InputProfile::uniform(8, 0.2);
  std::vector<OperandSample> trace;
  std::uint64_t failures = 0;
  const auto chain = sealpaa::multibit::AdderChain::homogeneous(
      sealpaa::adders::lpaa(6), 8);
  for (int i = 0; i < 200000; ++i) {
    const auto sample = generator.sample(rng);
    trace.push_back({sample.a, sample.b});
    if (!chain.evaluate_traced(sample.a, sample.b, false)
             .all_stages_success) {
      ++failures;
    }
  }
  const InputProfile estimated = estimate_profile(trace, 8, 0.0);
  const double predicted =
      sealpaa::analysis::RecursiveAnalyzer::analyze(chain, estimated).p_error;
  const double measured = static_cast<double>(failures) / 200000.0;
  EXPECT_NEAR(predicted, measured, 0.005);
}

}  // namespace
