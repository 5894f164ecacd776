// Unit tests for the probability/statistics substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "sealpaa/prob/kahan.hpp"
#include "sealpaa/prob/probability.hpp"
#include "sealpaa/prob/rng.hpp"
#include "sealpaa/prob/stats.hpp"

namespace {

using sealpaa::prob::KahanSum;
using sealpaa::prob::Probability;
using sealpaa::prob::RunningStats;
using sealpaa::prob::SplitMix64;
using sealpaa::prob::Xoshiro256StarStar;

TEST(Probability, ValidRangeAccepted) {
  EXPECT_DOUBLE_EQ(Probability(0.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(Probability(1.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(Probability(0.37).value(), 0.37);
}

TEST(Probability, OutOfRangeRejected) {
  EXPECT_THROW(Probability(-0.1), std::domain_error);
  EXPECT_THROW(Probability(1.1), std::domain_error);
  EXPECT_THROW(Probability(std::nan("")), std::domain_error);
}

TEST(Probability, SlackBandClamped) {
  // Values just outside [0,1] from rounding are clamped, not rejected.
  EXPECT_DOUBLE_EQ(Probability(-1e-12).value(), 0.0);
  EXPECT_DOUBLE_EQ(Probability(1.0 + 1e-12).value(), 1.0);
}

TEST(Probability, ComplementAndProduct) {
  const Probability p(0.25);
  EXPECT_DOUBLE_EQ(p.complement().value(), 0.75);
  EXPECT_DOUBLE_EQ((p * Probability(0.5)).value(), 0.125);
  EXPECT_DOUBLE_EQ(Probability::half().value(), 0.5);
}

TEST(Probability, ComparisonOperators) {
  EXPECT_TRUE(Probability(0.2) < Probability(0.3));
  EXPECT_TRUE(Probability(0.2) <= Probability(0.2));
  EXPECT_TRUE(Probability(0.2) == Probability(0.2));
  EXPECT_FALSE(Probability(0.4) < Probability(0.3));
  EXPECT_DOUBLE_EQ(Probability::zero().value(), 0.0);
  EXPECT_DOUBLE_EQ(Probability::one().value(), 1.0);
  EXPECT_DOUBLE_EQ(Probability::unchecked(0.77).value(), 0.77);
}

TEST(RequireProbability, MessageNamesTheContext) {
  try {
    (void)sealpaa::prob::require_probability(2.0, "P(A)");
    FAIL() << "expected throw";
  } catch (const std::domain_error& e) {
    EXPECT_NE(std::string(e.what()).find("P(A)"), std::string::npos);
  }
}

TEST(Kahan, RecoversSmallAddendsLostToNaiveSummation) {
  KahanSum sum;
  double naive = 0.0;
  sum.add(1.0);
  naive += 1.0;
  for (int i = 0; i < 10'000'000; ++i) {
    sum.add(1e-17);
    naive += 1e-17;
  }
  // Naive summation loses all the tiny addends entirely.
  EXPECT_DOUBLE_EQ(naive, 1.0);
  EXPECT_NEAR(sum.value(), 1.0 + 1e-10, 1e-14);
}

TEST(Kahan, NeumaierHandlesAddendLargerThanSum) {
  KahanSum sum;
  sum.add(1.0);
  sum.add(1e100);
  sum.add(1.0);
  sum.add(-1e100);
  EXPECT_DOUBLE_EQ(sum.value(), 2.0);
}

TEST(Kahan, ResetClearsState) {
  KahanSum sum;
  sum.add(5.0);
  sum.reset();
  EXPECT_DOUBLE_EQ(sum.value(), 0.0);
}

TEST(SplitMix, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256StarStar a(123);
  Xoshiro256StarStar b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256StarStar a(1);
  Xoshiro256StarStar b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 2);
}

TEST(Xoshiro, Uniform01InHalfOpenInterval) {
  Xoshiro256StarStar rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, BernoulliFrequencyTracksP) {
  Xoshiro256StarStar rng(99);
  const double p = 0.3;
  int hits = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(p) ? 1 : 0;
  const double frequency = static_cast<double>(hits) / trials;
  EXPECT_NEAR(frequency, p, 0.005);
}

TEST(Xoshiro, JumpProducesDisjointStream) {
  Xoshiro256StarStar a(5);
  Xoshiro256StarStar b(5);
  b.jump();
  std::set<std::uint64_t> first;
  for (int i = 0; i < 1000; ++i) first.insert(a.next());
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) collisions += first.count(b.next()) != 0;
  EXPECT_EQ(collisions, 0);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats stats;
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
}

TEST(Wilson, CoversTrueProportion) {
  // 300 successes in 1000 trials: interval must contain 0.3.
  const auto ci = sealpaa::prob::wilson_interval(300, 1000, 1.96);
  EXPECT_TRUE(ci.contains(0.3));
  EXPECT_GT(ci.low, 0.25);
  EXPECT_LT(ci.high, 0.35);
}

TEST(Wilson, DegenerateCases) {
  // Zero trials carry no information: the interval is explicitly empty,
  // not the fake-but-plausible [0, 1].
  const auto empty = sealpaa::prob::wilson_interval(0, 0, 1.96);
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.contains(0.5));
  const auto zero = sealpaa::prob::wilson_interval(0, 100, 1.96);
  EXPECT_FALSE(zero.empty());
  EXPECT_DOUBLE_EQ(zero.low, 0.0);
  EXPECT_GT(zero.high, 0.0);
  const auto all = sealpaa::prob::wilson_interval(100, 100, 1.96);
  EXPECT_DOUBLE_EQ(all.high, 1.0);
}

TEST(Wilson, RejectsMoreSuccessesThanTrials) {
  EXPECT_THROW((void)sealpaa::prob::wilson_interval(5, 4, 1.96),
               std::invalid_argument);
}

TEST(Interval, EmptyIntervalSemantics) {
  const auto empty = sealpaa::prob::Interval::empty_interval();
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.contains(0.0));
  EXPECT_FALSE(empty.contains(1.0));
  const sealpaa::prob::Interval point{0.5, 0.5};
  EXPECT_FALSE(point.empty());
  EXPECT_TRUE(point.contains(0.5));
}

TEST(BinomialStderr, ShrinksWithSamples) {
  const double se_small = sealpaa::prob::binomial_stderr(0.5, 100);
  const double se_large = sealpaa::prob::binomial_stderr(0.5, 10000);
  EXPECT_NEAR(se_small, 0.05, 1e-12);
  EXPECT_NEAR(se_large, 0.005, 1e-12);
}

}  // namespace
