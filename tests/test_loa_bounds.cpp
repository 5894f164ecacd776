// LOA (lower-part OR adder) as a cell chain + exact analysis, the
// ACA/ETAII GeAr aliases, and the design-bound helpers.
#include <gtest/gtest.h>

#include <cstdint>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/bounds.hpp"
#include "sealpaa/analysis/joint.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/gear/gear.hpp"
#include "sealpaa/multibit/loa.hpp"
#include "sealpaa/prob/rng.hpp"

namespace {

using sealpaa::adders::lpaa;
using sealpaa::analysis::JointCarryAnalyzer;
using sealpaa::analysis::max_approximate_lsbs;
using sealpaa::analysis::max_cascadable_width;
using sealpaa::analysis::RecursiveAnalyzer;
using sealpaa::gear::GearConfig;
using sealpaa::multibit::AddResult;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::exact_add;
using sealpaa::multibit::InputProfile;
using sealpaa::multibit::loa_chain;
using sealpaa::multibit::mask_width;

// ---------------------------------------------------------------- LOA
// LOA has no carry-in: its chain is analyzed under p_cin = 0.
InputProfile uniform_no_cin(std::size_t width, double p) {
  return InputProfile::uniform_with_cin(width, p, 0.0);
}

/// P(value wrong), carry-out included.
double p_error(const AdderChain& loa, const InputProfile& profile) {
  return 1.0 - JointCarryAnalyzer::analyze(loa, profile).p_value_correct;
}

/// LOA's defining formula, independent of the cell chain: the low l
/// bits are a|b, the upper part the exact sum of a>>l and b>>l with
/// carry-in a_{l-1} & b_{l-1}.
AddResult loa_formula(std::uint64_t a, std::uint64_t b, std::size_t width,
                      std::size_t l) {
  a = mask_width(a, width);
  b = mask_width(b, width);
  AddResult result;
  result.sum_bits = mask_width(a | b, l);
  const bool predicted = l > 0 && (((a & b) >> (l - 1)) & 1ULL) != 0;
  if (l == width) {
    result.carry_out = predicted;
    return result;
  }
  const AddResult upper = exact_add(a >> l, b >> l, predicted, width - l);
  result.sum_bits |= upper.sum_bits << l;
  result.carry_out = upper.carry_out;
  return result;
}

TEST(Loa, ChainMatchesSegmentedFormula) {
  sealpaa::prob::Xoshiro256StarStar rng(0x10a);
  for (const std::size_t width : {1u, 2u, 32u, 62u, 63u}) {
    for (const std::size_t l : {std::size_t{0}, std::size_t{1}, width - 1,
                                width}) {
      const AdderChain loa = loa_chain(width, l);
      for (int trial = 0; trial < 4096; ++trial) {
        const std::uint64_t a = rng.next();
        const std::uint64_t b = rng.next();
        const AddResult chain = loa.evaluate(a, b, false);
        const AddResult formula = loa_formula(a, b, width, l);
        ASSERT_EQ(chain.sum_bits, formula.sum_bits)
            << "w=" << width << " l=" << l << " a=" << a << " b=" << b;
        ASSERT_EQ(chain.carry_out, formula.carry_out)
            << "w=" << width << " l=" << l << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(Loa, FullyExactWhenNoApproxBits) {
  const AdderChain adder = loa_chain(8, 0);
  EXPECT_TRUE(adder.is_exact());
  for (std::uint64_t a = 0; a < 256; a += 3) {
    for (std::uint64_t b = 0; b < 256; b += 5) {
      EXPECT_EQ(adder.evaluate(a, b, false).value(8),
                exact_add(a, b, false, 8).value(8));
    }
  }
  EXPECT_NEAR(p_error(adder, uniform_no_cin(8, 0.5)), 0.0, 1e-12);
}

TEST(Loa, KnownApproximateBehaviour) {
  const AdderChain adder = loa_chain(8, 4);
  // 0b1111 + 0b0001 in the low nibble: OR gives 0b1111 (exact: 0b0000
  // with carry), prediction a3&b3 = 0 -> upper unchanged; exact sum 16.
  const auto approx = adder.evaluate(0x0F, 0x01, false);
  EXPECT_EQ(approx.sum_bits, 0x0Fu);
  EXPECT_NE(approx.value(8), exact_add(0x0F, 0x01, false, 8).value(8));
  // Both MSBs of the lower part set: prediction fires.
  const auto carried = adder.evaluate(0x08, 0x08, false);
  EXPECT_EQ(carried.sum_bits & 0xF0u, 0x10u);  // upper got the carry
}

TEST(Loa, AnalysisMatchesExhaustiveSweep) {
  for (std::size_t approx_lsbs : {0u, 1u, 3u, 5u, 8u}) {
    const AdderChain adder = loa_chain(8, approx_lsbs);
    std::uint64_t value_errors = 0;
    std::uint64_t sum_errors = 0;
    for (std::uint64_t a = 0; a < 256; ++a) {
      for (std::uint64_t b = 0; b < 256; ++b) {
        const auto approx = adder.evaluate(a, b, false);
        const auto exact = exact_add(a, b, false, 8);
        if (approx.value(8) != exact.value(8)) ++value_errors;
        if (approx.sum_bits != exact.sum_bits) ++sum_errors;
      }
    }
    const auto joint =
        JointCarryAnalyzer::analyze(adder, uniform_no_cin(8, 0.5));
    EXPECT_NEAR(1.0 - joint.p_value_correct,
                static_cast<double>(value_errors) / 65536.0, 1e-12)
        << "l=" << approx_lsbs;
    EXPECT_NEAR(1.0 - joint.p_sum_bits_correct,
                static_cast<double>(sum_errors) / 65536.0, 1e-12)
        << "l=" << approx_lsbs;
  }
}

TEST(Loa, AnalysisMatchesExhaustiveNonUniform) {
  const AdderChain adder = loa_chain(6, 3);
  const InputProfile profile({0.2, 0.7, 0.4, 0.9, 0.1, 0.6},
                             {0.8, 0.3, 0.5, 0.2, 0.9, 0.4}, 0.0);
  double expected = 0.0;
  for (std::uint64_t a = 0; a < 64; ++a) {
    for (std::uint64_t b = 0; b < 64; ++b) {
      if (adder.evaluate(a, b, false).value(6) !=
          exact_add(a, b, false, 6).value(6)) {
        expected += profile.assignment_probability(a, b, false);
      }
    }
  }
  EXPECT_NEAR(p_error(adder, profile), expected, 1e-12);
}

TEST(Loa, ErrorGrowsWithApproximateBits) {
  const InputProfile profile = uniform_no_cin(12, 0.5);
  double previous = -1.0;
  for (std::size_t l : {1u, 3u, 6u, 9u, 12u}) {
    const double error = p_error(loa_chain(12, l), profile);
    EXPECT_GT(error, previous) << "l=" << l;
    previous = error;
  }
}

TEST(Loa, Validation) {
  EXPECT_THROW((void)loa_chain(0, 0), std::invalid_argument);
  EXPECT_THROW((void)loa_chain(64, 0), std::invalid_argument);
  EXPECT_THROW((void)loa_chain(8, 9), std::invalid_argument);
  EXPECT_THROW((void)JointCarryAnalyzer::analyze(
                   loa_chain(8, 2), InputProfile::uniform(6, 0.5)),
               std::invalid_argument);
}

// ------------------------------------------------------- GeAr aliases
TEST(GearAliases, AcaIsGearWithUnitR) {
  const GearConfig aca = GearConfig::aca(16, 4);
  EXPECT_EQ(aca.r(), 1);
  EXPECT_EQ(aca.p(), 3);
  EXPECT_EQ(aca.l(), 4);
  EXPECT_EQ(aca.blocks(), 13);
}

TEST(GearAliases, EtaiiIsGearWithEqualRp) {
  const GearConfig etaii = GearConfig::etaii(16, 4);
  EXPECT_EQ(etaii.r(), 4);
  EXPECT_EQ(etaii.p(), 4);
  EXPECT_EQ(etaii.blocks(), 3);
}

TEST(GearAliases, InvalidAliasesRejected) {
  EXPECT_THROW((void)GearConfig::aca(16, 0), std::invalid_argument);  // P = -1
  // Ragged tails like etaii(10, 4) are legal now; N < L still is not.
  EXPECT_THROW((void)GearConfig::etaii(6, 4), std::invalid_argument);
}

TEST(GearAliases, RaggedEtaiiAccepted) {
  // (N - L) % R != 0 used to be rejected; the clamped tail makes it a
  // valid two-block configuration.
  const GearConfig etaii = GearConfig::etaii(10, 4);
  EXPECT_EQ(etaii.blocks(), 2);
  EXPECT_EQ(etaii.n(), 10);
}

// ------------------------------------------------------------- bounds
TEST(Bounds, MatchesDirectScan) {
  for (int cell : {1, 6, 7}) {
    for (double epsilon : {0.05, 0.2, 0.5}) {
      const int bound = max_cascadable_width(lpaa(cell), 0.5, epsilon, 32);
      if (bound > 0) {
        EXPECT_LE(RecursiveAnalyzer::error_probability(
                      lpaa(cell), InputProfile::uniform(
                                      static_cast<std::size_t>(bound), 0.5)),
                  epsilon + 1e-12)
            << "LPAA" << cell;
      }
      if (bound < 32) {
        EXPECT_GT(RecursiveAnalyzer::error_probability(
                      lpaa(cell),
                      InputProfile::uniform(
                          static_cast<std::size_t>(bound) + 1, 0.5)),
                  epsilon)
            << "LPAA" << cell;
      }
    }
  }
}

TEST(Bounds, PaperTenBitObservation) {
  // "none of the LPAA is useful beyond 10-bits cascading" at p = 0.5:
  // with any sane tolerance the best cell's bound is small.
  int best = 0;
  for (int cell = 1; cell <= 7; ++cell) {
    best = std::max(best, max_cascadable_width(lpaa(cell), 0.5, 0.5, 63));
  }
  EXPECT_LE(best, 10);
  EXPECT_GT(best, 0);
}

TEST(Bounds, ApproximateLsbsHybrid) {
  const int k = max_approximate_lsbs(lpaa(6), 16, 0.5, 0.3);
  ASSERT_GT(k, 0);
  // Build the hybrid and verify it meets the tolerance while k+1 fails.
  const auto build = [&](int approx) {
    std::vector<sealpaa::adders::AdderCell> stages;
    for (int i = 0; i < approx; ++i) stages.push_back(lpaa(6));
    for (int i = approx; i < 16; ++i) {
      stages.push_back(sealpaa::adders::accurate());
    }
    return RecursiveAnalyzer::analyze(AdderChain(stages),
                                      InputProfile::uniform(16, 0.5))
        .p_error;
  };
  EXPECT_LE(build(k), 0.3 + 1e-12);
  EXPECT_GT(build(k + 1), 0.3);
}

TEST(Bounds, ZeroWhenEvenOneStageFails) {
  // LPAA2 at p = 0.5 errs with probability > 0.2 from the first bit.
  EXPECT_EQ(max_cascadable_width(lpaa(2), 0.5, 0.05), 0);
  EXPECT_EQ(max_approximate_lsbs(lpaa(2), 8, 0.5, 0.05), 0);
}

TEST(Bounds, Validation) {
  EXPECT_THROW((void)max_cascadable_width(lpaa(1), 1.5, 0.1),
               std::domain_error);
  EXPECT_THROW((void)max_cascadable_width(lpaa(1), 0.5, 0.1, 0),
               std::invalid_argument);
  EXPECT_THROW((void)max_approximate_lsbs(lpaa(1), 0, 0.5, 0.1),
               std::invalid_argument);
}

}  // namespace
