// Bit patterns of the recursion and the error PMF pinned as recorded
// constants.
//
// Every other exactness test compares two paths of the current code
// (ChainEvaluator vs analyze, batch vs per-chain, ...).  The recursion
// constants were recorded from the implementation that still carried
// separate copies of Equations 10-12 — a per-stage (p_a, p_b) kernel for
// independent operands and a dedicated correlated analyzer — so they pin
// the one shared kernel to those historical results bit for bit, not
// just to itself.  The ErrorPmf constants were recorded from the mixture
// that chose between a dense slot array and a gather + sort by a fixed
// value-span threshold, so they pin today's accumulators to that output.
// The GeAr recovery-cycle distribution is pinned the same way to the DP
// that scanned every carry pattern.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/adders/cell.hpp"
#include "sealpaa/analysis/block_error.hpp"
#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/gear/correction.hpp"
#include "sealpaa/gear/gear.hpp"
#include "sealpaa/multibit/blocks.hpp"
#include "sealpaa/multibit/joint_profile.hpp"
#include "sealpaa/prob/rng.hpp"

namespace {

using sealpaa::adders::AdderCell;
using sealpaa::adders::accurate;
using sealpaa::adders::lpaa;
using sealpaa::analysis::AnalysisResult;
using sealpaa::analysis::ErrorPmf;
using sealpaa::analysis::RecursiveAnalyzer;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;
using sealpaa::multibit::JointInputProfile;

struct Recorded {
  std::uint64_t p_success;
  std::uint64_t c0;  // final_carry
  std::uint64_t c1;
};

void expect_bits(const AnalysisResult& result, const Recorded& want,
                 const std::string& context) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.p_success), want.p_success)
      << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.final_carry.c0), want.c0)
      << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.final_carry.c1), want.c1)
      << context;
  EXPECT_EQ(result.p_error, 1.0 - result.p_success) << context;
}

TEST(RecordedBits, HomogeneousLpaaChainsAtWidth16) {
  constexpr Recorded kWant[7] = {
      {0x3f77dc298f329b68ULL, 0x3f7076143549c3a6ULL, 0x3f5d985567a35f05ULL},
      {0x3f4bddbdec973c17ULL, 0x3f43819e88de2030ULL, 0x3f30b83ec77237ceULL},
      {0x3f1928f41d6ecaa8ULL, 0x3f0db6eea525d3b8ULL, 0x3f049af995b7c198ULL},
      {0x3f45f2af52dde828ULL, 0x3f41319b9bceec64ULL, 0x3f23044edc3bef10ULL},
      {0x3f5055aedc2dd931ULL, 0x3f5055ab9fe5ca21ULL, 0x3e29e2407881e9b6ULL},
      {0x3fb0fcb32e490466ULL, 0x3fb0fbbd2d7768f4ULL, 0x3eeec01a336e485eULL},
      {0x3fd85cf0e15f9555ULL, 0x3fd6149fd89e2778ULL, 0x3fa24288460b6ee6ULL},
  };
  const InputProfile profile = InputProfile::uniform_with_cin(16, 0.3, 0.7);
  for (int cell = 1; cell <= 7; ++cell) {
    expect_bits(RecursiveAnalyzer::analyze(
                    AdderChain::homogeneous(lpaa(cell), 16), profile),
                kWant[cell - 1], "LPAA" + std::to_string(cell));
  }
}

TEST(RecordedBits, HybridChainUnderExplicitProfile) {
  const AdderChain chain({lpaa(4), lpaa(6), lpaa(6), lpaa(1), accurate(),
                          lpaa(7), lpaa(5), lpaa(2), lpaa(3), lpaa(1)});
  const InputProfile profile(
      {0.9, 0.8, 0.6, 0.4, 0.2, 0.1, 0.35, 0.55, 0.75, 0.05},
      {0.15, 0.25, 0.45, 0.65, 0.85, 0.95, 0.5, 0.3, 0.7, 0.6}, 0.4);
  expect_bits(RecursiveAnalyzer::analyze(chain, profile),
              {0x3f9c26afb96af275ULL, 0x3f896cabaa57a3e0ULL,
               0x3f8ee0b3c87e410aULL},
              "hybrid");
}

TEST(RecordedBits, RandomNonUniformProfile) {
  sealpaa::prob::Xoshiro256StarStar rng(0x5eed'b175'0000'0001ULL);
  const InputProfile profile = InputProfile::random(24, rng, 0.05, 0.95);
  expect_bits(RecursiveAnalyzer::analyze(AdderChain::homogeneous(lpaa(5), 24),
                                         profile),
              {0x3e331b3b3ed3c9d9ULL, 0x3e331a608fce1dcdULL,
               0x3d6b55e0b5818a88ULL},
              "LPAA5 width 24");
}

TEST(RecordedBits, WidthRails1And63) {
  expect_bits(RecursiveAnalyzer::analyze(
                  AdderChain::homogeneous(lpaa(6), 1),
                  InputProfile::uniform_with_cin(1, 0.4, 0.6)),
              {0x3fe70a3d70a3d70aULL, 0x3fd5810624dd2f1aULL,
               0x3fd89374bc6a7efaULL},
              "width 1");
  expect_bits(RecursiveAnalyzer::analyze(AdderChain::homogeneous(lpaa(2), 63),
                                         InputProfile::uniform(63, 0.5)),
              {0x3e4ce48dca5fa622ULL, 0x3e3ce48dca5fa622ULL,
               0x3e3ce48dca5fa622ULL},
              "width 63");
}

TEST(RecordedBits, CorrelatedOperandsThroughTheJointOverload) {
  const AdderChain chain({lpaa(1), lpaa(6), lpaa(7), accurate(), lpaa(2),
                          lpaa(3), lpaa(4), lpaa(5), lpaa(6), lpaa(1)});
  const JointInputProfile joint = JointInputProfile::correlated(
      InputProfile::uniform_with_cin(10, 0.4, 0.3), 0.5);
  expect_bits(RecursiveAnalyzer::analyze(chain, joint),
              {0x3fa22bbb357ecad0ULL, 0x3f954106426bae7aULL,
               0x3f8e2ce05123ce4cULL},
              "rho 0.5");
}

struct RecordedPmf {
  std::size_t support;
  std::int64_t min_value;
  std::int64_t max_value;
  std::uint64_t med;
  std::uint64_t mse;
  std::uint64_t mass;
  std::uint64_t fnv;  // FNV-1a over every (value, probability bits) pair
};

std::uint64_t fnv1a(const ErrorPmf& pmf) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((word >> (8 * byte)) & 0xffU)) * 0x100000001b3ULL;
    }
  };
  for (const ErrorPmf::Entry& entry : pmf.entries()) {
    mix(static_cast<std::uint64_t>(entry.value));
    mix(std::bit_cast<std::uint64_t>(entry.probability));
  }
  return hash;
}

void expect_pmf_bits(const ErrorPmf& pmf, const RecordedPmf& want,
                     const std::string& context) {
  ASSERT_EQ(pmf.support_size(), want.support) << context;
  EXPECT_EQ(pmf.min_value(), want.min_value) << context;
  EXPECT_EQ(pmf.max_value(), want.max_value) << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pmf.mean_error_distance()),
            want.med)
      << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pmf.mean_squared_error()), want.mse)
      << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pmf.total_mass()), want.mass)
      << context;
  EXPECT_EQ(fnv1a(pmf), want.fnv) << context;
}

TEST(RecordedBits, ErrorPmfFleetShapedWidth32Chain) {
  // Approximate low 12 stages, exact tail: the shape the service fleet
  // sends, whose mixtures overlap densely.
  std::vector<AdderCell> stages;
  for (int i = 0; i < 32; ++i) {
    stages.push_back(i < 12 ? lpaa(1 + (i * 3) % 7) : accurate());
  }
  expect_pmf_bits(
      sealpaa::analysis::propagate_error_pmf(AdderChain(stages),
                                             InputProfile::uniform(32, 0.3)),
      {5302, -4587, 5482, 0x4097a8ae70c6af6cULL, 0x4152af4006c6239fULL,
       0x3fefffffffffffe7ULL, 0xfaf3c24441a8f0c1ULL},
      "fleet-shaped width 32");
}

TEST(RecordedBits, ErrorPmfMedSearchDesign) {
  // LPAA5 x4, LPAA2, AccuFA x9: the MED design search's optimum at
  // width 14, p 0.5 under a 13000 nW budget.
  std::vector<AdderCell> stages(4, lpaa(5));
  stages.push_back(lpaa(2));
  stages.insert(stages.end(), 9, accurate());
  expect_pmf_bits(
      sealpaa::analysis::propagate_error_pmf(AdderChain(stages),
                                             InputProfile::uniform(14, 0.5)),
      {33, -16, 16, 0x4018000000000000ULL, 0x404ac00000000000ULL,
       0x3ff0000000000000ULL, 0x8f170921b0d8b160ULL},
      "LPAA5x4 LPAA2 AccuFAx9");
}

TEST(RecordedBits, ErrorPmfAllLpaaWidth14) {
  std::vector<AdderCell> stages;
  for (int i = 0; i < 14; ++i) stages.push_back(lpaa(1 + i % 7));
  expect_pmf_bits(sealpaa::analysis::propagate_error_pmf(
                      AdderChain(stages),
                      InputProfile::uniform_with_cin(14, 0.5, 0.25)),
                  {12048, -11094, 19350, 0x40b430aac1d50000ULL,
                   0x4188a71bb8800000ULL, 0x3ff0000000000000ULL,
                   0x5052aeadf918b70bULL},
                  "LPAA1..7 cycled, width 14");
}

TEST(RecordedBits, ErrorPmfRandomTruthTablesWidth12) {
  sealpaa::prob::SplitMix64 cell_rng(0x5eed'e7f0'0000'0012ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x5eed'e7f0'0000'0013ULL);
  std::vector<AdderCell> stages;
  while (stages.size() < 12) {
    std::string sum_column(8, '0');
    std::string carry_column(8, '0');
    const std::uint64_t bits = cell_rng.next();
    for (std::size_t row = 0; row < 8; ++row) {
      if (((bits >> row) & 1ULL) != 0) sum_column[row] = '1';
      if (((bits >> (8 + row)) & 1ULL) != 0) carry_column[row] = '1';
    }
    AdderCell cell = AdderCell::from_columns(
        "RND" + std::to_string(stages.size()), sum_column, carry_column,
        "random truth table");
    if (!cell.is_exact()) stages.push_back(std::move(cell));
  }
  const InputProfile profile =
      InputProfile::random(12, profile_rng, 0.05, 0.95);
  expect_pmf_bits(
      sealpaa::analysis::propagate_error_pmf(AdderChain(stages), profile),
      {14640, -8017, 6893, 0x40a81407cca39d90ULL, 0x41688f8100a6ef8eULL,
       0x3fefffffffffffffULL, 0x66f7c8fcdb874e9aULL},
      "random width 12");
}

TEST(RecordedBits, ErrorPmfBlockModelAca4Width24) {
  const auto spec = sealpaa::multibit::BlockChainSpec::parse(24, "aca:4");
  expect_pmf_bits(sealpaa::analysis::BlockErrorModel::analyze(
                      spec, InputProfile::uniform(24, 0.4))
                      .pmf,
                  {907, -8947840, 0, 0x41121e90c8d45e80ULL,
                   0x4278441cc6320e99ULL, 0x3fefffffffffffffULL,
                   0x79631d2e88870209ULL},
                  "aca:4 width 24");
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (const double value : values) {
    bits.push_back(std::bit_cast<std::uint64_t>(value));
  }
  return bits;
}

TEST(RecordedBits, GearCorrectionCycleDistribution) {
  // Recorded from the DP that scanned every window-carry pattern of
  // every failure count at every bit; the DP that advances only the
  // patterns holding mass adds in the same order.
  using sealpaa::gear::GearConfig;
  using sealpaa::gear::correction_cycle_distribution;
  EXPECT_EQ(bits_of(correction_cycle_distribution(
                GearConfig(16, 2, 4), InputProfile::uniform(16, 0.3))),
            (std::vector<std::uint64_t>{
                0x3fef5d8046d09c32ULL, 0x3f91656aaf51b032ULL,
                0x3f643e282cdc3fddULL, 0x3f35d56aeba231ffULL,
                0x3f04debadedeb75fULL, 0x3ed0267e14850b04ULL}));
  sealpaa::prob::Xoshiro256StarStar rng(0x6ea7'0000'0001ULL);
  EXPECT_EQ(bits_of(correction_cycle_distribution(
                GearConfig(20, 3, 6),
                InputProfile::random(20, rng, 0.05, 0.95))),
            (std::vector<std::uint64_t>{
                0x3fee18fbf388b4b4ULL, 0x3fa88b0bccb36c4eULL,
                0x3f82e4f5d083bd0dULL, 0x3f612db58170ca8dULL,
                0x3f291c2e894c6dfcULL}));
  // GeAr(63,1,12): 51 entries, pinned by their FNV-1a hash.
  const std::vector<std::uint64_t> wide = bits_of(correction_cycle_distribution(
      GearConfig(63, 1, 12), InputProfile::uniform(63, 0.5)));
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint64_t bits : wide) {
    hash ^= bits;
    hash *= 0x100000001b3ULL;
  }
  ASSERT_EQ(wide.size(), 51u);
  EXPECT_EQ(wide.front(), 0x3fefe7057daec07eULL);
  EXPECT_EQ(hash, 0xfc476686c521c229ULL);
}

}  // namespace
