// Bit patterns of the recursion pinned as recorded constants.
//
// Every other exactness test compares two paths of the current code
// (ChainEvaluator vs analyze, batch vs per-chain, ...).  These constants
// were recorded from the implementation that still carried separate
// copies of Equations 10-12 — a per-stage (p_a, p_b) kernel for
// independent operands and a dedicated correlated analyzer — so they pin
// the one shared kernel to those historical results bit for bit, not
// just to itself.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/multibit/joint_profile.hpp"
#include "sealpaa/prob/rng.hpp"

namespace {

using sealpaa::adders::accurate;
using sealpaa::adders::lpaa;
using sealpaa::analysis::AnalysisResult;
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

}  // namespace
