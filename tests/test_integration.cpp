// Cross-module integration: a full design flow exercised end-to-end —
// profile -> DSE -> analytical verification -> Monte Carlo validation ->
// synthesis -> netlist equivalence -> Verilog emission.
#include <gtest/gtest.h>

#include "sealpaa/sealpaa.hpp"

namespace {

using namespace sealpaa;

TEST(Integration, FullDesignFlow) {
  // 1. A DSP-ish operand profile: dense LSBs, sparse MSBs.
  const std::vector<double> p_bits = {0.9, 0.8, 0.6, 0.4, 0.2, 0.1};
  const multibit::InputProfile profile(p_bits, p_bits, 0.5);

  // 2. Design-space exploration picks a hybrid chain.
  const explore::HybridDesign design =
      explore::HybridOptimizer::exhaustive(profile, adders::builtin_lpaas());
  ASSERT_EQ(design.stages.size(), 6u);

  // 3. Its analytical error probability must beat every homogeneous
  //    design and agree with the ground-truth oracle.
  const multibit::AdderChain chain = design.chain();
  const auto oracle = baseline::WeightedExhaustive::analyze(chain, profile);
  EXPECT_NEAR(design.p_error, 1.0 - oracle.p_stage_success, 1e-12);

  // 4. Monte Carlo validation within a 95% Wilson interval (plus slack).
  const auto mc = sim::MonteCarloSimulator::run(chain, profile, 100000);
  EXPECT_LT(std::abs(mc.metrics.stage_failure_rate() - design.p_error),
            0.01);

  // 5. Synthesis: the gate-level netlist is functionally identical to
  //    the behavioural chain on every input.
  const rtl::Netlist netlist = rtl::synthesize_chain(chain);
  for (std::uint64_t a = 0; a < 64; a += 5) {
    for (std::uint64_t b = 0; b < 64; b += 7) {
      for (bool cin : {false, true}) {
        std::vector<bool> inputs;
        for (int i = 0; i < 6; ++i) inputs.push_back(((a >> i) & 1ULL) != 0);
        for (int i = 0; i < 6; ++i) inputs.push_back(((b >> i) & 1ULL) != 0);
        inputs.push_back(cin);
        const auto out = netlist.evaluate(inputs);
        const auto expected = chain.evaluate(a, b, cin);
        std::uint64_t value = 0;
        for (int i = 0; i < 6; ++i) {
          value |= static_cast<std::uint64_t>(out[static_cast<std::size_t>(i)])
                   << i;
        }
        value |= static_cast<std::uint64_t>(out[6]) << 6;
        EXPECT_EQ(value, expected.value(6));
      }
    }
  }

  // 6. Verilog emission produces a well-formed module.
  const std::string verilog = rtl::to_verilog(netlist, "designed_adder");
  EXPECT_NE(verilog.find("module designed_adder"), std::string::npos);
  EXPECT_NE(verilog.find("endmodule"), std::string::npos);
}

TEST(Integration, AnalysisConsistencyMatrix) {
  // Every probability engine answers the same question identically for
  // one nontrivial configuration.
  const multibit::InputProfile profile = multibit::InputProfile::uniform(7, 0.3);
  const multibit::AdderChain chain({adders::lpaa(4), adders::lpaa(6),
                                    adders::lpaa(6), adders::lpaa(1),
                                    adders::accurate(), adders::lpaa(7),
                                    adders::lpaa(5)});
  const double recursive =
      analysis::RecursiveAnalyzer::analyze(chain, profile).p_success;
  const double via_joint =
      analysis::JointCarryAnalyzer::analyze(chain, profile).p_stage_success;
  const double via_ie =
      baseline::InclusionExclusionAnalyzer::analyze(chain, profile).p_success;
  const double via_enum =
      baseline::WeightedExhaustive::analyze(chain, profile).p_stage_success;
  const double via_correlated =
      analysis::RecursiveAnalyzer::analyze(
          chain, multibit::JointInputProfile::independent(profile))
          .p_success;
  EXPECT_NEAR(recursive, via_enum, 1e-12);
  EXPECT_NEAR(via_joint, via_enum, 1e-12);
  EXPECT_NEAR(via_ie, via_enum, 1e-10);
  EXPECT_NEAR(via_correlated, via_enum, 1e-12);
}

TEST(Integration, ImagePipelineQualityOrdering) {
  // The analytical per-adder error probabilities must predict the PSNR
  // ordering of the image-blend application (better P(E) -> better or
  // equal PSNR), at least for the clear-cut pairs.
  prob::Xoshiro256StarStar rng(77);
  const apps::Image a = apps::Image::blobs(48, 48, 4, rng);
  const apps::Image b = apps::Image::gradient(48, 48);
  const apps::Image reference = apps::exact_blend(a, b);

  const auto psnr_of = [&](const adders::AdderCell& cell) {
    return apps::image_psnr(
        reference,
        apps::approx_blend(a, b, multibit::AdderChain::homogeneous(cell, 8)));
  };
  // LPAA7 (P(E) ~ 0.76 at p=0.5, but sum-exact carries) vs LPAA2
  // (P(E) ~ 0.90 with severe sum corruption): clear-cut.
  EXPECT_GT(psnr_of(adders::lpaa(7)), psnr_of(adders::lpaa(2)));
  // Exact beats everything.
  EXPECT_TRUE(std::isinf(psnr_of(adders::accurate())));
}

TEST(Integration, BoundsPredictApplicationQuality) {
  // max_approximate_lsbs with a tight tolerance must produce a hybrid
  // whose measured MC failure rate honours the tolerance.
  const double epsilon = 0.05;
  const int k = analysis::max_approximate_lsbs(adders::lpaa(7), 12, 0.1,
                                               epsilon);
  ASSERT_GT(k, 0);
  std::vector<adders::AdderCell> stages;
  for (int i = 0; i < k; ++i) stages.push_back(adders::lpaa(7));
  for (int i = k; i < 12; ++i) stages.push_back(adders::accurate());
  const multibit::AdderChain chain(stages);
  const auto profile = multibit::InputProfile::uniform(12, 0.1);
  const auto mc = sim::MonteCarloSimulator::run(chain, profile, 200000);
  EXPECT_LT(mc.metrics.stage_failure_rate(), epsilon + 0.005);
}

TEST(Integration, GearFlowDetectAnalyzeCorrect) {
  const gear::GearConfig config = gear::GearConfig::etaii(12, 3);
  const auto profile = multibit::InputProfile::uniform(12, 0.5);
  // Analytical P(E) agrees with exhaustive...
  const auto analysis = gear::GearAnalyzer::analyze(config, profile);
  const auto metrics = gear::GearAnalyzer::exhaustive(config);
  EXPECT_NEAR(analysis.p_error_exact_dp, metrics.error_rate(), 1e-12);
  // ...and the corrector repairs exactly the cases the model flags.
  const gear::GearCorrector corrector(config);
  const gear::GearAdder adder(config);
  std::uint64_t wrong = 0;
  std::uint64_t flagged = 0;
  for (std::uint64_t a = 0; a < 4096; a += 3) {
    for (std::uint64_t b = 0; b < 4096; b += 5) {
      const bool is_wrong = adder.evaluate(a, b).value(12) !=
                            multibit::exact_add(a, b, false, 12).value(12);
      const bool has_flags = !corrector.detect(a, b).empty();
      wrong += is_wrong ? 1 : 0;
      flagged += has_flags ? 1 : 0;
      EXPECT_EQ(is_wrong, has_flags) << a << " " << b;
    }
  }
  EXPECT_EQ(wrong, flagged);
}

}  // namespace
