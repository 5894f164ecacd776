// Block-adder layer: BlockChainSpec validation/parsing, the scalar and
// bit-sliced functional models, the exact BlockErrorModel conditioning
// DP against the weighted-exhaustive oracle (named families plus
// random heterogeneous chains), the monotonicity property in every
// prediction window, and the block-partition DSE.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/block_error.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/explore/block_search.hpp"
#include "sealpaa/gear/gear.hpp"
#include "sealpaa/multibit/blocks.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/sim/block_sliced.hpp"

namespace {

using sealpaa::analysis::BlockAnalysis;
using sealpaa::analysis::BlockErrorModel;
using sealpaa::analysis::ErrorPmf;
using sealpaa::multibit::BlockAdder;
using sealpaa::multibit::BlockChainSpec;
using sealpaa::multibit::exact_add;
using sealpaa::multibit::InputProfile;
using sealpaa::multibit::SubBlock;

// ---------------------------------------------------------------------
// BlockChainSpec: validation and parsing.
// ---------------------------------------------------------------------

TEST(BlockChainSpec, GeometryAccessors) {
  const BlockChainSpec spec(
      {SubBlock{4, 0}, SubBlock{2, 2}, SubBlock{3, 1}, SubBlock{3, 4}});
  EXPECT_EQ(spec.n(), 12);
  EXPECT_EQ(spec.block_count(), 4);
  EXPECT_EQ(spec.result_start(2), 6);
  EXPECT_EQ(spec.result_end(2), 9);
  EXPECT_EQ(spec.window_start(2), 5);
  EXPECT_EQ(spec.sub_adder_width(2), 4);
  EXPECT_EQ(spec.critical_path_bits(), 7);  // block 3: P=4 + R=3
  EXPECT_EQ(spec.producing_block(0), 0);
  EXPECT_EQ(spec.producing_block(5), 1);
  EXPECT_EQ(spec.producing_block(11), 3);
  EXPECT_FALSE(spec.is_exact());
  EXPECT_TRUE(BlockChainSpec({SubBlock{8, 0}}).is_exact());
}

TEST(BlockChainSpec, InvalidChainsRejected) {
  EXPECT_THROW(BlockChainSpec({}), std::invalid_argument);
  EXPECT_THROW(BlockChainSpec({SubBlock{0, 0}}), std::invalid_argument);
  EXPECT_THROW(BlockChainSpec({SubBlock{4, -1}}), std::invalid_argument);
  // Block 0 has no bits below it: P_0 must be 0.
  EXPECT_THROW(BlockChainSpec({SubBlock{4, 1}, SubBlock{4, 0}}),
               std::invalid_argument);
  // P_i may not reach below bit 0.
  EXPECT_THROW(BlockChainSpec({SubBlock{2, 0}, SubBlock{2, 3}}),
               std::invalid_argument);
}

TEST(BlockChainSpec, ParseRoundTripsAndRejects) {
  for (const char* text :
       {"4:0,4:2,4:1,4:4", "8:0,4:4,4:4", "aca:4", "etaii:4", "gear:4:4",
        "hetero:4:0,4:2,4:4,4:1"}) {
    const BlockChainSpec spec = BlockChainSpec::parse(16, text);
    EXPECT_EQ(spec.n(), 16) << text;
    // Canonical form re-parses to the same chain.
    const BlockChainSpec again = BlockChainSpec::parse(16, spec.to_string());
    EXPECT_EQ(again.blocks(), spec.blocks()) << text;
  }
  EXPECT_THROW(BlockChainSpec::parse(16, ""), std::invalid_argument);
  EXPECT_THROW(BlockChainSpec::parse(16, "4:0,4:4"), std::invalid_argument);
  EXPECT_THROW(BlockChainSpec::parse(16, "nope"), std::invalid_argument);
  EXPECT_THROW(BlockChainSpec::parse(16, "aca:0"), std::invalid_argument);
  EXPECT_THROW(BlockChainSpec::parse(16, "gear:24:4"), std::invalid_argument);
  EXPECT_THROW(BlockChainSpec::parse(16, "4:0,x:2,8:4"),
               std::invalid_argument);
}

TEST(BlockChainSpec, FamiliesMatchTheirDefinitions) {
  // ACA(N, K): leading K-bit exact block, then K-1-bit windows.
  const BlockChainSpec aca = BlockChainSpec::parse(8, "aca:4");
  EXPECT_EQ(aca.to_string(), "4:0,1:3,1:3,1:3,1:3");
  // ETAII(N, X): X-bit blocks, each predicting from the X bits below.
  const BlockChainSpec etaii = BlockChainSpec::parse(8, "etaii:3");
  EXPECT_EQ(etaii.to_string(), "3:0,3:3,2:3");
  // GeAr via the family parser == the relaxed GearConfig's own mapping.
  for (const auto& [n, r, p] : std::vector<std::array<int, 3>>{
           {16, 4, 4}, {9, 2, 2}, {10, 4, 3}, {8, 8, 0}}) {
    const BlockChainSpec from_parse = BlockChainSpec::parse(
        n, "gear:" + std::to_string(r) + ":" + std::to_string(p));
    const BlockChainSpec from_config =
        sealpaa::gear::GearConfig(n, r, p).to_blocks();
    EXPECT_EQ(from_parse.to_string(), from_config.to_string())
        << "GeAr(" << n << "," << r << "," << p << ")";
  }
}

// ---------------------------------------------------------------------
// Functional models: scalar BlockAdder vs GeAr, and the 64-lane
// bit-sliced kernel vs the scalar reference.
// ---------------------------------------------------------------------

TEST(BlockAdder, MatchesGearAdderOnGearGeometry) {
  for (const auto& [n, r, p] : std::vector<std::array<int, 3>>{
           {8, 2, 2}, {9, 2, 2}, {10, 4, 3}, {10, 3, 1}}) {
    const sealpaa::gear::GearConfig config(n, r, p);
    const sealpaa::gear::GearAdder gear{config};
    const BlockAdder block{config.to_blocks()};
    const std::uint64_t limit = 1ULL << n;
    for (std::uint64_t a = 0; a < limit; ++a) {
      for (std::uint64_t b = 0; b < limit; b += 3) {
        ASSERT_EQ(block.evaluate(a, b).value(static_cast<std::size_t>(n)),
                  gear.evaluate(a, b).value(static_cast<std::size_t>(n)))
            << config.describe() << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(BlockSliced, BitIdenticalToScalarBlockAdder) {
  std::mt19937_64 rng(0x5ea1'b10cULL);
  for (const char* text :
       {"gear:4:4", "aca:4", "etaii:3", "4:0,2:2,4:3,2:1,4:4"}) {
    const BlockChainSpec spec = BlockChainSpec::parse(16, text);
    const BlockAdder scalar(spec);
    const sealpaa::sim::BlockSlicedKernel kernel(spec);
    for (int round = 0; round < 32; ++round) {
      std::array<std::uint64_t, 64> a_lanes{};
      std::array<std::uint64_t, 64> b_lanes{};
      const std::uint64_t mask16 = (1ULL << 16) - 1;
      for (std::size_t lane = 0; lane < 64; ++lane) {
        a_lanes[lane] = rng() & mask16;
        b_lanes[lane] = rng() & mask16;
      }
      const std::uint64_t cin_word = rng();
      const auto result =
          kernel.run(a_lanes.data(), b_lanes.data(), cin_word, ~0ULL);
      for (std::size_t lane = 0; lane < 64; ++lane) {
        const bool cin = ((cin_word >> lane) & 1) != 0;
        const auto approx = scalar.evaluate(a_lanes[lane], b_lanes[lane], cin);
        const auto exact = exact_add(a_lanes[lane], b_lanes[lane], cin, 16);
        const std::int64_t error =
            static_cast<std::int64_t>(approx.value(16)) -
            static_cast<std::int64_t>(exact.value(16));
        ASSERT_EQ(((result.value_error_mask >> lane) & 1) != 0, error != 0)
            << text << " lane " << lane;
        ASSERT_EQ(result.error[lane], error) << text << " lane " << lane;
      }
    }
  }
}

// ---------------------------------------------------------------------
// The exact conditioning DP against the weighted-exhaustive oracle.
// ---------------------------------------------------------------------

void expect_analysis_matches_oracle(const BlockChainSpec& spec,
                                    const InputProfile& profile,
                                    double tolerance) {
  const BlockAnalysis analytic = BlockErrorModel::analyze(spec, profile);
  const ErrorPmf oracle = BlockErrorModel::exhaustive_pmf(spec, profile);
  const std::string what = spec.describe();
  // The standalone error-rate DP and the PMF agree with each other...
  EXPECT_NEAR(analytic.p_error, analytic.pmf.error_rate(), tolerance) << what;
  // ...and both match the enumeration, moment for moment.
  EXPECT_NEAR(analytic.p_error, oracle.error_rate(), tolerance) << what;
  EXPECT_NEAR(analytic.pmf.mean_error(), oracle.mean_error(), tolerance)
      << what;
  EXPECT_NEAR(analytic.pmf.mean_error_distance(),
              oracle.mean_error_distance(),
              tolerance * std::max(1.0, oracle.mean_error_distance()))
      << what;
  EXPECT_NEAR(analytic.pmf.mean_squared_error(), oracle.mean_squared_error(),
              tolerance * std::max(1.0, oracle.mean_squared_error()))
      << what;
  EXPECT_EQ(analytic.pmf.worst_case_error(), oracle.worst_case_error())
      << what;
  EXPECT_NEAR(analytic.pmf.total_mass(), 1.0, 1e-12) << what;
}

TEST(BlockErrorModel, NamedFamiliesMatchWeightedExhaustive) {
  for (const char* text : {"gear:3:3", "gear:2:2", "aca:4", "aca:3",
                           "etaii:3", "etaii:4", "gear:4:2"}) {
    for (const double p : {0.5, 0.42, 0.3}) {
      const BlockChainSpec spec = BlockChainSpec::parse(10, text);
      expect_analysis_matches_oracle(
          spec, InputProfile::uniform(10, p), 1e-12);
    }
  }
}

TEST(BlockErrorModel, NonUniformProfilesAndCinMatchTheOracle) {
  std::mt19937_64 rng(0xb10c'0001ULL);
  std::uniform_real_distribution<double> unit(0.05, 0.95);
  const BlockChainSpec spec = BlockChainSpec::parse(9, "3:0,2:2,2:3,2:1");
  for (int round = 0; round < 4; ++round) {
    std::vector<double> pa(9), pb(9);
    for (int j = 0; j < 9; ++j) {
      pa[static_cast<std::size_t>(j)] = unit(rng);
      pb[static_cast<std::size_t>(j)] = unit(rng);
    }
    const InputProfile profile(pa, pb, unit(rng));
    expect_analysis_matches_oracle(spec, profile, 1e-12);
  }
}

/// Random partition of `n` result bits into feasible (R_i, P_i) blocks.
std::vector<SubBlock> random_chain(std::mt19937_64& rng, int n) {
  std::vector<SubBlock> blocks;
  int s = 0;
  while (s < n) {
    const int r = 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                           std::min(5, n - s)));
    const int p_max = std::min(s, 6);
    const int p =
        s == 0 ? 0
               : static_cast<int>(rng() %
                                  static_cast<std::uint64_t>(p_max + 1));
    blocks.push_back({r, p});
    s += r;
  }
  return blocks;
}

TEST(BlockErrorModel, RandomHeterogeneousChainsMatchTheOracle) {
  // >= 50 random heterogeneous configurations.  Enumeration is the
  // bottleneck, so widths 8-11 carry the exact-oracle comparison...
  std::mt19937_64 rng(0xd1ff'5ea1ULL);
  for (int round = 0; round < 52; ++round) {
    const int n = 8 + static_cast<int>(rng() % 4);
    const BlockChainSpec spec{random_chain(rng, n)};
    const double p = 0.25 + 0.5 * (static_cast<double>(rng() % 101) / 100.0);
    expect_analysis_matches_oracle(
        spec, InputProfile::uniform(static_cast<std::size_t>(n), p), 1e-12);
  }
}

TEST(BlockErrorModel, WideChainsMatchTheBitSlicedSweep) {
  // ...and widths 12-16 are cross-validated against the bit-sliced
  // kernel: exhaustively at 12-13, via the two independent analytic
  // paths (error-rate DP vs PMF) plus Monte Carlo above that.
  std::mt19937_64 rng(0x1a4e'5ea1ULL);
  for (const int n : {12, 13}) {
    const BlockChainSpec spec{random_chain(rng, n)};
    const InputProfile profile = InputProfile::uniform_with_cin(
        static_cast<std::size_t>(n), 0.5, 0.0);
    const BlockAnalysis analytic = BlockErrorModel::analyze(spec, profile);
    const sealpaa::sim::ErrorMetrics sweep =
        sealpaa::sim::block_exhaustive(spec);
    EXPECT_NEAR(analytic.pmf.error_rate(), sweep.error_rate(), 1e-12)
        << spec.describe();
    EXPECT_NEAR(analytic.pmf.mean_error_distance(), sweep.mean_abs_error(),
                1e-9 * std::max(1.0, sweep.mean_abs_error()))
        << spec.describe();
    EXPECT_EQ(analytic.pmf.worst_case_error(), sweep.worst_case_error())
        << spec.describe();
  }
  for (const int n : {14, 15, 16}) {
    const BlockChainSpec spec{random_chain(rng, n)};
    const InputProfile profile =
        InputProfile::uniform(static_cast<std::size_t>(n), 0.42);
    const BlockAnalysis analytic = BlockErrorModel::analyze(spec, profile);
    EXPECT_NEAR(analytic.p_error, analytic.pmf.error_rate(), 1e-12)
        << spec.describe();
    const std::uint64_t samples = 1 << 18;
    const sealpaa::sim::ErrorMetrics mc = sealpaa::sim::block_monte_carlo(
        spec, profile, samples, 0x5eed'0000ULL + static_cast<unsigned>(n));
    const double sigma = std::sqrt(
        std::max(1e-12, analytic.p_error * (1.0 - analytic.p_error) /
                            static_cast<double>(samples)));
    EXPECT_NEAR(mc.error_rate(), analytic.p_error, 5.0 * sigma)
        << spec.describe();
  }
}

TEST(BlockErrorModel, ExactChainHasZeroError) {
  const BlockChainSpec spec({SubBlock{16, 0}});
  const BlockAnalysis analytic =
      BlockErrorModel::analyze(spec, InputProfile::uniform(16, 0.5));
  EXPECT_EQ(analytic.p_error, 0.0);
  EXPECT_EQ(analytic.pmf.worst_case_error(), 0);
  EXPECT_NEAR(analytic.pmf.probability_of(0), 1.0, 1e-12);
}

TEST(BlockErrorModel, ErrorRateMonotoneNonIncreasingInEveryWindow) {
  // Widening any single prediction window P_i (all else fixed) refines
  // that block's carry prediction: its mismatch event shrinks pointwise
  // (a longer propagate chain is a sub-event), so P(Error) cannot grow.
  const InputProfile profile = InputProfile::uniform(12, 0.5);
  const std::vector<SubBlock> base = {
      SubBlock{4, 0}, SubBlock{3, 0}, SubBlock{3, 0}, SubBlock{2, 0}};
  for (std::size_t i = 1; i < base.size(); ++i) {
    double previous = 2.0;  // above any probability
    std::vector<SubBlock> blocks = base;
    int s = 0;
    for (std::size_t k = 0; k < i; ++k) s += base[k].result_width;
    for (int p = 0; p <= std::min(s, 8); ++p) {
      blocks[i].prediction_width = p;
      const BlockAnalysis analytic =
          BlockErrorModel::analyze(BlockChainSpec(blocks), profile);
      EXPECT_LE(analytic.p_error, previous + 1e-12)
          << "block " << i << " P=" << p;
      previous = analytic.p_error;
    }
  }
}

TEST(BlockErrorModel, IndependenceApproxUpperBoundsNothingButIsClose) {
  // The independence approximation is a sanity companion, not a bound;
  // it must at least stay within a few percentage points at p = 0.5.
  const BlockChainSpec spec = BlockChainSpec::parse(16, "gear:4:4");
  const BlockAnalysis analytic =
      BlockErrorModel::analyze(spec, InputProfile::uniform(16, 0.5));
  EXPECT_NEAR(analytic.p_error_independent_approx, analytic.p_error, 0.05);
  ASSERT_EQ(analytic.block_mismatch.size(), 3u);
  EXPECT_EQ(analytic.block_mismatch[0], 0.0);  // block 0 sees the real cin
}

TEST(BlockErrorModel, MismatchMarginalsAreGearBlockFailureBits) {
  // Under carry-in 0, GeAr's per-block failures and the block model's
  // mismatch marginals are one closed form: every GearConfig of width
  // <= 16 that BlockChainSpec accepts gives the same bits, under a
  // uniform and a random profile.
  std::mt19937_64 rng(0x6ea2'b10cULL);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  sealpaa::analysis::BlockAnalysisOptions options;
  options.compute_pmf = false;
  std::size_t checked = 0;
  for (int n = 1; n <= 16; ++n) {
    const auto width = static_cast<std::size_t>(n);
    std::vector<double> pa(width), pb(width);
    for (std::size_t j = 0; j < width; ++j) {
      pa[j] = unit(rng);
      pb[j] = unit(rng);
    }
    const InputProfile profiles[] = {
        InputProfile::uniform_with_cin(width, 0.3, 0.0),
        InputProfile(pa, pb, 0.0)};
    for (int r = 1; r <= n; ++r) {
      for (int p = 0; r + p <= n; ++p) {
        const sealpaa::gear::GearConfig config(n, r, p);
        std::optional<BlockChainSpec> spec;
        try {
          spec = config.to_blocks();
        } catch (const std::invalid_argument&) {
          continue;  // more live windows than the block model's rail
        }
        for (const InputProfile& profile : profiles) {
          const sealpaa::gear::GearAnalysis gear =
              sealpaa::gear::GearAnalyzer::analyze(config, profile);
          const BlockAnalysis block =
              BlockErrorModel::analyze(*spec, profile, options);
          ASSERT_EQ(block.block_mismatch.size(),
                    gear.block_failure.size() + 1)
              << config.describe();
          for (std::size_t i = 1; i < block.block_mismatch.size(); ++i) {
            EXPECT_EQ(gear.block_failure[i - 1], block.block_mismatch[i])
                << config.describe() << " block " << i;
          }
          EXPECT_EQ(gear.p_error_independent_approx,
                    block.p_error_independent_approx)
              << config.describe();
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 1500u);
}

// ---------------------------------------------------------------------
// Engine registry integration.
// ---------------------------------------------------------------------

TEST(EngineBlockAnalytic, RequiresAndValidatesTheSpec) {
  namespace engine = sealpaa::engine;
  const auto profile = InputProfile::uniform(16, 0.5);
  const auto chain = sealpaa::multibit::AdderChain::homogeneous(
      sealpaa::adders::accurate(), 16);
  EXPECT_THROW((void)engine::evaluate(chain, profile,
                                      engine::Method::kBlockAnalytic),
               std::invalid_argument);
  engine::EvaluateOptions options;
  options.blocks = BlockChainSpec::parse(8, "gear:2:2");  // width mismatch
  EXPECT_THROW((void)engine::evaluate(chain, profile,
                                      engine::Method::kBlockAnalytic,
                                      options),
               std::invalid_argument);
  options.blocks = BlockChainSpec::parse(16, "gear:4:4");
  const engine::Evaluation result = engine::evaluate(
      chain, profile, engine::Method::kBlockAnalytic, options);
  const BlockAnalysis direct =
      BlockErrorModel::analyze(*options.blocks, profile);
  EXPECT_EQ(result.p_error, direct.p_error);
  ASSERT_TRUE(result.distribution.has_value());
  EXPECT_EQ(result.distribution->mean_squared_error,
            direct.pmf.mean_squared_error());
  ASSERT_TRUE(result.pmf.has_value());
  EXPECT_EQ(result.pmf->support, direct.pmf.support_size());
  EXPECT_TRUE(engine::method_info(engine::Method::kBlockAnalytic).exact);
  EXPECT_EQ(engine::parse_method("block-analytic"),
            engine::Method::kBlockAnalytic);
}

// ---------------------------------------------------------------------
// Partition DSE: the beam against the exhaustive ground truth.
// ---------------------------------------------------------------------

TEST(BlockOptimizer, BeamWithUnboundedWidthMatchesExhaustive) {
  namespace explore = sealpaa::explore;
  for (const auto objective :
       {explore::Objective::kErrorRate, explore::Objective::kMed,
        explore::Objective::kMse}) {
    explore::BlockSearchOptions options;
    options.max_sub_adder_width = 4;
    options.objective = objective;
    options.beam_width = 1u << 20;  // effectively unbounded
    const auto profile = InputProfile::uniform(8, 0.5);
    const auto best_exhaustive =
        explore::BlockOptimizer::exhaustive(profile, options);
    const auto best_beam = explore::BlockOptimizer::beam(profile, options);
    EXPECT_EQ(best_beam.spec().to_string(),
              best_exhaustive.spec().to_string())
        << "objective " << static_cast<int>(objective);
    EXPECT_EQ(best_beam.objective_value, best_exhaustive.objective_value);
  }
}

TEST(BlockOptimizer, RespectsTheLatencyBudget) {
  namespace explore = sealpaa::explore;
  explore::BlockSearchOptions options;
  options.max_sub_adder_width = 3;
  const auto design = explore::BlockOptimizer::beam(
      InputProfile::uniform(10, 0.5), options);
  const BlockChainSpec spec = design.spec();
  for (int i = 0; i < spec.block_count(); ++i) {
    EXPECT_LE(spec.sub_adder_width(i), 3) << "block " << i;
  }
  // A narrow beam is still a valid (if weaker) optimizer.
  options.beam_width = 2;
  const auto narrow = explore::BlockOptimizer::beam(
      InputProfile::uniform(10, 0.5), options);
  EXPECT_GE(narrow.objective_value, design.objective_value - 1e-15);
}

}  // namespace
