// Differential test suite: the paper's Table 6/7 agreement as an
// executable property.  For randomized approximate cells (not just the
// seven published LPAAs) and chain widths 4–12, the analytical P(Err)
// from the M/K/L recursion must match
//   * exhaustive simulation (equally probable inputs — rates are exact
//     probabilities, so agreement is to double precision), and
//   * the inclusion–exclusion baseline under arbitrary per-bit profiles
// within 1e-12.  Any divergence between the three independent engines
// (recursion, enumeration, subset expansion) is a correctness bug.
//
// Every oracle is reached through the engine::evaluate method registry —
// the same dispatch the CLI's --method flag uses — so this suite also
// pins the registry's plumbing (method tagging, work_items accounting)
// to the underlying engines.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/adders/cell.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/baseline/weighted_exhaustive.hpp"
#include "sealpaa/engine/chain_evaluator.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/multibit/joint_profile.hpp"
#include "sealpaa/prob/rng.hpp"
#include "sealpaa/sim/bitsliced.hpp"
#include "sealpaa/sim/exhaustive.hpp"
#include "sealpaa/sim/kernel.hpp"
#include "sealpaa/sim/metrics.hpp"
#include "sealpaa/sim/montecarlo.hpp"
#include "sealpaa/util/kernel_override.hpp"

namespace {

using sealpaa::adders::AdderCell;
using sealpaa::engine::evaluate;
using sealpaa::engine::Method;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;
using sealpaa::sim::BitSlicedKernel;
using sealpaa::sim::ErrorMetrics;
using sealpaa::sim::Kernel;

constexpr int kCellCount = 20;
constexpr double kTolerance = 1e-12;

/// Draws a random 8-row truth table.  Exact tables (probability 2^-16)
/// are rerolled so every case exercises a genuinely approximate cell.
AdderCell random_cell(sealpaa::prob::SplitMix64& rng, int index) {
  for (;;) {
    std::string sum_column(8, '0');
    std::string carry_column(8, '0');
    const std::uint64_t bits = rng.next();
    for (int row = 0; row < 8; ++row) {
      if (((bits >> row) & 1ULL) != 0) sum_column[static_cast<std::size_t>(row)] = '1';
      if (((bits >> (8 + row)) & 1ULL) != 0) {
        carry_column[static_cast<std::size_t>(row)] = '1';
      }
    }
    AdderCell cell = AdderCell::from_columns(
        "RND" + std::to_string(index), sum_column, carry_column,
        "randomized differential-test cell");
    if (!cell.is_exact()) return cell;
  }
}

/// Chain widths cycle through 4..12 so every width in the paper's
/// validation range is covered several times across the 20 cells.
std::size_t width_for(int index) {
  return 4 + static_cast<std::size_t>(index % 9);
}

TEST(Differential, RecursionMatchesExhaustiveSimulation) {
  sealpaa::prob::SplitMix64 seed_stream(0xd1ff'e2e4'7e57'0001ULL);
  for (int i = 0; i < kCellCount; ++i) {
    const AdderCell cell = random_cell(seed_stream, i);
    // The exhaustive sweep costs 2^(2w+1) chain evaluations; cap the
    // simulated width at 9 (2^19 cases) to keep the suite fast while the
    // recursion itself is checked up to width 12 below.
    const std::size_t width = std::min<std::size_t>(width_for(i), 9);
    const AdderChain chain = AdderChain::homogeneous(cell, width);
    const InputProfile profile = InputProfile::uniform(width, 0.5);
    const auto sim = evaluate(chain, profile, Method::kExhaustiveSim);
    const auto recursive = evaluate(chain, profile, Method::kRecursive);
    EXPECT_NEAR(sim.p_error, recursive.p_error, kTolerance)
        << cell.name() << " width " << width << "\n"
        << cell.to_string();
    EXPECT_EQ(sim.work_items, 1ULL << (2 * width + 1))
        << "exhaustive simulation must enumerate every input case";
    EXPECT_EQ(recursive.work_items, width)
        << "recursion must advance exactly one stage per bit";
  }
}

TEST(Differential, RecursionMatchesInclusionExclusion) {
  sealpaa::prob::SplitMix64 seed_stream(0xd1ff'e2e4'7e57'0001ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xd1ff'e2e4'7e57'0002ULL);
  for (int i = 0; i < kCellCount; ++i) {
    const AdderCell cell = random_cell(seed_stream, i);
    const std::size_t width = width_for(i);
    const AdderChain chain = AdderChain::homogeneous(cell, width);
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    const auto recursive = evaluate(chain, profile, Method::kRecursive);
    const auto ie = evaluate(chain, profile, Method::kInclusionExclusion);
    EXPECT_NEAR(recursive.p_error, ie.p_error, kTolerance)
        << cell.name() << " width " << width;
    EXPECT_NEAR(recursive.p_success, ie.p_success, kTolerance)
        << cell.name() << " width " << width;
    EXPECT_EQ(ie.work_items, (1ULL << width) - 1)
        << "inclusion-exclusion must expand every non-empty subset";
  }
}

TEST(Differential, RecursionMatchesWeightedEnumeration) {
  // The strongest oracle: exact weighted enumeration of all assignments
  // under a random non-uniform profile (subset of cells to bound cost).
  sealpaa::prob::SplitMix64 seed_stream(0xd1ff'e2e4'7e57'0001ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xd1ff'e2e4'7e57'0003ULL);
  for (int i = 0; i < kCellCount; ++i) {
    const AdderCell cell = random_cell(seed_stream, i);
    if (i % 4 != 0) continue;
    const std::size_t width = std::min<std::size_t>(width_for(i), 8);
    const AdderChain chain = AdderChain::homogeneous(cell, width);
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    const auto oracle =
        evaluate(chain, profile, Method::kWeightedExhaustive);
    const auto recursive = evaluate(chain, profile, Method::kRecursive);
    EXPECT_NEAR(recursive.p_success, oracle.p_success, kTolerance)
        << cell.name() << " width " << width;
  }
}

TEST(Differential, BitSlicedMatchesScalarOnRandomHybridChains) {
  // The bit-identity contract of the 64-lane kernel, lane by lane: 200+
  // random hybrid chains spanning widths 1..16 (plus the 63-bit packing
  // edge, where the carry-out occupies the top bit of the lane value),
  // each evaluated on 64 random input vectors through both the kernel
  // and the scalar evaluate_traced / exact_add reference.  Error counts,
  // signed errors, first-failed-stage histograms and the accumulated
  // metrics must be exactly equal — no tolerances.
  sealpaa::prob::SplitMix64 cell_stream(0xb17'511ce'd1ffULL);
  sealpaa::prob::SplitMix64 input_stream(0xb17'511ce'1a9eULL);
  std::map<int, std::uint64_t> scalar_first_failed_histogram;
  std::map<int, std::uint64_t> sliced_first_failed_histogram;
  ErrorMetrics scalar_total;
  ErrorMetrics sliced_total;

  constexpr int kTrials = 208;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Widths cycle 1..16; every 32nd trial stresses the 63-bit edge.
    const std::size_t width =
        trial % 32 == 31 ? 63 : 1 + static_cast<std::size_t>(trial % 16);
    std::vector<AdderCell> stages;
    stages.reserve(width);
    for (std::size_t s = 0; s < width; ++s) {
      stages.push_back(
          random_cell(cell_stream, trial * 1000 + static_cast<int>(s)));
    }
    const AdderChain chain(std::move(stages));
    const BitSlicedKernel kernel(chain);
    ASSERT_EQ(kernel.width(), width);

    std::array<std::uint64_t, 64> a_lanes;
    std::array<std::uint64_t, 64> b_lanes;
    std::uint64_t cin_word = 0;
    for (unsigned lane = 0; lane < 64; ++lane) {
      a_lanes[lane] = input_stream.next();
      b_lanes[lane] = input_stream.next();
      if ((input_stream.next() & 1ULL) != 0) cin_word |= 1ULL << lane;
    }
    // Odd trials run a partial batch to cover remainder-lane masking.
    const std::uint64_t lane_mask =
        trial % 2 == 0 ? ~0ULL : (1ULL << (1 + trial % 63)) - 1ULL;
    const BitSlicedKernel::Result result =
        kernel.run(a_lanes.data(), b_lanes.data(), cin_word, lane_mask);
    sealpaa::sim::accumulate(sliced_total, result);

    for (unsigned lane = 0; lane < 64; ++lane) {
      if (((lane_mask >> lane) & 1ULL) == 0) {
        // Masked lanes must stay silent.
        ASSERT_EQ((result.value_error_mask >> lane) & 1ULL, 0u);
        ASSERT_EQ((result.stage_fail_mask >> lane) & 1ULL, 0u);
        ASSERT_EQ(result.error[lane], 0);
        ASSERT_EQ(result.first_failed[lane], -1);
        continue;
      }
      const bool cin = ((cin_word >> lane) & 1ULL) != 0;
      const auto traced =
          chain.evaluate_traced(a_lanes[lane], b_lanes[lane], cin);
      const auto exact = sealpaa::multibit::exact_add(
          a_lanes[lane], b_lanes[lane], cin, width);
      const std::uint64_t approx_value = traced.outputs.value(width);
      const std::uint64_t exact_value = exact.value(width);
      scalar_total.add(approx_value, exact_value, traced.all_stages_success);
      scalar_first_failed_histogram[traced.first_failed_stage]++;
      sliced_first_failed_histogram[result.first_failed[lane]]++;

      ASSERT_EQ(((result.stage_fail_mask >> lane) & 1ULL) != 0,
                !traced.all_stages_success)
          << chain.describe() << " lane " << lane;
      ASSERT_EQ(result.first_failed[lane], traced.first_failed_stage)
          << chain.describe() << " lane " << lane;
      ASSERT_EQ(((result.value_error_mask >> lane) & 1ULL) != 0,
                approx_value != exact_value)
          << chain.describe() << " lane " << lane;
      ASSERT_EQ(((result.sum_bits_error_mask >> lane) & 1ULL) != 0,
                traced.outputs.sum_bits != exact.sum_bits)
          << chain.describe() << " lane " << lane;
      ASSERT_EQ(result.error[lane],
                static_cast<std::int64_t>(approx_value) -
                    static_cast<std::int64_t>(exact_value))
          << chain.describe() << " lane " << lane;
    }
  }

  EXPECT_EQ(scalar_first_failed_histogram, sliced_first_failed_histogram);
  EXPECT_EQ(scalar_total.cases(), sliced_total.cases());
  EXPECT_EQ(scalar_total.value_errors(), sliced_total.value_errors());
  EXPECT_EQ(scalar_total.stage_failures(), sliced_total.stage_failures());
  EXPECT_EQ(scalar_total.mean_error(), sliced_total.mean_error());
  EXPECT_EQ(scalar_total.mean_abs_error(), sliced_total.mean_abs_error());
  EXPECT_EQ(scalar_total.mean_squared_error(),
            sliced_total.mean_squared_error());
  EXPECT_EQ(scalar_total.worst_case_error(), sliced_total.worst_case_error());
  // Sanity: the random cells actually produced failures to histogram.
  EXPECT_GT(scalar_total.stage_failures(), 0u);
}

TEST(Differential, SimulatorsIdenticalAcrossKernelsThroughRegistry) {
  // The same kernel-equality contract end to end through
  // engine::evaluate — the dispatch the CLI uses.  Exact equality, not
  // kTolerance: the two backends must count the same errors.
  sealpaa::prob::SplitMix64 seed_stream(0xd1ff'e2e4'7e57'0006ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xd1ff'e2e4'7e57'0007ULL);
  for (int i = 0; i < 8; ++i) {
    const AdderCell cell = random_cell(seed_stream, i);
    const std::size_t width = 2 + static_cast<std::size_t>(i);  // 2..9
    const AdderChain chain = AdderChain::homogeneous(cell, width);

    sealpaa::engine::EvaluateOptions scalar_opts;
    scalar_opts.kernel = Kernel::kScalar;
    scalar_opts.samples = 20000;
    sealpaa::engine::EvaluateOptions sliced_opts = scalar_opts;
    sliced_opts.kernel = Kernel::kBitSliced;

    const InputProfile uniform = InputProfile::uniform(width, 0.5);
    EXPECT_EQ(evaluate(chain, uniform, Method::kExhaustiveSim,
                       scalar_opts).p_error,
              evaluate(chain, uniform, Method::kExhaustiveSim,
                       sliced_opts).p_error)
        << cell.name() << " width " << width;

    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    EXPECT_EQ(evaluate(chain, profile, Method::kWeightedExhaustive,
                       scalar_opts).p_error,
              evaluate(chain, profile, Method::kWeightedExhaustive,
                       sliced_opts).p_error)
        << cell.name() << " width " << width;
    EXPECT_EQ(evaluate(chain, profile, Method::kMonteCarlo,
                       scalar_opts).p_error,
              evaluate(chain, profile, Method::kMonteCarlo,
                       sliced_opts).p_error)
        << cell.name() << " width " << width;
  }
}

TEST(Differential, WeightedEnumerationIdenticalAcrossKernels) {
  // Full-report equality of the weighted oracle under both kernels,
  // including the signed-error distribution — for the marginal and the
  // correlated (joint) profile variants.
  sealpaa::prob::SplitMix64 seed_stream(0xd1ff'e2e4'7e57'0008ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xd1ff'e2e4'7e57'0009ULL);
  for (int i = 0; i < 6; ++i) {
    const AdderCell cell = random_cell(seed_stream, i);
    const std::size_t width = 2 + static_cast<std::size_t>(i);  // 2..7
    const AdderChain chain = AdderChain::homogeneous(cell, width);
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.0, 1.0);

    using sealpaa::baseline::WeightedExhaustive;
    const auto scalar =
        WeightedExhaustive::analyze(chain, profile, 14, 1, Kernel::kScalar);
    const auto sliced =
        WeightedExhaustive::analyze(chain, profile, 14, 1,
                                    Kernel::kBitSliced);
    EXPECT_EQ(scalar.p_stage_success, sliced.p_stage_success);
    EXPECT_EQ(scalar.p_value_correct, sliced.p_value_correct);
    EXPECT_EQ(scalar.p_sum_bits_correct, sliced.p_sum_bits_correct);
    EXPECT_EQ(scalar.mean_error, sliced.mean_error);
    EXPECT_EQ(scalar.mean_abs_error, sliced.mean_abs_error);
    EXPECT_EQ(scalar.mean_squared_error, sliced.mean_squared_error);
    EXPECT_EQ(scalar.worst_case_error, sliced.worst_case_error);
    EXPECT_EQ(scalar.error_distribution, sliced.error_distribution);

    // Correlated factories need symmetric marginals for moderate rho.
    const InputProfile safe_profile =
        InputProfile::uniform(width, 0.25 + 0.08 * i);
    const auto joint =
        sealpaa::multibit::JointInputProfile::correlated(safe_profile, 0.4);
    const auto scalar_joint = WeightedExhaustive::analyze_joint(
        chain, joint, 14, 1, Kernel::kScalar);
    const auto sliced_joint = WeightedExhaustive::analyze_joint(
        chain, joint, 14, 1, Kernel::kBitSliced);
    EXPECT_EQ(scalar_joint.p_stage_success, sliced_joint.p_stage_success);
    EXPECT_EQ(scalar_joint.error_distribution,
              sliced_joint.error_distribution);
  }
}

TEST(Differential, AnalyticPmfMatchesWeightedEnumeration) {
  // The analytic-pmf engine against the strongest oracle: exact weighted
  // enumeration, arbitrary profiles, widths 4..12.  Distribution moments
  // agree to 1e-12 (relative past 1); the stage-level p_error must be
  // *bit-identical* to the recursive engine, which analytic-pmf wraps.
  sealpaa::prob::SplitMix64 seed_stream(0xd1ff'e2e4'7e57'000aULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xd1ff'e2e4'7e57'000bULL);
  for (int i = 0; i < 9; ++i) {
    const std::size_t width = 4 + static_cast<std::size_t>(i);  // 4..12
    std::vector<AdderCell> stages;
    for (std::size_t s = 0; s < width; ++s) {
      stages.push_back(random_cell(seed_stream, i * 100 + static_cast<int>(s)));
    }
    const AdderChain chain(stages);
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);

    const auto analytic = evaluate(chain, profile, Method::kAnalyticPmf);
    const auto recursive = evaluate(chain, profile, Method::kRecursive);
    EXPECT_EQ(analytic.p_error, recursive.p_error)
        << "analytic-pmf must replay the recursive engine bit for bit, "
        << "width " << width;
    EXPECT_EQ(analytic.p_success, recursive.p_success) << width;
    EXPECT_EQ(analytic.work_items, width) << "no simulation samples";

    const auto oracle = evaluate(chain, profile, Method::kWeightedExhaustive);
    ASSERT_TRUE(analytic.distribution.has_value());
    ASSERT_TRUE(oracle.distribution.has_value());
    const auto close = [](double got, double want) {
      return std::abs(got - want) <= kTolerance * std::max(1.0, std::abs(want));
    };
    EXPECT_TRUE(close(analytic.distribution->error_rate,
                      oracle.distribution->error_rate))
        << analytic.distribution->error_rate << " vs "
        << oracle.distribution->error_rate << " width " << width;
    EXPECT_TRUE(close(analytic.distribution->mean_error,
                      oracle.distribution->mean_error))
        << analytic.distribution->mean_error << " vs "
        << oracle.distribution->mean_error << " width " << width;
    EXPECT_TRUE(close(analytic.distribution->mean_error_distance,
                      oracle.distribution->mean_error_distance))
        << analytic.distribution->mean_error_distance << " vs "
        << oracle.distribution->mean_error_distance << " width " << width;
    EXPECT_TRUE(close(analytic.distribution->mean_squared_error,
                      oracle.distribution->mean_squared_error))
        << analytic.distribution->mean_squared_error << " vs "
        << oracle.distribution->mean_squared_error << " width " << width;
    EXPECT_EQ(analytic.distribution->worst_case_error,
              oracle.distribution->worst_case_error)
        << "width " << width;
    ASSERT_TRUE(analytic.pmf.has_value());
    EXPECT_NEAR(analytic.pmf->total_mass, 1.0, kTolerance) << width;
  }
}

TEST(Differential, AnalyticPmfMatchesBitSlicedExhaustiveSimulation) {
  // Equally probable inputs make the bit-sliced exhaustive sweep's
  // moments exact probabilities — a fully independent oracle (lane
  // kernel + integer counters vs the probabilistic DP).
  sealpaa::prob::SplitMix64 seed_stream(0xd1ff'e2e4'7e57'000cULL);
  for (int i = 0; i < 6; ++i) {
    const AdderCell cell = random_cell(seed_stream, i);
    const std::size_t width = 4 + static_cast<std::size_t>(i);  // 4..9
    const AdderChain chain = AdderChain::homogeneous(cell, width);
    const InputProfile profile = InputProfile::uniform(width, 0.5);

    sealpaa::engine::EvaluateOptions sliced;
    sliced.kernel = Kernel::kBitSliced;
    const auto sim = evaluate(chain, profile, Method::kExhaustiveSim, sliced);
    const auto analytic = evaluate(chain, profile, Method::kAnalyticPmf);
    ASSERT_TRUE(sim.distribution.has_value());
    ASSERT_TRUE(analytic.distribution.has_value());
    const auto close = [](double got, double want) {
      return std::abs(got - want) <= kTolerance * std::max(1.0, std::abs(want));
    };
    EXPECT_TRUE(close(analytic.distribution->mean_error_distance,
                      sim.distribution->mean_error_distance))
        << analytic.distribution->mean_error_distance << " vs "
        << sim.distribution->mean_error_distance << " width " << width;
    EXPECT_TRUE(close(analytic.distribution->mean_squared_error,
                      sim.distribution->mean_squared_error))
        << analytic.distribution->mean_squared_error << " vs "
        << sim.distribution->mean_squared_error << " width " << width;
    EXPECT_TRUE(close(analytic.distribution->error_rate,
                      sim.distribution->error_rate))
        << width;
    EXPECT_EQ(analytic.distribution->worst_case_error,
              sim.distribution->worst_case_error)
        << width;
  }
}

TEST(Differential, AnalyticPmfWidth32InsideMonteCarloConfidenceInterval) {
  // Width 32 is far beyond any enumeration oracle; the check is
  // statistical: the analytic MED must land inside the Monte Carlo 99%
  // CI for E[|err|], with var(|err|) estimated as MSE - MED^2.  The
  // chain is the realistic hybrid shape — approximate low bits, exact
  // high bits — whose PMF support stays small at any width.
  const std::size_t width = 32;
  std::vector<AdderCell> stages;
  for (std::size_t s = 0; s < width; ++s) {
    stages.push_back(s < 8 ? sealpaa::adders::lpaa(1 + static_cast<int>(s % 7))
                           : sealpaa::adders::accurate());
  }
  const AdderChain chain(stages);
  const InputProfile profile = InputProfile::uniform(width, 0.42);

  const auto analytic = evaluate(chain, profile, Method::kAnalyticPmf);
  ASSERT_TRUE(analytic.distribution.has_value());
  EXPECT_EQ(analytic.work_items, width) << "zero simulation samples";

  sealpaa::engine::EvaluateOptions mc_opts;
  mc_opts.samples = 400'000;
  mc_opts.seed = 0xd1ff'e2e4'7e57'000dULL;
  const auto mc = evaluate(chain, profile, Method::kMonteCarlo, mc_opts);
  ASSERT_TRUE(mc.distribution.has_value());

  const double med_hat = mc.distribution->mean_error_distance;
  const double mse_hat = mc.distribution->mean_squared_error;
  const double variance = std::max(0.0, mse_hat - med_hat * med_hat);
  const double half_width =
      2.5758 * std::sqrt(variance / static_cast<double>(mc_opts.samples));
  const double med = analytic.distribution->mean_error_distance;
  EXPECT_GE(med, med_hat - half_width)
      << "analytic MED " << med << " below MC 99% CI [" << med_hat - half_width
      << ", " << med_hat + half_width << "]";
  EXPECT_LE(med, med_hat + half_width)
      << "analytic MED " << med << " above MC 99% CI [" << med_hat - half_width
      << ", " << med_hat + half_width << "]";
}

TEST(Differential, HybridChainsOfRandomCellsAgree) {
  // Heterogeneous chains mixing random cells per stage — the shape the
  // hybrid DSE produces — validated against inclusion–exclusion.
  sealpaa::prob::SplitMix64 seed_stream(0xd1ff'e2e4'7e57'0004ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xd1ff'e2e4'7e57'0005ULL);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t width = 4 + static_cast<std::size_t>(trial * 2);  // 4..12
    std::vector<AdderCell> stages;
    for (std::size_t s = 0; s < width; ++s) {
      stages.push_back(
          random_cell(seed_stream, trial * 100 + static_cast<int>(s)));
    }
    const AdderChain chain(stages);
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.1, 0.9);
    const auto recursive = evaluate(chain, profile, Method::kRecursive);
    const auto ie = evaluate(chain, profile, Method::kInclusionExclusion);
    EXPECT_NEAR(recursive.p_error, ie.p_error, kTolerance)
        << chain.describe() << " width " << width;
  }
}

TEST(Differential, BatchEvaluatorAgreesWithRecursionAtEveryKernelLevel) {
  // The many-chain lane path against the scalar recursion, at every
  // forced dispatch tier: the lane loop calls the same Equation 10-12
  // kernel as the recursion and never touches a SIMD kernel, so it must
  // be bit-identical whatever the cap.  Forcing is a cap, so walking
  // avx2/avx512 is safe on any box.
  sealpaa::prob::SplitMix64 seed_stream(0xd1ff'e2e4'7e57'0006ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xd1ff'e2e4'7e57'0007ULL);
  sealpaa::prob::SplitMix64 chain_rng(0xd1ff'e2e4'7e57'0008ULL);
  const std::size_t width = 12;
  std::vector<AdderCell> palette;
  for (int c = 0; c < 5; ++c) palette.push_back(random_cell(seed_stream, c));
  const InputProfile profile =
      InputProfile::random(width, profile_rng, 0.1, 0.9);

  std::vector<std::vector<std::size_t>> chains(16);
  std::vector<std::span<const std::size_t>> spans;
  std::vector<sealpaa::analysis::AnalysisResult> oracle;
  for (std::vector<std::size_t>& choice : chains) {
    std::vector<AdderCell> stages;
    for (std::size_t s = 0; s < width; ++s) {
      choice.push_back(chain_rng.next() % palette.size());
      stages.push_back(palette[choice.back()]);
    }
    spans.emplace_back(choice);
    oracle.push_back(sealpaa::analysis::RecursiveAnalyzer::analyze(
        AdderChain(stages), profile));
  }

  struct Guard {
    ~Guard() { sealpaa::util::set_forced_kernel(std::nullopt); }
  } guard;
  for (const sealpaa::util::KernelLevel level :
       {sealpaa::util::KernelLevel::kScalar,
        sealpaa::util::KernelLevel::kAvx2,
        sealpaa::util::KernelLevel::kAvx512}) {
    sealpaa::util::set_forced_kernel(level);
    sealpaa::engine::ChainEvaluator evaluator(profile, palette);
    const auto lanes = evaluator.evaluate_batch(spans);
    ASSERT_EQ(lanes.size(), oracle.size());
    for (std::size_t l = 0; l < oracle.size(); ++l) {
      EXPECT_EQ(lanes[l].p_error, oracle[l].p_error)
          << sealpaa::util::kernel_level_name(level) << " lane " << l;
      EXPECT_EQ(lanes[l].p_success, oracle[l].p_success)
          << sealpaa::util::kernel_level_name(level) << " lane " << l;
      EXPECT_EQ(lanes[l].final_carry.c0, oracle[l].final_carry.c0)
          << sealpaa::util::kernel_level_name(level) << " lane " << l;
      EXPECT_EQ(lanes[l].final_carry.c1, oracle[l].final_carry.c1)
          << sealpaa::util::kernel_level_name(level) << " lane " << l;
    }
  }
}

}  // namespace
