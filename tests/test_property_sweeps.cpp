// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// systematic cross-engine validation over the (cell x width x
// probability) grid, plus randomized-cell fuzzing — the recursion must
// agree with ground truth for ANY 8-row truth table, not just the seven
// published ones.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/gear/gear.hpp"
#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/analysis/joint.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/baseline/inclusion_exclusion.hpp"
#include "sealpaa/baseline/weighted_exhaustive.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/multibit/loa.hpp"
#include "sealpaa/prob/rng.hpp"
#include "sealpaa/sim/exhaustive.hpp"

namespace {

using sealpaa::adders::AdderCell;
using sealpaa::adders::lpaa;
using sealpaa::analysis::JointCarryAnalyzer;
using sealpaa::analysis::RecursiveAnalyzer;
using sealpaa::baseline::InclusionExclusionAnalyzer;
using sealpaa::baseline::WeightedExhaustive;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;

// ---------------------------------------------------------------------
// Sweep 1: every builtin cell x width x uniform probability.
// ---------------------------------------------------------------------
class CellWidthProbability
    : public ::testing::TestWithParam<std::tuple<int, std::size_t, double>> {
};

TEST_P(CellWidthProbability, RecursiveMatchesWeightedExhaustive) {
  const auto [cell_index, width, p] = GetParam();
  const AdderChain chain = AdderChain::homogeneous(lpaa(cell_index), width);
  const InputProfile profile = InputProfile::uniform(width, p);
  const double analytical =
      RecursiveAnalyzer::analyze(chain, profile).p_success;
  const double oracle =
      WeightedExhaustive::analyze(chain, profile).p_stage_success;
  EXPECT_NEAR(analytical, oracle, 1e-12);
}

TEST_P(CellWidthProbability, JointDpAgreesOnStageSuccess) {
  const auto [cell_index, width, p] = GetParam();
  const AdderChain chain = AdderChain::homogeneous(lpaa(cell_index), width);
  const InputProfile profile = InputProfile::uniform(width, p);
  EXPECT_NEAR(JointCarryAnalyzer::analyze(chain, profile).p_stage_success,
              RecursiveAnalyzer::analyze(chain, profile).p_success, 1e-12);
}

TEST_P(CellWidthProbability, ErrorProbabilityIsMonotoneInWidth) {
  // Appending a stage can only discard more success mass.
  const auto [cell_index, width, p] = GetParam();
  const double shorter = RecursiveAnalyzer::error_probability(
      lpaa(cell_index), InputProfile::uniform(width, p));
  const double longer = RecursiveAnalyzer::error_probability(
      lpaa(cell_index), InputProfile::uniform(width + 1, p));
  EXPECT_GE(longer, shorter - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, CellWidthProbability,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values(std::size_t{2}, std::size_t{5},
                                         std::size_t{9}),
                       ::testing::Values(0.1, 0.5, 0.85)),
    [](const auto& param_info) {
      return "LPAA" + std::to_string(std::get<0>(param_info.param)) + "_w" +
             std::to_string(std::get<1>(param_info.param)) + "_p" +
             std::to_string(static_cast<int>(std::get<2>(param_info.param) * 100));
    });

// ---------------------------------------------------------------------
// Sweep 2: randomized truth tables ("fuzzing" the analysis machinery).
// ---------------------------------------------------------------------
class RandomCell : public ::testing::TestWithParam<int> {};

AdderCell make_random_cell(std::uint64_t seed) {
  sealpaa::prob::Xoshiro256StarStar rng(seed);
  AdderCell::Rows rows{};
  for (auto& row : rows) {
    row.sum = rng.bernoulli(0.5);
    row.carry = rng.bernoulli(0.5);
  }
  return AdderCell("fuzz" + std::to_string(seed), rows);
}

TEST_P(RandomCell, RecursiveMatchesGroundTruthOnRandomTable) {
  const AdderCell cell = make_random_cell(static_cast<std::uint64_t>(
      1000 + GetParam()));
  sealpaa::prob::Xoshiro256StarStar rng(static_cast<std::uint64_t>(
      2000 + GetParam()));
  const std::size_t width = 2 + static_cast<std::size_t>(GetParam()) % 6;
  const InputProfile profile = InputProfile::random(width, rng);
  const AdderChain chain = AdderChain::homogeneous(cell, width);
  const double analytical =
      RecursiveAnalyzer::analyze(chain, profile).p_success;
  const double oracle =
      WeightedExhaustive::analyze(chain, profile).p_stage_success;
  EXPECT_NEAR(analytical, oracle, 1e-12) << cell.to_string();
}

TEST_P(RandomCell, InclusionExclusionMatchesRecursionOnRandomTable) {
  const AdderCell cell = make_random_cell(static_cast<std::uint64_t>(
      3000 + GetParam()));
  const std::size_t width = 2 + static_cast<std::size_t>(GetParam()) % 5;
  const InputProfile profile = InputProfile::uniform(width, 0.35);
  const AdderChain chain = AdderChain::homogeneous(cell, width);
  EXPECT_NEAR(InclusionExclusionAnalyzer::analyze(chain, profile).p_error,
              RecursiveAnalyzer::analyze(chain, profile).p_error, 1e-10);
}

TEST_P(RandomCell, MomentsMatchGroundTruthOnRandomTable) {
  const AdderCell cell = make_random_cell(static_cast<std::uint64_t>(
      4000 + GetParam()));
  const std::size_t width = 2 + static_cast<std::size_t>(GetParam()) % 4;
  const InputProfile profile = InputProfile::uniform(width, 0.45);
  const AdderChain chain = AdderChain::homogeneous(cell, width);
  const auto pmf = sealpaa::analysis::propagate_error_pmf(chain, profile);
  const auto oracle = WeightedExhaustive::analyze(chain, profile);
  EXPECT_NEAR(pmf.mean_error(), oracle.mean_error, 1e-9) << cell.to_string();
  EXPECT_NEAR(pmf.mean_squared_error(), oracle.mean_squared_error,
              1e-7 * (1.0 + oracle.mean_squared_error))
      << cell.to_string();
}

INSTANTIATE_TEST_SUITE_P(Fuzz, RandomCell, ::testing::Range(0, 24));

// ---------------------------------------------------------------------
// Sweep 3: random hybrid chains.
// ---------------------------------------------------------------------
class RandomHybrid : public ::testing::TestWithParam<int> {};

TEST_P(RandomHybrid, AllEnginesAgree) {
  sealpaa::prob::Xoshiro256StarStar rng(static_cast<std::uint64_t>(
      5000 + GetParam()));
  const std::size_t width = 2 + static_cast<std::size_t>(GetParam()) % 6;
  std::vector<AdderCell> stages;
  for (std::size_t i = 0; i < width; ++i) {
    stages.push_back(lpaa(1 + static_cast<int>(rng.next() % 7)));
  }
  const AdderChain chain(stages);
  const InputProfile profile = InputProfile::random(width, rng);

  const double recursive =
      RecursiveAnalyzer::analyze(chain, profile).p_success;
  const double oracle =
      WeightedExhaustive::analyze(chain, profile).p_stage_success;
  const double ie =
      InclusionExclusionAnalyzer::analyze(chain, profile).p_success;
  const double joint =
      JointCarryAnalyzer::analyze(chain, profile).p_stage_success;
  EXPECT_NEAR(recursive, oracle, 1e-12);
  EXPECT_NEAR(ie, oracle, 1e-10);
  EXPECT_NEAR(joint, oracle, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, RandomHybrid, ::testing::Range(0, 16));

// ---------------------------------------------------------------------
// Sweep 4: exhaustive-simulation agreement at p = 0.5 for every cell and
// several widths (the Table 6 "equally probable" scenario as a grid).
// ---------------------------------------------------------------------
class ExhaustiveAgreement
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(ExhaustiveAgreement, SimulationEqualsAnalysisExactly) {
  const auto [cell_index, width] = GetParam();
  const AdderChain chain = AdderChain::homogeneous(lpaa(cell_index), width);
  const auto sim = sealpaa::sim::ExhaustiveSimulator::run(chain);
  const double analytical = RecursiveAnalyzer::error_probability(
      lpaa(cell_index), InputProfile::uniform(width, 0.5));
  EXPECT_NEAR(sim.metrics.stage_failure_rate(), analytical, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExhaustiveAgreement,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values(std::size_t{3}, std::size_t{7})),
    [](const auto& param_info) {
      return "LPAA" + std::to_string(std::get<0>(param_info.param)) + "_w" +
             std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------
// Sweep 5: LOA (width x approximate-LSB count x probability) against a
// direct weighted enumeration.
// ---------------------------------------------------------------------
class LoaSweep : public ::testing::TestWithParam<
                     std::tuple<std::size_t, std::size_t, double>> {};

TEST_P(LoaSweep, AnalysisMatchesEnumeration) {
  const auto [width, approx_lsbs, p] = GetParam();
  if (approx_lsbs > width) GTEST_SKIP();
  const AdderChain adder = sealpaa::multibit::loa_chain(width, approx_lsbs);
  const InputProfile profile = InputProfile::uniform_with_cin(width, p, 0.0);
  double p_error = 0.0;
  const std::uint64_t limit = 1ULL << width;
  for (std::uint64_t a = 0; a < limit; ++a) {
    for (std::uint64_t b = 0; b < limit; ++b) {
      if (adder.evaluate(a, b, false).value(width) !=
          sealpaa::multibit::exact_add(a, b, false, width).value(width)) {
        p_error += profile.assignment_probability(a, b, false);
      }
    }
  }
  const auto joint = JointCarryAnalyzer::analyze(adder, profile);
  EXPECT_NEAR(1.0 - joint.p_value_correct, p_error, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LoaSweep,
    ::testing::Combine(::testing::Values(std::size_t{4}, std::size_t{6},
                                         std::size_t{8}),
                       ::testing::Values(std::size_t{0}, std::size_t{2},
                                         std::size_t{4}, std::size_t{6},
                                         std::size_t{8}),
                       ::testing::Values(0.2, 0.5, 0.8)),
    [](const auto& param_info) {
      // Appended piece by piece: gcc 12 reports a false -Wrestrict on
      // "literal" + std::string&&.
      std::string name = "w";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_l";
      name += std::to_string(std::get<1>(param_info.param));
      name += "_p";
      name += std::to_string(
          static_cast<int>(std::get<2>(param_info.param) * 100));
      return name;
    });

// ---------------------------------------------------------------------
// Sweep 6: correlated-operand recursion over a rho grid vs the joint
// enumeration oracle.
// ---------------------------------------------------------------------
class CorrelatedSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CorrelatedSweep, GeneralizedRecursionMatchesJointOracle) {
  const auto [cell_index, rho_percent] = GetParam();
  const double rho = rho_percent / 100.0;
  const InputProfile marginals = InputProfile::uniform(6, 0.5);
  const auto joint =
      sealpaa::multibit::JointInputProfile::correlated(marginals, rho);
  const AdderChain chain = AdderChain::homogeneous(lpaa(cell_index), 6);
  const double analytical =
      RecursiveAnalyzer::analyze(chain, joint).p_success;
  const double oracle =
      WeightedExhaustive::analyze_joint(chain, joint).p_stage_success;
  EXPECT_NEAR(analytical, oracle, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CorrelatedSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values(-100, -50, 0, 50, 100)),
    [](const auto& param_info) {
      const int rho = std::get<1>(param_info.param);
      return "LPAA" + std::to_string(std::get<0>(param_info.param)) +
             (rho < 0 ? "_rho_m" + std::to_string(-rho)
                      : "_rho_p" + std::to_string(rho));
    });

// ---------------------------------------------------------------------
// Sweep 7: GeAr speculative-window monotonicity.  Widening the carry
// window (larger K in ACA(N, K), larger X in ETAII(N, X)) can only see
// *more* of the true carry chain, so every error figure — MED, the
// worst-case error magnitude, and the analytic P(Error) — must be
// non-increasing along the sweep.  A violation prints both offending
// configs (GearConfig::describe()) with their metrics for repro.
// ---------------------------------------------------------------------

/// Serialized comparison context: "ACA(8,3) [GeAr(...)] MED=… vs …".
std::string gear_step_context(const std::string& label,
                              const sealpaa::gear::GearConfig& narrow,
                              const sealpaa::gear::GearConfig& wide,
                              double narrow_metric, double wide_metric) {
  std::ostringstream out;
  out << label << ": widening " << narrow.describe() << " (metric "
      << narrow_metric << ") to " << wide.describe() << " (metric "
      << wide_metric << ") increased the error";
  return out.str();
}

TEST(GearWindowMonotonicity, AcaMedAndWceNonIncreasingInWindowSize) {
  const int n = 8;
  std::optional<sealpaa::gear::GearConfig> previous;
  sealpaa::sim::ErrorMetrics previous_metrics;
  for (int k = 1; k <= n; ++k) {
    const auto config = sealpaa::gear::GearConfig::aca(n, k);
    const sealpaa::sim::ErrorMetrics metrics =
        sealpaa::gear::GearAnalyzer::exhaustive(config);
    if (previous) {
      EXPECT_LE(metrics.mean_abs_error(), previous_metrics.mean_abs_error())
          << gear_step_context("ACA MED", *previous, config,
                               previous_metrics.mean_abs_error(),
                               metrics.mean_abs_error());
      EXPECT_LE(sealpaa::sim::error_magnitude(metrics.worst_case_error()),
                sealpaa::sim::error_magnitude(
                    previous_metrics.worst_case_error()))
          << gear_step_context(
                 "ACA WCE", *previous, config,
                 static_cast<double>(previous_metrics.worst_case_error()),
                 static_cast<double>(metrics.worst_case_error()));
    }
    previous = config;
    previous_metrics = metrics;
  }
  // The full window K = N is the exact adder.
  EXPECT_EQ(previous_metrics.mean_abs_error(), 0.0);
  EXPECT_EQ(previous_metrics.worst_case_error(), 0);
}

TEST(GearWindowMonotonicity, EtaiiMedAndWceNonIncreasingInLookahead) {
  const int n = 12;
  std::optional<sealpaa::gear::GearConfig> previous;
  sealpaa::sim::ErrorMetrics previous_metrics;
  for (int x = 1; x <= n / 2; ++x) {
    if (n % x != 0) continue;  // ETAII(N, X) requires X | N
    const auto config = sealpaa::gear::GearConfig::etaii(n, x);
    const sealpaa::sim::ErrorMetrics metrics =
        sealpaa::gear::GearAnalyzer::exhaustive(config);
    if (previous) {
      EXPECT_LE(metrics.mean_abs_error(), previous_metrics.mean_abs_error())
          << gear_step_context("ETAII MED", *previous, config,
                               previous_metrics.mean_abs_error(),
                               metrics.mean_abs_error());
      EXPECT_LE(sealpaa::sim::error_magnitude(metrics.worst_case_error()),
                sealpaa::sim::error_magnitude(
                    previous_metrics.worst_case_error()))
          << gear_step_context(
                 "ETAII WCE", *previous, config,
                 static_cast<double>(previous_metrics.worst_case_error()),
                 static_cast<double>(metrics.worst_case_error()));
    }
    previous = config;
    previous_metrics = metrics;
  }
}

TEST(GearWindowMonotonicity, AnalyticErrorProbabilityNonIncreasingInWindow) {
  // The same property through the analytic DP (no enumeration), at a
  // width the exhaustive sweeps cannot reach.
  const int n = 32;
  const InputProfile profile =
      InputProfile::uniform(static_cast<std::size_t>(n), 0.5);
  std::optional<sealpaa::gear::GearConfig> previous;
  double previous_p_error = 1.0;
  for (int k = 1; k <= 16; ++k) {
    if ((n - k) % 1 != 0) continue;
    const auto config = sealpaa::gear::GearConfig::aca(n, k);
    const double p_error =
        sealpaa::gear::GearAnalyzer::analyze(config, profile).p_error_exact_dp;
    if (previous) {
      EXPECT_LE(p_error, previous_p_error + 1e-15)
          << gear_step_context("ACA P(Error)", *previous, config,
                               previous_p_error, p_error);
    }
    previous = config;
    previous_p_error = p_error;
  }
}

}  // namespace
