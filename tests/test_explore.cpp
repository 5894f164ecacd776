// Design-space exploration: hybrid optimizers, Pareto filtering and the
// four-season robustness ranking.
#include <gtest/gtest.h>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/explore/hybrid.hpp"
#include "sealpaa/explore/pareto.hpp"
#include "sealpaa/explore/robustness.hpp"

namespace {

using sealpaa::adders::accurate;
using sealpaa::adders::builtin_lpaas;
using sealpaa::adders::lpaa;
using sealpaa::analysis::RecursiveAnalyzer;
using sealpaa::explore::DesignConstraints;
using sealpaa::explore::DesignPoint;
using sealpaa::explore::HybridOptimizer;
using sealpaa::explore::pareto_front;
using sealpaa::multibit::InputProfile;

TEST(HybridExhaustive, BeatsOrTiesEveryHomogeneousDesign) {
  const InputProfile profile({0.1, 0.2, 0.8, 0.9}, {0.2, 0.1, 0.9, 0.8}, 0.1);
  const auto best = HybridOptimizer::exhaustive(profile, builtin_lpaas());
  for (const auto& cell : builtin_lpaas()) {
    const double homogeneous =
        RecursiveAnalyzer::error_probability(cell, profile);
    EXPECT_LE(best.p_error, homogeneous + 1e-12) << cell.name();
  }
}

TEST(HybridExhaustive, MixedProfilePrefersDifferentCellsPerStage) {
  // Low-probability bits at the bottom, high at the top: per the paper,
  // LPAA7-like cells should win low-p stages and LPAA1-like high-p ones,
  // so the optimum should genuinely be hybrid.
  const InputProfile profile({0.05, 0.05, 0.95, 0.95},
                             {0.05, 0.05, 0.95, 0.95}, 0.05);
  const auto best = HybridOptimizer::exhaustive(profile, builtin_lpaas());
  bool all_same = true;
  for (const auto& stage : best.stages) {
    all_same = all_same && stage.name() == best.stages.front().name();
  }
  EXPECT_FALSE(all_same) << "expected a truly hybrid optimum";
}

TEST(HybridExhaustive, AccurateCandidateYieldsZeroError) {
  std::vector<sealpaa::adders::AdderCell> candidates(builtin_lpaas().begin(),
                                                     builtin_lpaas().end());
  candidates.push_back(accurate());
  const InputProfile profile = InputProfile::uniform(3, 0.5);
  const auto best = HybridOptimizer::exhaustive(profile, candidates);
  EXPECT_NEAR(best.p_error, 0.0, 1e-12);
}

TEST(HybridBeam, WideBeamRecoversExhaustiveOptimum) {
  const InputProfile profile({0.1, 0.4, 0.6, 0.9}, {0.2, 0.5, 0.5, 0.8}, 0.3);
  const auto exact = HybridOptimizer::exhaustive(profile, builtin_lpaas());
  const auto beam =
      HybridOptimizer::beam(profile, builtin_lpaas(), {}, 4096);
  EXPECT_NEAR(beam.p_error, exact.p_error, 1e-9);
  // The beam runs on the engine's prefix cache: sibling expansions share
  // their parent's prefix, so the cache must have answered probes and
  // must have saved stage recomputation versus per-chain re-analysis.
  EXPECT_GT(beam.stats.cache_hits, 0u);
  EXPECT_LT(beam.stats.stages_computed,
            beam.stats.candidates_evaluated * profile.width());
}

TEST(HybridBeam, GreedyIsNoBetterThanBeam) {
  const InputProfile profile({0.1, 0.4, 0.6, 0.9, 0.5, 0.2},
                             {0.2, 0.5, 0.5, 0.8, 0.4, 0.3}, 0.3);
  const auto greedy = HybridOptimizer::greedy(profile, builtin_lpaas());
  const auto beam = HybridOptimizer::beam(profile, builtin_lpaas(), {}, 256);
  EXPECT_LE(beam.p_error, greedy.p_error + 1e-12);
}

TEST(HybridBeam, PowerBudgetIsRespected) {
  // Only LPAA1-5 carry power data; a tight budget must force cheap cells.
  std::vector<sealpaa::adders::AdderCell> candidates;
  for (int i = 1; i <= 5; ++i) candidates.push_back(lpaa(i));
  const InputProfile profile = InputProfile::uniform(6, 0.2);
  DesignConstraints constraints;
  constraints.max_power_nw = 6 * 300.0;  // below 6 x LPAA1 (771 nW)
  const auto design =
      HybridOptimizer::beam(profile, candidates, constraints, 512);
  ASSERT_TRUE(design.power_nw.has_value());
  EXPECT_LE(*design.power_nw, *constraints.max_power_nw + 1e-9);
  // The budget is below 6 x LPAA1, so at least one stage must be a
  // cheaper cell.
  bool has_cheap_stage = false;
  for (const auto& stage : design.stages) {
    has_cheap_stage = has_cheap_stage || stage.name() != "LPAA1";
  }
  EXPECT_TRUE(has_cheap_stage);
}

TEST(HybridBeam, ConstraintsWithMissingDataRejectCells) {
  // LPAA6/7 lack power data, so under a power budget they cannot appear.
  DesignConstraints constraints;
  constraints.max_power_nw = 1e9;
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  const auto design =
      HybridOptimizer::beam(profile, builtin_lpaas(), constraints, 64);
  for (const auto& stage : design.stages) {
    EXPECT_NE(stage.name(), "LPAA6");
    EXPECT_NE(stage.name(), "LPAA7");
  }
}

TEST(HybridValidation, EmptyCandidatesAndHugeSpacesRejected) {
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  EXPECT_THROW(
      (void)HybridOptimizer::exhaustive(profile, {}),
      std::invalid_argument);
  const InputProfile wide = InputProfile::uniform(40, 0.5);
  EXPECT_THROW(
      (void)HybridOptimizer::exhaustive(wide, builtin_lpaas()),
      std::invalid_argument);
  EXPECT_THROW(
      (void)HybridOptimizer::beam(profile, builtin_lpaas(), {}, 0),
      std::invalid_argument);
}

TEST(Pareto, FiltersDominatedPoints) {
  std::vector<DesignPoint> points = {
      {"good", 0.1, 100.0, 1.0, true},
      {"dominated", 0.2, 150.0, 2.0, true},
      {"cheap", 0.5, 10.0, 0.1, true},
      {"nocost", 0.01, 0.0, 0.0, false},
  };
  const auto front = pareto_front(points);
  ASSERT_EQ(front.size(), 2u);
  EXPECT_EQ(front[0].name, "good");
  EXPECT_EQ(front[1].name, "cheap");
}

TEST(Pareto, IdenticalPointsBothSurvive) {
  std::vector<DesignPoint> points = {
      {"a", 0.1, 100.0, 1.0, true},
      {"b", 0.1, 100.0, 1.0, true},
  };
  EXPECT_EQ(pareto_front(points).size(), 2u);
}

TEST(Pareto, HomogeneousSweepCoversAllCells) {
  const auto points = sealpaa::explore::homogeneous_sweep(
      InputProfile::uniform(8, 0.5));
  EXPECT_EQ(points.size(), 8u);  // AccuFA + 7 LPAAs
  for (const auto& point : points) {
    if (point.name == "AccuFA") {
      EXPECT_NEAR(point.p_error, 0.0, 1e-12);
      EXPECT_TRUE(point.has_cost);
    }
    if (point.name == "LPAA6" || point.name == "LPAA7") {
      EXPECT_FALSE(point.has_cost);
    }
  }
}

TEST(Pareto, HomogeneousSweepMatchesPerCellEvaluate) {
  // The sweep calls engine::evaluate once per cell, in registry order:
  // each point must be bit-identical to a direct per-cell evaluate.
  const InputProfile profile({0.1, 0.35, 0.6, 0.85, 0.4, 0.7},
                             {0.9, 0.25, 0.55, 0.15, 0.8, 0.45}, 0.2);
  const auto points = sealpaa::explore::homogeneous_sweep(profile);
  const auto cells = sealpaa::adders::all_builtin_cells();
  ASSERT_EQ(points.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(points[i].name, cells[i].name());
    EXPECT_EQ(points[i].p_error,
              sealpaa::engine::evaluate(cells[i], profile,
                                        sealpaa::engine::Method::kRecursive)
                  .p_error)
        << cells[i].name();
  }
}

TEST(Robustness, Lpaa6IsTheFourSeasonAdder) {
  // Paper §5: "LPAA 6 works optimally better for low, high and equally
  // probable inputs" — it must rank first on worst-case error.
  const auto ranking = sealpaa::explore::four_season_ranking(8);
  ASSERT_EQ(ranking.size(), 7u);
  EXPECT_EQ(ranking.front().cell_name, "LPAA6");
  for (const auto& score : ranking) {
    EXPECT_LE(score.best_error, score.mean_error + 1e-12);
    EXPECT_LE(score.mean_error, score.worst_error + 1e-12);
  }
}

TEST(Robustness, RankingSortedByWorstError) {
  const auto ranking = sealpaa::explore::four_season_ranking(6, 0.1);
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_LE(ranking[i - 1].worst_error, ranking[i].worst_error + 1e-12);
  }
}

}  // namespace
