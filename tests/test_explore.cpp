// Design-space exploration: hybrid optimizers, Pareto filtering and the
// four-season robustness ranking.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/adders/characteristics.hpp"
#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/explore/hybrid.hpp"
#include "sealpaa/explore/pareto.hpp"
#include "sealpaa/explore/robustness.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/prob/rng.hpp"

namespace {

using sealpaa::adders::AdderCell;
using sealpaa::adders::accurate;
using sealpaa::adders::builtin_lpaas;
using sealpaa::adders::lpaa;
using sealpaa::analysis::RecursiveAnalyzer;
using sealpaa::explore::DesignConstraints;
using sealpaa::explore::DesignPoint;
using sealpaa::explore::HybridOptimizer;
using sealpaa::explore::Objective;
using sealpaa::explore::pareto_front;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;

/// The beam's search policy with every extension scored from bit 0 on
/// the truncated chain and profile: success mass (err) or the prefix
/// PMF's metric (med/mse) below full width, p_success or the full PMF's
/// metric at it.  Same expansion order, budget sums, comparator and
/// partial_sort as HybridOptimizer::beam, so any difference in the
/// winner is a scoring difference, not a policy one.
struct FromRootBeam {
  std::vector<std::size_t> winner;
  std::uint64_t evaluated = 0;
  std::uint64_t rejected = 0;
};

FromRootBeam from_root_beam(const InputProfile& profile,
                            const std::vector<AdderCell>& candidates,
                            std::optional<double> max_power_nw,
                            std::size_t beam_width, Objective objective) {
  const std::size_t n = profile.width();
  const bool by_pmf = objective != Objective::kErrorRate;
  const auto truncated = [&](std::size_t width) {
    return InputProfile(
        std::vector<double>(profile.all_p_a().begin(),
                            profile.all_p_a().begin() +
                                static_cast<std::ptrdiff_t>(width)),
        std::vector<double>(profile.all_p_b().begin(),
                            profile.all_p_b().begin() +
                                static_cast<std::ptrdiff_t>(width)),
        profile.p_cin());
  };
  const auto score_of = [&](const std::vector<std::size_t>& choice) {
    std::vector<AdderCell> stages;
    for (const std::size_t c : choice) stages.push_back(candidates[c]);
    const AdderChain chain(stages);
    const InputProfile prefix = truncated(choice.size());
    if (by_pmf) {
      const auto pmf = sealpaa::analysis::propagate_error_pmf(chain, prefix);
      return objective == Objective::kMse ? pmf.mean_squared_error()
                                          : pmf.mean_error_distance();
    }
    const auto result = RecursiveAnalyzer::analyze(chain, prefix);
    return choice.size() == n ? result.p_success
                              : result.final_carry.success_mass();
  };
  const auto better = [by_pmf](double a, double b) {
    return by_pmf ? a < b : a > b;
  };

  struct Partial {
    std::vector<std::size_t> choice;
    double power = 0.0;
    double score = 0.0;
  };
  FromRootBeam out;
  std::vector<Partial> beam_set{Partial{}};
  bool have_best = false;
  double best_score = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Partial> expanded;
    for (const Partial& partial : beam_set) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        double power = partial.power;
        if (max_power_nw) {
          power += *sealpaa::adders::find_characteristics(candidates[c])
                        ->power_nw;
          if (power > *max_power_nw) {
            ++out.rejected;
            continue;
          }
        }
        ++out.evaluated;
        Partial next{partial.choice, power, 0.0};
        next.choice.push_back(c);
        next.score = score_of(next.choice);
        if (i + 1 == n) {
          if (!have_best || better(next.score, best_score)) {
            have_best = true;
            best_score = next.score;
            out.winner = next.choice;
          }
        } else {
          expanded.push_back(std::move(next));
        }
      }
    }
    if (i + 1 == n) break;
    const std::size_t keep = std::min(beam_width, expanded.size());
    std::partial_sort(expanded.begin(),
                      expanded.begin() + static_cast<std::ptrdiff_t>(keep),
                      expanded.end(),
                      [&better](const Partial& a, const Partial& b) {
                        return better(a.score, b.score);
                      });
    expanded.resize(keep);
    beam_set = std::move(expanded);
  }
  return out;
}

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

TEST(HybridExhaustive, DesignsAndCountersPinnedAllObjectives) {
  // Recorded values: every objective's winner, the bits of its reported
  // score and the three counters, over an unconstrained seven-cell
  // palette and a power-budgeted six-cell one, at one thread and on the
  // shared pool.  err closes each leaf with Equation 12 without pushing
  // it; med/mse push the leaf, so they count one stage more per design.
  const InputProfile profile({0.1, 0.3, 0.5, 0.7, 0.8, 0.9},
                             {0.2, 0.4, 0.5, 0.6, 0.7, 0.95}, 0.3);
  const std::vector<AdderCell> seven(builtin_lpaas().begin(),
                                     builtin_lpaas().end());
  const std::vector<AdderCell> budgeted{lpaa(1), lpaa(2), lpaa(3),
                                        lpaa(4), lpaa(5), accurate()};
  struct Leg {
    const std::vector<AdderCell>* palette;
    std::optional<double> max_power_nw;
    Objective objective;
    std::vector<std::string> winner;
    std::uint64_t score_bits;
    std::uint64_t evaluated;
    std::uint64_t rejected;
    std::uint64_t stages;
  };
  const std::string l1 = "LPAA1";
  const std::string l2 = "LPAA2";
  const std::string l3 = "LPAA3";
  const std::string l5 = "LPAA5";
  const std::string l7 = "LPAA7";
  const std::string fa = "AccuFA";
  const std::vector<Leg> legs = {
      {&seven, std::nullopt, Objective::kErrorRate,
       {l7, l7, l7, l7, l1, l1}, 0x3fd9c950ab0e1738ULL, 117'649, 0, 19'917},
      {&seven, std::nullopt, Objective::kMed,
       {l1, l1, l1, l1, l1, l1}, 0x4010cfbee7162f2eULL, 117'649, 0, 137'566},
      {&seven, std::nullopt, Objective::kMse,
       {l1, l1, l3, l1, l1, l1}, 0x404afd1004fe971eULL, 117'649, 0, 137'566},
      {&budgeted, 5600.0, Objective::kErrorRate,
       {fa, fa, l2, l2, fa, l1}, 0x3fdc7f6909b6648eULL, 45'810, 846, 9'588},
      {&budgeted, 5600.0, Objective::kMed,
       {l5, l5, fa, fa, fa, fa}, 0x3fe851eb851eb852ULL, 45'810, 846, 55'398},
      {&budgeted, 5600.0, Objective::kMse,
       {l5, l5, fa, fa, fa, fa}, 0x3ff2e147ae147ae1ULL, 45'810, 846, 55'398},
  };
  for (const Leg& leg : legs) {
    for (const unsigned threads : {1u, 0u}) {
      const std::string context =
          std::string(sealpaa::explore::objective_name(leg.objective)) +
          (leg.max_power_nw ? " budgeted" : " unconstrained") +
          " threads " + std::to_string(threads);
      DesignConstraints constraints;
      constraints.max_power_nw = leg.max_power_nw;
      const auto design = HybridOptimizer::exhaustive(
          profile, *leg.palette, constraints, 50'000'000, threads,
          leg.objective);
      std::vector<std::string> winner;
      for (const AdderCell& stage : design.stages) {
        winner.push_back(stage.name());
      }
      EXPECT_EQ(winner, leg.winner) << context;
      double score = design.p_error;
      if (leg.objective == Objective::kMed) score = design.med.value();
      if (leg.objective == Objective::kMse) score = design.mse.value();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(score), leg.score_bits)
          << context;
      EXPECT_EQ(design.stats.candidates_evaluated, leg.evaluated) << context;
      EXPECT_EQ(design.stats.candidates_rejected, leg.rejected) << context;
      EXPECT_EQ(design.stats.stages_computed, leg.stages) << context;
    }
  }
}

TEST(HybridBeam, WideBeamRecoversExhaustiveOptimum) {
  const InputProfile profile({0.1, 0.4, 0.6, 0.9}, {0.2, 0.5, 0.5, 0.8}, 0.3);
  const auto exact = HybridOptimizer::exhaustive(profile, builtin_lpaas());
  const auto beam =
      HybridOptimizer::beam(profile, builtin_lpaas(), {}, 4096);
  EXPECT_NEAR(beam.p_error, exact.p_error, 1e-9);
  // Survivors carry their state, so every scored expansion costs at most
  // one stage from its parent — far below per-chain re-analysis.
  EXPECT_LE(beam.stats.stages_computed, beam.stats.candidates_evaluated);
  EXPECT_LT(beam.stats.stages_computed,
            beam.stats.candidates_evaluated * profile.width());
}

TEST(HybridBeam, MatchesFromRootRescoringAllObjectives) {
  // The beam scores an extension with one step from its parent's state;
  // the reference re-analyzes every partial design from bit 0.  Any
  // drift in a score would reorder the survivors and change the winner.
  std::vector<AdderCell> candidates;
  for (int i = 1; i <= 5; ++i) candidates.push_back(lpaa(i));
  candidates.push_back(accurate());
  sealpaa::prob::Xoshiro256StarStar rng(0xbea3'0000'0000'0001ULL);
  int cases = 0;
  for (const Objective objective :
       {Objective::kErrorRate, Objective::kMed, Objective::kMse}) {
    for (const std::size_t width : {5u, 8u, 10u}) {
      const InputProfile profile =
          InputProfile::random(width, rng, 0.05, 0.95);
      for (const std::size_t beam_width : {1u, 3u, 16u}) {
        for (const bool budget : {false, true}) {
          const std::string context =
              std::string(sealpaa::explore::objective_name(objective)) +
              " width " + std::to_string(width) + " beam " +
              std::to_string(beam_width) + (budget ? " budget" : "");
          DesignConstraints constraints;
          // Between LPAA4 and LPAA1 per stage: prunes, never empties.
          if (budget) {
            constraints.max_power_nw = 500.0 * static_cast<double>(width);
          }
          const FromRootBeam want =
              from_root_beam(profile, candidates, constraints.max_power_nw,
                             beam_width, objective);
          const auto design = HybridOptimizer::beam(
              profile, candidates, constraints, beam_width, objective);
          ASSERT_EQ(design.stages.size(), want.winner.size()) << context;
          for (std::size_t s = 0; s < width; ++s) {
            EXPECT_EQ(design.stages[s].name(),
                      candidates[want.winner[s]].name())
                << context << " stage " << s;
          }
          EXPECT_EQ(design.stats.candidates_evaluated, want.evaluated)
              << context;
          EXPECT_EQ(design.stats.candidates_rejected, want.rejected)
              << context;
          // Every scored expansion costs at most one stage.
          EXPECT_LE(design.stats.stages_computed,
                    design.stats.candidates_evaluated)
              << context;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 54);
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
