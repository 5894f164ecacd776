// Branch-and-bound DSE: optimality vs the exhaustive reference,
// determinism across thread counts, checkpoint serialization and the
// kill/resume contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/adders/characteristics.hpp"
#include "sealpaa/explore/branch_bound.hpp"
#include "sealpaa/explore/hybrid.hpp"
#include "sealpaa/obs/checkpoint.hpp"
#include "sealpaa/obs/serialize.hpp"
#include "sealpaa/prob/rng.hpp"

namespace {

using sealpaa::adders::AdderCell;
using sealpaa::adders::accurate;
using sealpaa::adders::builtin_lpaas;
using sealpaa::adders::lpaa;
using sealpaa::explore::BnbCheckpoint;
using sealpaa::explore::BnbOptions;
using sealpaa::explore::BnbResult;
using sealpaa::explore::BranchBoundOptimizer;
using sealpaa::explore::DesignConstraints;
using sealpaa::explore::HybridDesign;
using sealpaa::explore::HybridOptimizer;
using sealpaa::explore::Objective;
using sealpaa::explore::SearchStats;
using sealpaa::multibit::InputProfile;

InputProfile varied_profile(std::size_t width) {
  std::vector<double> p_a;
  std::vector<double> p_b;
  for (std::size_t i = 0; i < width; ++i) {
    p_a.push_back(0.15 + 0.1 * static_cast<double>(i % 8));
    p_b.push_back(0.85 - 0.09 * static_cast<double>(i % 8));
  }
  return InputProfile(p_a, p_b, 0.3);
}

BnbOptions threads_opt(unsigned threads) {
  BnbOptions options;
  options.threads = threads;
  return options;
}

std::vector<std::string> stage_names(const HybridDesign& design) {
  std::vector<std::string> names;
  for (const auto& stage : design.stages) names.emplace_back(stage.name());
  return names;
}

/// Bit pattern of an optional metric (nullopt stays nullopt).
std::optional<std::uint64_t> bits(const std::optional<double>& metric) {
  if (!metric) return std::nullopt;
  return std::bit_cast<std::uint64_t>(*metric);
}

void expect_same_design(const HybridDesign& a, const HybridDesign& b) {
  EXPECT_EQ(stage_names(a), stage_names(b));
  EXPECT_EQ(a.p_error, b.p_error);  // bit-identical, not just close
  EXPECT_EQ(a.p_success, b.p_success);
  EXPECT_EQ(a.med, b.med);
  EXPECT_EQ(a.mse, b.mse);
}

TEST(BranchBound, MatchesExhaustiveOptimumAllObjectives) {
  const InputProfile profile = varied_profile(5);
  for (const Objective objective :
       {Objective::kErrorRate, Objective::kMed, Objective::kMse}) {
    const HybridDesign exact = HybridOptimizer::exhaustive(
        profile, builtin_lpaas(), {}, 50'000'000, 1, objective);
    const BnbResult bnb = BranchBoundOptimizer::optimize(
        profile, builtin_lpaas(), {}, objective, threads_opt(1));
    ASSERT_TRUE(bnb.complete);
    ASSERT_TRUE(bnb.has_incumbent);
    expect_same_design(bnb.design, exact);
  }
}

TEST(BranchBound, PrunesWellOverTenfoldVsExhaustive) {
  // The admissible bound must actually prune: the quality mode's whole
  // point is reaching the same optimum on far fewer nodes.  Width 8
  // gives the best-completion bound room to bite below the fixed
  // unit-split depth (at tiny widths every node sits at the split depth
  // and the search legitimately degenerates to enumeration).
  const InputProfile profile = varied_profile(8);
  const HybridDesign exact = HybridOptimizer::exhaustive(
      profile, builtin_lpaas(), {}, 50'000'000, 1);
  const BnbResult bnb = BranchBoundOptimizer::optimize(
      profile, builtin_lpaas(), {}, Objective::kErrorRate, threads_opt(1));
  expect_same_design(bnb.design, exact);
  EXPECT_GT(bnb.design.stats.bound_cutoffs, 0u);
  EXPECT_LE(bnb.design.stats.nodes_expanded +
                bnb.design.stats.candidates_evaluated,
            exact.stats.candidates_evaluated / 10);
}

/// `size` distinct cells, each AccuFA with 1-3 of its 16 output bits
/// (8 sums, 8 carries) flipped.
std::vector<AdderCell> flipped_palette(sealpaa::prob::SplitMix64& rng,
                                       std::size_t size) {
  std::vector<AdderCell> palette;
  while (palette.size() < size) {
    AdderCell::Rows rows = AdderCell::accurate_rows();
    const std::uint64_t flips = 1 + rng.next() % 3;
    std::uint32_t flipped = 0;
    while (static_cast<std::uint64_t>(std::popcount(flipped)) < flips) {
      flipped |= 1u << (rng.next() % 16);
    }
    for (std::size_t bit = 0; bit < 16; ++bit) {
      if ((flipped >> bit & 1u) == 0) continue;
      auto& row = rows[bit % 8];
      if (bit < 8) {
        row.sum = !row.sum;
      } else {
        row.carry = !row.carry;
      }
    }
    std::string name = "F";
    name += std::to_string(palette.size());
    AdderCell cell(std::move(name), rows);
    if (std::find(palette.begin(), palette.end(), cell) == palette.end()) {
      palette.push_back(std::move(cell));
    }
  }
  return palette;
}

// The best-completion bound is exact in real arithmetic, so it sits on
// the incumbent wherever designs tie.  Random palettes over three
// profile families: random per-bit p, uniform 0.5 (large tie plateaus)
// and the rails, where every p and p_cin is 0 or 1 and most designs
// score exactly 0 or 1.
TEST(BranchBound, ErrMatchesExhaustiveOnRandomPalettesAndRails) {
  sealpaa::prob::SplitMix64 rng(0xb0b'f407'1e75ULL);
  const auto unit = [&rng] {
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  };
  const auto bit = [&rng] { return static_cast<double>(rng.next() & 1u); };
  for (int problem = 0; problem < 200; ++problem) {
    const std::size_t width = 3 + static_cast<std::size_t>(rng.next() % 5);
    const std::vector<AdderCell> palette =
        flipped_palette(rng, 2 + static_cast<std::size_t>(rng.next() % 5));
    std::vector<double> p_a;
    std::vector<double> p_b;
    double p_cin = 0.5;
    const int family = problem % 3;
    for (std::size_t i = 0; i < width; ++i) {
      p_a.push_back(family == 0 ? unit() : family == 1 ? 0.5 : bit());
      p_b.push_back(family == 0 ? unit() : family == 1 ? 0.5 : bit());
    }
    if (family == 0) p_cin = unit();
    if (family == 2) p_cin = bit();
    const InputProfile profile(p_a, p_b, p_cin);
    const HybridDesign exact =
        HybridOptimizer::exhaustive(profile, palette, {}, 50'000'000, 1);
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("problem " + std::to_string(problem) + " width " +
                   std::to_string(width) + " cells " +
                   std::to_string(palette.size()) + " threads " +
                   std::to_string(threads));
      const BnbResult bnb = BranchBoundOptimizer::optimize(
          profile, palette, {}, Objective::kErrorRate, threads_opt(threads));
      ASSERT_TRUE(bnb.complete);
      expect_same_design(bnb.design, exact);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(bnb.design.p_success),
                std::bit_cast<std::uint64_t>(exact.p_success));
    }
  }
}

// The seed's hybrid family under budgets: random 2-6-cell subsets of
// LPAA1-5 + AccuFA in random order (AccuFA in three of four), random
// power budgets between the cheapest and the dearest full design, some
// area budgets, and the three profile families of the err test above.
// Seeded at 1 and 4 threads and unseeded, the search returns exhaustive()'s
// design with the same med and mse bits.
TEST(BranchBound, MomentMatchesExhaustiveUnderBudgets) {
  sealpaa::prob::SplitMix64 rng(0x5eed'fa31'1e5ULL);
  const auto unit = [&rng] {
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  };
  const auto bit = [&rng] { return static_cast<double>(rng.next() & 1u); };
  std::vector<AdderCell> cells;
  for (int i = 1; i <= 5; ++i) cells.push_back(lpaa(i));
  cells.push_back(accurate());
  for (int problem = 0; problem < 48; ++problem) {
    const Objective objective =
        problem % 2 == 0 ? Objective::kMed : Objective::kMse;
    // Random order: Fisher-Yates over the six cells, keep the first few.
    std::vector<AdderCell> shuffled = cells;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.next() % i]);
    }
    const std::size_t size = 2 + static_cast<std::size_t>(rng.next() % 5);
    std::vector<AdderCell> palette(shuffled.begin(),
                                   shuffled.begin() +
                                       static_cast<std::ptrdiff_t>(size));
    if (problem % 4 != 3 &&
        std::find(palette.begin(), palette.end(), accurate()) ==
            palette.end()) {
      palette.back() = accurate();
    }
    std::size_t width = 3 + static_cast<std::size_t>(rng.next() % 5);
    while (std::pow(static_cast<double>(size), static_cast<double>(width)) >
           20'000.0) {
      --width;  // keeps each exhaustive reference cheap
    }

    std::vector<double> p_a;
    std::vector<double> p_b;
    double p_cin = 0.5;
    const int family = (problem / 2) % 3;
    for (std::size_t i = 0; i < width; ++i) {
      p_a.push_back(family == 0 ? unit() : family == 1 ? 0.5 : bit());
      p_b.push_back(family == 0 ? unit() : family == 1 ? 0.5 : bit());
    }
    if (family == 0) p_cin = unit();
    if (family == 2) p_cin = bit();
    const InputProfile profile(p_a, p_b, p_cin);

    // The cheapest and dearest full designs, summed stage by stage like
    // the search's screen, so the cheapest one always fits.
    const bool by_area = problem % 5 == 4;
    double cheapest = 0.0;
    double dearest = 0.0;
    const auto cost = [by_area](const AdderCell& cell) {
      const auto* row = sealpaa::adders::find_characteristics(cell);
      return by_area ? *row->area_ge : *row->power_nw;
    };
    double low = cost(palette.front());
    double high = low;
    for (const AdderCell& cell : palette) {
      low = std::min(low, cost(cell));
      high = std::max(high, cost(cell));
    }
    for (std::size_t i = 0; i < width; ++i) {
      cheapest += low;
      dearest += high;
    }
    DesignConstraints constraints;
    const double budget = cheapest + unit() * (dearest - cheapest);
    if (by_area) {
      constraints.max_area_ge = budget;
    } else {
      constraints.max_power_nw = budget;
    }

    const HybridDesign exact = HybridOptimizer::exhaustive(
        profile, palette, constraints, 50'000'000, 1, objective);
    BnbOptions unseeded = threads_opt(1);
    unseeded.seed_beam_width = 0;
    for (const BnbOptions& options :
         {threads_opt(1), threads_opt(4), unseeded}) {
      SCOPED_TRACE("problem " + std::to_string(problem) + " width " +
                   std::to_string(width) + " cells " +
                   std::to_string(palette.size()) + " threads " +
                   std::to_string(options.threads) + " seed width " +
                   std::to_string(options.seed_beam_width));
      const BnbResult bnb = BranchBoundOptimizer::optimize(
          profile, palette, constraints, objective, options);
      ASSERT_TRUE(bnb.complete);
      EXPECT_EQ(stage_names(bnb.design), stage_names(exact));
      EXPECT_EQ(bits(bnb.design.med), bits(exact.med));
      EXPECT_EQ(bits(bnb.design.mse), bits(exact.mse));
    }
  }
}

/// The dse-moment shape: width 14, uniform 0.5, LPAA1-5 + AccuFA under
/// 13,000 nW.
struct MomentShape {
  InputProfile profile = InputProfile::uniform(14, 0.5);
  std::vector<AdderCell> palette = {lpaa(1), lpaa(2), lpaa(3),
                                    lpaa(4), lpaa(5), accurate()};
  DesignConstraints constraints = [] {
    DesignConstraints budget;
    budget.max_power_nw = 13'000.0;
    return budget;
  }();
};

// Recorded counters of the moment search seeded from the hybrid family
// on the dse-moment shape.  The family holds the optimum, LPAA5 x 4 |
// LPAA2 | AccuFA x 9 (MED 6.0), so the incumbent never changes and every
// unit's work is a function of the unit alone: the counters are the same
// at any thread count.  Seeded from the beam alone (MED 3,144.15) the
// search expanded 61,125 nodes with 282,184 cutoffs, 7,446 leaves and
// 351,187 stages; the MSE search 40,246 nodes.
TEST(BranchBound, MomentSeedCountersPinned) {
  const MomentShape shape;
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const BnbResult med = BranchBoundOptimizer::optimize(
        shape.profile, shape.palette, shape.constraints, Objective::kMed,
        threads_opt(threads));
    ASSERT_TRUE(med.complete);
    std::vector<std::string> want(4, "LPAA5");
    want.emplace_back("LPAA2");
    want.insert(want.end(), 9, "AccuFA");
    EXPECT_EQ(stage_names(med.design), want);
    EXPECT_EQ(bits(med.design.med), 0x4018000000000000ULL);
    const SearchStats& stats = med.design.stats;
    EXPECT_EQ(stats.nodes_expanded, 20'457u);
    EXPECT_EQ(stats.bound_cutoffs, 97'165u);
    EXPECT_EQ(stats.candidates_evaluated, 180u);
    EXPECT_EQ(stats.stages_computed, 118'234u);
  }
  const BnbResult mse = BranchBoundOptimizer::optimize(
      shape.profile, shape.palette, shape.constraints, Objective::kMse,
      threads_opt(1));
  ASSERT_TRUE(mse.complete);
  EXPECT_EQ(mse.design.stats.nodes_expanded, 11'805u);
}

// Recorded counters of the err bound (best completion over the
// backward frontier).  The dse-err shape: width 16, uniform 0.5, LPAA1-7
// at one thread; the carry-mass bound it replaces expanded 2,450,801
// nodes with 14,704,897 cutoffs, 252 leaves and 17,156,384 stages here.
// On the smaller fixtures the new bound must not expand more nodes than
// the carry-mass bound did (1,558 and 54).
TEST(BranchBound, ErrFrontierCountersPinned) {
  const BnbResult dse_err = BranchBoundOptimizer::optimize(
      InputProfile::uniform(16, 0.5), builtin_lpaas(), {},
      Objective::kErrorRate, threads_opt(1));
  ASSERT_TRUE(dse_err.complete);
  EXPECT_EQ(stage_names(dse_err.design),
            std::vector<std::string>(16, "LPAA1"));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dse_err.design.p_success),
            0x3fb1583100000000ULL);
  const SearchStats& stats = dse_err.design.stats;
  EXPECT_EQ(stats.nodes_expanded, 26u);
  EXPECT_EQ(stats.bound_cutoffs, 485u);
  EXPECT_EQ(stats.candidates_evaluated, 14u);
  EXPECT_EQ(stats.stages_computed, 1'197u);

  const BnbResult eight = BranchBoundOptimizer::optimize(
      varied_profile(8), builtin_lpaas(), {}, Objective::kErrorRate,
      threads_opt(1));
  EXPECT_LE(eight.design.stats.nodes_expanded, 1'558u);
  const BnbResult five = BranchBoundOptimizer::optimize(
      varied_profile(5), builtin_lpaas(), {}, Objective::kErrorRate,
      threads_opt(1));
  EXPECT_LE(five.design.stats.nodes_expanded, 54u);
}

TEST(BranchBound, HonorsPowerConstraintLikeExhaustive) {
  const InputProfile profile = varied_profile(5);
  std::vector<sealpaa::adders::AdderCell> candidates;
  for (int i = 1; i <= 5; ++i) candidates.push_back(lpaa(i));
  candidates.push_back(accurate());
  DesignConstraints constraints;
  constraints.max_power_nw = 5000.0;
  const HybridDesign exact = HybridOptimizer::exhaustive(
      profile, candidates, constraints, 50'000'000, 1);
  const BnbResult bnb = BranchBoundOptimizer::optimize(
      profile, candidates, constraints, Objective::kErrorRate,
      threads_opt(1));
  expect_same_design(bnb.design, exact);
  EXPECT_GT(bnb.design.stats.candidates_rejected, 0u);
}

TEST(BranchBound, ThrowsWhenConstraintsEliminateEverything) {
  const InputProfile profile = varied_profile(4);
  // A palette without the zero-power wire adder, under a budget below
  // any single stage: no design can satisfy it.
  const std::vector<sealpaa::adders::AdderCell> candidates = {lpaa(1),
                                                              lpaa(2)};
  DesignConstraints constraints;
  constraints.max_power_nw = 0.5;
  EXPECT_THROW(
      BranchBoundOptimizer::optimize(profile, candidates, constraints),
      std::runtime_error);
}

TEST(BranchBound, RejectsEmptyPalette) {
  const InputProfile profile = varied_profile(4);
  EXPECT_THROW(BranchBoundOptimizer::optimize(profile, {}),
               std::invalid_argument);
}

TEST(BranchBound, DesignIdenticalAcrossThreadCounts) {
  const InputProfile profile = varied_profile(6);
  for (const Objective objective : {Objective::kErrorRate, Objective::kMed}) {
    const BnbResult one = BranchBoundOptimizer::optimize(
        profile, builtin_lpaas(), {}, objective, threads_opt(1));
    const BnbResult eight = BranchBoundOptimizer::optimize(
        profile, builtin_lpaas(), {}, objective, threads_opt(8));
    expect_same_design(one.design, eight.design);
    EXPECT_EQ(one.design.stats.steal_count, 0u);
  }
}

TEST(BranchBound, UnseededSearchFindsTheSameOptimum) {
  BnbOptions unseeded_options;
  unseeded_options.threads = 1;
  unseeded_options.seed_beam_width = 0;
  const auto check = [&](const InputProfile& profile,
                         const std::vector<AdderCell>& palette,
                         const DesignConstraints& constraints,
                         Objective objective) {
    const BnbResult seeded = BranchBoundOptimizer::optimize(
        profile, palette, constraints, objective, threads_opt(1));
    const BnbResult unseeded = BranchBoundOptimizer::optimize(
        profile, palette, constraints, objective, unseeded_options);
    expect_same_design(seeded.design, unseeded.design);
    // Seeding can only help: the seeded run never expands more nodes.
    EXPECT_LE(seeded.design.stats.nodes_expanded,
              unseeded.design.stats.nodes_expanded);
  };
  check(varied_profile(5),
        std::vector<AdderCell>(builtin_lpaas().begin(), builtin_lpaas().end()),
        {}, Objective::kErrorRate);
  // Budgeted med: the seed comes from the hybrid family, not the beam.
  const MomentShape shape;
  DesignConstraints budget;
  budget.max_power_nw = 7'000.0;
  check(InputProfile::uniform(8, 0.5), shape.palette, budget,
        Objective::kMed);
}

// The headline fixture: suspend ("kill") the search mid-run, persist the
// checkpoint through the real JSON file path, resume in what models a
// fresh process, and require the final incumbent AND every SearchStats
// counter to equal the uninterrupted run exactly.  A unit's counters
// depend on the unit alone (each worker rebuilds its path state per
// unit), so no counter is exempt.
TEST(BranchBound, KillAndResumeReproducesUninterruptedRun) {
  const InputProfile profile = varied_profile(6);
  const std::string path =
      testing::TempDir() + "/sealpaa_bnb_resume_test.json";
  for (const Objective objective : {Objective::kErrorRate, Objective::kMed}) {
    BnbOptions suspend_options;
    suspend_options.threads = 1;
    suspend_options.suspend_after_units = 3;
    suspend_options.checkpoint_every_units = 1;
    suspend_options.checkpoint_sink =
        [&path](const BnbCheckpoint& checkpoint) {
          sealpaa::obs::write_bnb_checkpoint(path, checkpoint);
        };
    const BnbResult suspended = BranchBoundOptimizer::optimize(
        profile, builtin_lpaas(), {}, objective, suspend_options);
    ASSERT_FALSE(suspended.complete);
    EXPECT_EQ(suspended.checkpoint.completed_units.size(), 3u);

    const BnbCheckpoint restored = sealpaa::obs::read_bnb_checkpoint(path);
    const BnbResult resumed = BranchBoundOptimizer::resume(
        profile, builtin_lpaas(), restored, {}, objective, threads_opt(1));
    ASSERT_TRUE(resumed.complete);

    const BnbResult uninterrupted = BranchBoundOptimizer::optimize(
        profile, builtin_lpaas(), {}, objective, threads_opt(1));
    expect_same_design(resumed.design, uninterrupted.design);
    EXPECT_EQ(sealpaa::obs::to_json(resumed.design.stats).dump(),
              sealpaa::obs::to_json(uninterrupted.design.stats).dump())
        << sealpaa::explore::objective_name(objective);
    EXPECT_GT(resumed.design.stats.stages_computed, 0u);
  }
  std::remove(path.c_str());
}

TEST(BranchBound, CheckpointJsonRoundTripsExactly) {
  const InputProfile profile = varied_profile(5);
  BnbOptions options;
  options.threads = 1;
  options.suspend_after_units = 2;
  const BnbResult suspended = BranchBoundOptimizer::optimize(
      profile, builtin_lpaas(), {}, Objective::kMse, options);
  ASSERT_FALSE(suspended.complete);
  const BnbCheckpoint& original = suspended.checkpoint;
  const BnbCheckpoint reparsed = sealpaa::obs::parse_bnb_checkpoint(
      sealpaa::obs::Json::parse(sealpaa::obs::to_json(original).dump()));
  EXPECT_EQ(reparsed.objective, original.objective);
  EXPECT_EQ(reparsed.width, original.width);
  EXPECT_EQ(reparsed.palette, original.palette);
  EXPECT_EQ(reparsed.p_a, original.p_a);
  EXPECT_EQ(reparsed.p_b, original.p_b);
  EXPECT_EQ(reparsed.p_cin, original.p_cin);
  EXPECT_EQ(reparsed.max_power_nw, original.max_power_nw);
  EXPECT_EQ(reparsed.max_area_ge, original.max_area_ge);
  EXPECT_EQ(reparsed.split_depth, original.split_depth);
  EXPECT_EQ(reparsed.total_units, original.total_units);
  EXPECT_EQ(reparsed.incumbent_found, original.incumbent_found);
  EXPECT_EQ(reparsed.incumbent_choices, original.incumbent_choices);
  EXPECT_EQ(reparsed.incumbent_score, original.incumbent_score);  // bit-exact
  EXPECT_EQ(reparsed.incumbent_index, original.incumbent_index);
  EXPECT_EQ(reparsed.completed_units, original.completed_units);
  EXPECT_EQ(reparsed.stats.nodes_expanded, original.stats.nodes_expanded);
  EXPECT_EQ(reparsed.stats.candidates_evaluated,
            original.stats.candidates_evaluated);
}

TEST(BranchBound, ResumeRejectsMismatchedSearch) {
  const InputProfile profile = varied_profile(5);
  BnbOptions options;
  options.threads = 1;
  options.suspend_after_units = 1;
  const BnbResult suspended = BranchBoundOptimizer::optimize(
      profile, builtin_lpaas(), {}, Objective::kErrorRate, options);
  ASSERT_FALSE(suspended.complete);
  // Wrong objective.
  EXPECT_THROW(BranchBoundOptimizer::resume(profile, builtin_lpaas(),
                                            suspended.checkpoint, {},
                                            Objective::kMed),
               std::invalid_argument);
  // Wrong palette.
  std::vector<sealpaa::adders::AdderCell> other(builtin_lpaas().begin(),
                                                builtin_lpaas().end());
  other[0] = accurate();
  EXPECT_THROW(BranchBoundOptimizer::resume(profile, other,
                                            suspended.checkpoint),
               std::invalid_argument);
  // Wrong profile.
  EXPECT_THROW(BranchBoundOptimizer::resume(varied_profile(4),
                                            builtin_lpaas(),
                                            suspended.checkpoint),
               std::invalid_argument);
}

// Past 2^64 designs the historical index saturates at 2^64 - 1, so two
// designs with equal scores tie on it too.  64 cells at width 11 give
// 64^11 = 2^66 designs: cells 0-61 are LPAA1 with some of its success
// rows made erroneous (worse wherever they sit), cell 62 is LPAA1 and
// cell 63 an identical copy, so every LPAA1/copy mix scores the same.
// The tie must go to the design whose true index is lowest, all-LPAA1,
// even when a checkpoint hands the search its twin LPAA1^10 · copy as
// the incumbent.
TEST(BranchBound, SaturatedIndexTieGoesToLowestTrueIndex) {
  const AdderCell& base = lpaa(1);
  std::vector<std::size_t> success_rows;
  for (std::size_t r = 0; r < AdderCell::kRows; ++r) {
    if (base.row_is_success(r)) success_rows.push_back(r);
  }
  ASSERT_EQ(success_rows.size(), 6u);
  std::vector<AdderCell> palette;
  for (unsigned mask = 1; palette.size() < 62; ++mask) {
    AdderCell::Rows rows = base.rows();
    for (std::size_t i = 0; i < success_rows.size(); ++i) {
      if (((mask >> i) & 1U) != 0) {
        rows[success_rows[i]].sum = !rows[success_rows[i]].sum;
      }
    }
    palette.emplace_back("worse" + std::to_string(mask), rows);
  }
  palette.push_back(base);
  palette.emplace_back("LPAA1 copy", base.rows());
  const std::size_t width = 11;
  const InputProfile profile = InputProfile::uniform(width, 0.5);
  const std::vector<std::string> all_lpaa1(width, "LPAA1");

  BnbOptions suspend_options;
  suspend_options.threads = 1;
  suspend_options.suspend_after_units = 1;
  const BnbResult suspended = BranchBoundOptimizer::optimize(
      profile, palette, {}, Objective::kErrorRate, suspend_options);
  ASSERT_FALSE(suspended.complete);
  BnbCheckpoint twin = suspended.checkpoint;
  ASSERT_TRUE(twin.incumbent_found);
  ASSERT_EQ(twin.incumbent_index, UINT64_MAX);
  // The seed is an LPAA1/copy mix, so its score is the twin's score; the
  // seed's own tie-break already picks all-LPAA1 from the mixes the beam
  // and the hybrid family offer.
  for (const std::size_t c : twin.incumbent_choices) {
    ASSERT_TRUE(c == 62 || c == 63) << c;
  }
  EXPECT_EQ(twin.incumbent_choices, std::vector<std::size_t>(width, 62));
  twin.incumbent_choices.assign(width, 62);
  twin.incumbent_choices.back() = 63;
  twin.completed_units.clear();
  twin.stats = SearchStats{};

  for (const unsigned threads : {1u, 4u}) {
    const BnbResult resumed = BranchBoundOptimizer::resume(
        profile, palette, twin, {}, Objective::kErrorRate,
        threads_opt(threads));
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(stage_names(resumed.design), all_lpaa1)
        << "resume, " << threads << " threads";
    const BnbResult fresh = BranchBoundOptimizer::optimize(
        profile, palette, {}, Objective::kErrorRate, threads_opt(threads));
    EXPECT_EQ(stage_names(fresh.design), all_lpaa1)
        << "optimize, " << threads << " threads";
  }
}

// A checkpoint names its palette by 16-bit truth-table fingerprints
// (bit r = row r's sum, bit 8+r = row r's carry).  The recorded schema-v1
// values of the built-in cells are pinned, so a checkpoint written by an
// earlier build still resumes.
TEST(BranchBound, CheckpointPaletteFingerprintsArePinned) {
  BnbOptions options;
  options.threads = 1;
  options.suspend_after_units = 1;
  const auto cells = sealpaa::adders::all_builtin_cells();
  const BnbResult suspended = BranchBoundOptimizer::optimize(
      varied_profile(3), cells, {}, Objective::kErrorRate, options);
  ASSERT_FALSE(suspended.complete);
  // AccuFA, then LPAA1..LPAA7.
  const std::vector<std::uint16_t> want{0xe896, 0xec82, 0xe817, 0xec13,
                                        0xf08a, 0xf0cc, 0xaa96, 0xe8be};
  EXPECT_EQ(suspended.checkpoint.palette, want);
  const sealpaa::obs::Json json = sealpaa::obs::to_json(suspended.checkpoint);
  const sealpaa::obs::Json* palette = json.find("palette");
  ASSERT_NE(palette, nullptr);
  ASSERT_EQ(palette->size(), want.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(palette->at(c).unsigned_integer(), want[c]) << cells[c].name();
  }
}

// Satellite regression: the SearchStats JSON projection must emit every
// counter explicitly, including zero values, so report consumers can
// rely on a stable key set across optimizers.
TEST(BranchBound, SearchStatsJsonEmitsAllKeysIncludingZeros) {
  const SearchStats zero;
  const sealpaa::obs::Json json = sealpaa::obs::to_json(zero);
  for (const char* key :
       {"candidates_evaluated", "candidates_rejected", "cache_hits",
        "cache_misses", "stages_computed", "soa_batches", "soa_lanes",
        "soa_max_lanes", "nodes_expanded", "nodes_pruned", "bound_cutoffs",
        "steal_count"}) {
    const sealpaa::obs::Json* value = json.find(key);
    ASSERT_NE(value, nullptr) << key;
    EXPECT_EQ(value->unsigned_integer(), 0u) << key;
  }
}

TEST(BranchBound, HybridOptimizerForwarderMatchesOptimize) {
  const InputProfile profile = varied_profile(5);
  const HybridDesign via_forwarder = HybridOptimizer::branch_bound(
      profile, builtin_lpaas(), {}, Objective::kErrorRate, 1);
  const BnbResult direct = BranchBoundOptimizer::optimize(
      profile, builtin_lpaas(), {}, Objective::kErrorRate, threads_opt(1));
  expect_same_design(via_forwarder, direct.design);
}

}  // namespace
