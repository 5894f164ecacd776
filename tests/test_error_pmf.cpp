// The analytic error-PMF propagation contract (analysis/error_pmf.*):
//
//  * the propagated distribution is a true PMF — mass 1 within 1e-12,
//    strictly sorted support, positive probabilities — over 200+
//    randomized hybrid chains at widths 4..16;
//  * MED/MSE/WCE/error-rate and the full point-by-point distribution
//    match the weighted-exhaustive oracle (2^(2N+1) enumeration);
//  * an exact chain collapses to the point mass at 0;
//  * every mixture, and every propagation, is bit-identical to a
//    gather + stable-sort oracle over its (value, probability) pairs in
//    term order;
//  * the engine integrations (IncrementalAnalyzer PMF tracking and the
//    ChainEvaluator PMF cache) reproduce the batch propagation exactly
//    while accounting their cache traffic;
//  * the windowed driver propagate_error_pmf equals the per-stage form
//    (make_error_pmf_state + next_error_pmf_state + finalize_error_pmf)
//    entry for entry and bit for bit — window path, sparse fallback,
//    extreme profiles, the support and width guards — and its
//    branch-free Neumaier step is the branching one.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/adders/cell.hpp"
#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/analysis/mkl.hpp"
#include "sealpaa/baseline/weighted_exhaustive.hpp"
#include "sealpaa/engine/chain_evaluator.hpp"
#include "sealpaa/engine/incremental.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/prob/kahan.hpp"
#include "sealpaa/prob/rng.hpp"
#include "sealpaa/sim/metrics.hpp"

namespace {

using sealpaa::adders::AdderCell;
using sealpaa::analysis::ErrorPmf;
using sealpaa::analysis::ErrorPmfState;
using sealpaa::analysis::PmfOptions;
using sealpaa::baseline::ExhaustiveReport;
using sealpaa::baseline::WeightedExhaustive;
using sealpaa::engine::ChainEvaluator;
using sealpaa::engine::IncrementalAnalyzer;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;

/// Random 8-row truth table; exact tables are rerolled so every case
/// exercises a genuinely approximate cell.
AdderCell random_cell(sealpaa::prob::SplitMix64& rng, int index) {
  for (;;) {
    std::string sum_column(8, '0');
    std::string carry_column(8, '0');
    const std::uint64_t bits = rng.next();
    for (int row = 0; row < 8; ++row) {
      if (((bits >> row) & 1ULL) != 0) {
        sum_column[static_cast<std::size_t>(row)] = '1';
      }
      if (((bits >> (8 + row)) & 1ULL) != 0) {
        carry_column[static_cast<std::size_t>(row)] = '1';
      }
    }
    AdderCell cell = AdderCell::from_columns(
        "RND" + std::to_string(index), sum_column, carry_column,
        "randomized error-PMF test cell");
    if (!cell.is_exact()) return cell;
  }
}

std::vector<AdderCell> random_chain(sealpaa::prob::SplitMix64& rng,
                                    std::size_t width, int trial) {
  std::vector<AdderCell> stages;
  stages.reserve(width);
  for (std::size_t s = 0; s < width; ++s) {
    stages.push_back(random_cell(rng, trial * 100 + static_cast<int>(s)));
  }
  return stages;
}

/// "Within 1e-12" at any magnitude: absolute for probabilities, relative
/// once the oracle moments grow past 1.
void expect_close(double got, double want, const std::string& context) {
  const double tolerance = 1e-12 * std::max(1.0, std::abs(want));
  EXPECT_NEAR(got, want, tolerance) << context;
}

void expect_same_entries(const ErrorPmf& got, const ErrorPmf& want,
                         const std::string& context) {
  ASSERT_EQ(got.support_size(), want.support_size()) << context;
  for (std::size_t i = 0; i < want.support_size(); ++i) {
    EXPECT_EQ(got.entries()[i].value, want.entries()[i].value)
        << context << " point " << i;
    EXPECT_EQ(got.entries()[i].probability, want.entries()[i].probability)
        << context << " point " << i;
  }
}

/// The mixture every accumulator must reproduce bit for bit: each
/// (value + offset, scale * probability) pair in term order, merged by
/// from_entries' stable sort and compensated run sum.
ErrorPmf oracle_mixture(std::span<const ErrorPmf::Term> terms) {
  ErrorPmf::Entries entries;
  for (const ErrorPmf::Term& term : terms) {
    if (term.pmf == nullptr) continue;
    for (const ErrorPmf::Entry& entry : term.pmf->entries()) {
      entries.push_back(
          {entry.value + term.offset, term.scale * entry.probability});
    }
  }
  return ErrorPmf::from_entries(std::move(entries));
}

/// propagate_error_pmf with every mixture replaced by the oracle: the
/// same (source pair, operand combination) terms, in the same order.
ErrorPmf oracle_propagate(const std::vector<AdderCell>& stages,
                          const InputProfile& profile) {
  const AdderCell::Rows& exact = AdderCell::accurate_rows();
  ErrorPmfState state =
      sealpaa::analysis::make_error_pmf_state(profile.p_cin());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const sealpaa::analysis::OperandWeights ab =
        sealpaa::analysis::operand_weights(profile.p_a(i), profile.p_b(i));
    std::array<std::vector<ErrorPmf::Term>, 4> terms;
    for (std::size_t src = 0; src < 4; ++src) {
      const bool ca = (src & 2U) != 0;
      const bool ce = (src & 1U) != 0;
      for (std::size_t abi = 0; abi < 4; ++abi) {
        const bool a = (abi & 2U) != 0;
        const bool b = (abi & 1U) != 0;
        const auto approx = stages[i].rows()[AdderCell::row_index(a, b, ca)];
        const auto accurate = exact[AdderCell::row_index(a, b, ce)];
        const std::int64_t delta = (static_cast<std::int64_t>(approx.sum) -
                                    static_cast<std::int64_t>(accurate.sum))
                                   << i;
        terms[(static_cast<std::size_t>(approx.carry) << 1) |
              static_cast<std::size_t>(accurate.carry)]
            .push_back(ErrorPmf::Term{&state.joint[src], ab[abi], delta});
      }
    }
    ErrorPmfState next;
    for (std::size_t dst = 0; dst < 4; ++dst) {
      next.joint[dst] = oracle_mixture(terms[dst]);
    }
    state = std::move(next);
  }
  std::vector<ErrorPmf::Term> carry_out;
  for (std::size_t j = 0; j < 4; ++j) {
    const std::int64_t ca = (j & 2U) != 0 ? 1 : 0;
    const std::int64_t ce = (j & 1U) != 0 ? 1 : 0;
    carry_out.push_back(ErrorPmf::Term{
        &state.joint[j], 1.0, (ca - ce) * (std::int64_t{1} << stages.size())});
  }
  return oracle_mixture(carry_out);
}

// ---------------------------------------------------------------------------
// PMF invariants over randomized hybrid chains

TEST(ErrorPmf, MassSumsToOneOverRandomHybridChains) {
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'0001ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0002ULL);
  for (int trial = 0; trial < 208; ++trial) {
    const std::size_t width = 4 + static_cast<std::size_t>(trial % 13);
    const std::vector<AdderCell> stages = random_chain(cell_rng, width, trial);
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    const std::string context =
        "trial " + std::to_string(trial) + " width " + std::to_string(width);

    const ErrorPmf pmf =
        sealpaa::analysis::propagate_error_pmf(AdderChain(stages), profile);
    ASSERT_FALSE(pmf.empty()) << context;
    EXPECT_NEAR(pmf.total_mass(), 1.0, 1e-12) << context;
    for (std::size_t i = 0; i < pmf.support_size(); ++i) {
      EXPECT_GT(pmf.entries()[i].probability, 0.0) << context;
      if (i > 0) {
        EXPECT_LT(pmf.entries()[i - 1].value, pmf.entries()[i].value)
            << context;
      }
    }
    // The worst-case point is the entry the simulators' worse_error
    // total order selects from the support.
    std::int64_t worst = 0;
    for (const ErrorPmf::Entry& entry : pmf.entries()) {
      if (sealpaa::sim::worse_error(entry.value, worst)) worst = entry.value;
    }
    EXPECT_EQ(pmf.worst_case_error(), worst) << context;
  }
}

TEST(ErrorPmf, JointSegmentMassesStayNormalizedMidPropagation) {
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'0003ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0004ULL);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t width = 4 + static_cast<std::size_t>(trial % 13);
    const std::vector<AdderCell> stages = random_chain(cell_rng, width, trial);
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    ErrorPmfState state =
        sealpaa::analysis::make_error_pmf_state(profile.p_cin());
    for (std::size_t i = 0; i < width; ++i) {
      sealpaa::analysis::advance_error_pmf(state, stages[i], profile.p_a(i),
                                           profile.p_b(i));
      double mass = 0.0;
      for (const ErrorPmf& segment : state.joint) {
        mass += segment.total_mass();
      }
      EXPECT_NEAR(mass, 1.0, 1e-12)
          << "trial " << trial << " after stage " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Weighted-exhaustive oracle

TEST(ErrorPmf, MatchesWeightedExhaustiveGroundTruth) {
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'0005ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0006ULL);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t width = 4 + static_cast<std::size_t>(trial % 5);
    const std::vector<AdderCell> stages = random_chain(cell_rng, width, trial);
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    const AdderChain chain(stages);
    const std::string context =
        "trial " + std::to_string(trial) + " width " + std::to_string(width);

    const ExhaustiveReport oracle =
        WeightedExhaustive::analyze(chain, profile);
    const ErrorPmf pmf = sealpaa::analysis::propagate_error_pmf(chain, profile);

    expect_close(pmf.error_rate(), 1.0 - oracle.p_value_correct, context);
    expect_close(pmf.probability_of(0), oracle.p_value_correct, context);
    expect_close(pmf.mean_error(), oracle.mean_error, context);
    expect_close(pmf.mean_error_distance(), oracle.mean_abs_error, context);
    expect_close(pmf.mean_squared_error(), oracle.mean_squared_error,
                 context);
    // The oracle accumulates its worst case through the same
    // sim::worse_error total order, signed — must agree exactly.
    EXPECT_EQ(pmf.worst_case_error(), oracle.worst_case_error) << context;

    // Point-by-point: every assignment has positive probability under a
    // (0.05, 0.95) profile, so the supports must coincide exactly.
    ASSERT_EQ(pmf.support_size(), oracle.error_distribution.size()) << context;
    std::size_t i = 0;
    for (const auto& [value, probability] : oracle.error_distribution) {
      EXPECT_EQ(pmf.entries()[i].value, value) << context;
      EXPECT_NEAR(pmf.entries()[i].probability, probability, 1e-12) << context;
      ++i;
    }
  }
}

TEST(ErrorPmf, ExactChainIsPointMassAtZero) {
  const AdderCell& exact = sealpaa::adders::accurate();
  for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    const auto chain = AdderChain::homogeneous(exact, width);
    const InputProfile profile = InputProfile::uniform(width, 0.37);
    const ErrorPmf pmf = sealpaa::analysis::propagate_error_pmf(chain, profile);
    ASSERT_EQ(pmf.support_size(), 1u) << width;
    EXPECT_EQ(pmf.min_value(), 0) << width;
    // All mass sits at 0; the value itself carries the rounding of the
    // per-stage carry-split products, so "within 1e-12", not bitwise.
    EXPECT_NEAR(pmf.probability_of(0), 1.0, 1e-12) << width;
    EXPECT_EQ(pmf.error_rate(), 0.0) << width;
    EXPECT_EQ(pmf.mean_error_distance(), 0.0) << width;
    EXPECT_EQ(pmf.worst_case_error(), 0) << width;
    EXPECT_EQ(pmf.entropy_bits(), 0.0) << width;
    EXPECT_TRUE(std::isinf(pmf.psnr_db(width))) << width;
  }
}

// ---------------------------------------------------------------------------
// Mixture accumulators

TEST(ErrorPmf, MixtureMatchesGatherSortOracle) {
  sealpaa::prob::Xoshiro256StarStar rng(0x70f'0000'0007ULL);
  // Segments to draw terms from: dense ones over a few hundred values,
  // sparse ones with points about 2^20 apart, and an empty one.
  std::vector<ErrorPmf> segments;
  for (int s = 0; s < 6; ++s) {
    ErrorPmf::Entries entries;
    const bool sparse = s >= 4;
    const int points = 1 + static_cast<int>(rng.next() % 60);
    for (int i = 0; i < points; ++i) {
      const std::int64_t value =
          sparse ? static_cast<std::int64_t>(rng.next() % 8) << 20
                 : static_cast<std::int64_t>(rng.next() % 200) - 100;
      entries.push_back({value, rng.uniform01()});
    }
    segments.push_back(ErrorPmf::from_entries(entries));
  }
  segments.emplace_back();  // empty
  const ErrorPmf* const empty = &segments.back();

  // Shapes, by the accumulator they select: one segment repeated at one
  // offset (a single run), small overlapping offsets (the dense array
  // once the span is below the contribution count), offsets 2^20 apart
  // (the merge up to 16 runs, the sort beyond).  Adjacent terms repeat
  // their segment and offset to form multi-scale runs; zero scales,
  // empty and null segments are sprinkled in and must change nothing.
  for (int trial = 0; trial < 400; ++trial) {
    const int shape = trial % 4;
    const std::size_t count =
        shape == 0 ? 1 + rng.next() % 4 : 1 + rng.next() % 40;
    std::vector<ErrorPmf::Term> terms;
    for (std::size_t t = 0; t < count; ++t) {
      const double scale = rng.uniform01();
      if (!terms.empty() && (shape == 0 || rng.next() % 3 == 0)) {
        terms.push_back(
            ErrorPmf::Term{terms.back().pmf, scale, terms.back().offset});
        continue;
      }
      ErrorPmf::Term term{&segments[rng.next() % 6], scale, 0};
      if (shape == 1) {
        term.offset = static_cast<std::int64_t>(rng.next() % 64) - 32;
      } else if (shape >= 2) {
        term.offset = (static_cast<std::int64_t>(rng.next() % 64) - 32)
                      << 20;
      }
      terms.push_back(term);
      switch (rng.next() % 8) {
        case 0: terms.push_back(ErrorPmf::Term{term.pmf, 0.0, 5}); break;
        case 1: terms.push_back(ErrorPmf::Term{empty, 0.5, 0}); break;
        case 2: terms.push_back(ErrorPmf::Term{nullptr, 0.5, 0}); break;
        default: break;
      }
    }
    expect_same_entries(ErrorPmf::mixture(terms), oracle_mixture(terms),
                        "trial " + std::to_string(trial));
  }

  const ErrorPmf::Term negative[] = {{&segments[0], 0.5, 0},
                                     {&segments[1], -0.25, 3}};
  EXPECT_THROW((void)ErrorPmf::mixture(negative), std::invalid_argument);

  // Whole propagations: every mixture along 25 random chains.
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'0007ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0008ULL);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t width = 4 + static_cast<std::size_t>(trial % 9);
    const std::vector<AdderCell> stages = random_chain(cell_rng, width, trial);
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    expect_same_entries(
        sealpaa::analysis::propagate_error_pmf(AdderChain(stages), profile),
        oracle_propagate(stages, profile),
        "chain trial " + std::to_string(trial));
  }
}

TEST(ErrorPmf, FromEntriesMergesValidatesAndDropsZeros) {
  const ErrorPmf merged = ErrorPmf::from_entries(
      {{5, 0.25}, {-3, 0.5}, {5, 0.25}, {7, 0.0}});
  ASSERT_EQ(merged.support_size(), 2u);
  EXPECT_EQ(merged.min_value(), -3);
  EXPECT_EQ(merged.max_value(), 5);
  EXPECT_EQ(merged.probability_of(5), 0.5);
  EXPECT_EQ(merged.probability_of(7), 0.0);
  EXPECT_THROW((void)ErrorPmf::from_entries({{1, -0.5}}),
               std::invalid_argument);
}

TEST(ErrorPmf, TopMassPointsOrderByProbabilityThenValue) {
  const ErrorPmf pmf = ErrorPmf::from_entries(
      {{-8, 0.2}, {0, 0.4}, {3, 0.2}, {11, 0.15}, {12, 0.05}});
  const ErrorPmf::Entries top = pmf.top_mass_points(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].value, 0);
  EXPECT_EQ(top[1].value, -8);  // probability tie with +3 → lower value first
  EXPECT_EQ(top[2].value, 3);
  EXPECT_EQ(pmf.top_mass_points(99).size(), pmf.support_size());
}

TEST(ErrorPmf, SupportGuardAndWidthGuardThrow) {
  const auto chain =
      AdderChain::homogeneous(sealpaa::adders::lpaa(1), 8);
  const InputProfile profile = InputProfile::uniform(8, 0.3);
  PmfOptions tiny;
  tiny.max_support = 4;  // LPAA1 at width 8 reaches a 400+-point support
  EXPECT_THROW(
      (void)sealpaa::analysis::propagate_error_pmf(chain, profile, tiny),
      std::length_error);

  ErrorPmfState state = sealpaa::analysis::make_error_pmf_state(0.5);
  state.stage = 62;  // the carry-out weight 2^63 would overflow int64
  EXPECT_THROW(sealpaa::analysis::advance_error_pmf(
                   state, sealpaa::adders::lpaa(1), 0.5, 0.5),
               std::length_error);
}

// ---------------------------------------------------------------------------
// Engine integrations

TEST(ErrorPmf, IncrementalTrackingMatchesBatchPropagation) {
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'000aULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'000bULL);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t width = 4 + static_cast<std::size_t>(trial % 9);
    const std::vector<AdderCell> stages = random_chain(cell_rng, width, trial);
    // The palette: the chain's own cells (stage s is index s), then the
    // two replacements pushed after the rewind below.
    std::vector<AdderCell> palette = stages;
    for (std::size_t s = width - 2; s < width; ++s) {
      palette.push_back(
          random_cell(cell_rng, trial * 100 + 50 + static_cast<int>(s)));
    }
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);

    IncrementalAnalyzer inc(profile, palette, /*track_pmf=*/true);
    for (std::size_t s = 0; s < width; ++s) inc.push(s);
    const ErrorPmf batch =
        sealpaa::analysis::propagate_error_pmf(AdderChain(stages), profile);
    expect_same_entries(inc.error_pmf(), batch,
                        "full chain trial " + std::to_string(trial));

    // The DFS access pattern: rewind two stages, push replacements, and
    // the tracked PMF must equal a from-scratch propagation of the new
    // stage sequence.
    inc.rewind(width - 2);
    std::vector<AdderCell> replayed(stages.begin(),
                                    stages.begin() +
                                        static_cast<std::ptrdiff_t>(width - 2));
    for (std::size_t s = width - 2; s < width; ++s) {
      replayed.push_back(palette[s + 2]);
      inc.push(s + 2);
    }
    const ErrorPmf rebatch =
        sealpaa::analysis::propagate_error_pmf(AdderChain(replayed), profile);
    expect_same_entries(inc.error_pmf(), rebatch,
                        "rewound chain trial " + std::to_string(trial));
  }
}

TEST(ErrorPmf, IncrementalTrackingGuards) {
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  const std::vector<AdderCell> palette{sealpaa::adders::lpaa(1)};
  IncrementalAnalyzer untracked(profile, palette);
  EXPECT_THROW((void)untracked.error_pmf(), std::logic_error);
}

TEST(ErrorPmf, ChainEvaluatorPmfPrefixCacheIsExactAndAccounted) {
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'000cULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'000dULL);
  const std::size_t width = 8;
  std::vector<AdderCell> palette;
  for (int c = 0; c < 4; ++c) palette.push_back(random_cell(cell_rng, c));
  const InputProfile profile =
      InputProfile::random(width, profile_rng, 0.05, 0.95);
  ChainEvaluator evaluator(profile, palette);

  // The cache holds finished PMFs of whole chains: a distinct chain is
  // one miss and `width` stages, a repeat is one hit and no stage, and
  // both are bit-identical to the batch propagation.
  sealpaa::prob::SplitMix64 walk_rng(0x70f'0000'000eULL);
  std::vector<std::vector<std::size_t>> queries;
  for (int query = 0; query < 40; ++query) {
    std::vector<std::size_t> choices(width);
    for (std::size_t i = 0; i < width; ++i) {
      choices[i] = walk_rng.next() % palette.size();
    }
    queries.push_back(std::move(choices));
  }
  for (int repeat = 0; repeat < 10; ++repeat) {
    queries.push_back(queries[static_cast<std::size_t>(repeat * 3)]);
  }
  std::set<std::vector<std::size_t>> seen;
  for (std::size_t query = 0; query < queries.size(); ++query) {
    const std::vector<std::size_t>& choices = queries[query];
    std::vector<AdderCell> stages;
    for (const std::size_t c : choices) stages.push_back(palette[c]);
    const sealpaa::engine::CacheStats before = evaluator.pmf_stats();
    const ErrorPmf cached = evaluator.error_pmf(choices);
    const ErrorPmf batch =
        sealpaa::analysis::propagate_error_pmf(AdderChain(stages), profile);
    const std::string context = "query " + std::to_string(query);
    expect_same_entries(cached, batch, context);
    const sealpaa::engine::CacheStats& after = evaluator.pmf_stats();
    const bool repeat = !seen.insert(choices).second;
    EXPECT_EQ(after.hits - before.hits, repeat ? 1u : 0u) << context;
    EXPECT_EQ(after.misses - before.misses, repeat ? 0u : 1u) << context;
    EXPECT_EQ(after.stages_computed - before.stages_computed,
              repeat ? 0u : width)
        << context;
  }
  const sealpaa::engine::CacheStats& stats = evaluator.pmf_stats();
  EXPECT_GE(stats.hits, 10u);
  EXPECT_EQ(stats.chains_evaluated, queries.size());
  EXPECT_EQ(stats.hits + stats.misses, queries.size());
  EXPECT_EQ(stats.stages_computed, seen.size() * width);
  EXPECT_EQ(evaluator.pmf_cache_size(), seen.size());

  evaluator.clear();
  EXPECT_EQ(evaluator.pmf_cache_size(), 0u);
}

TEST(ErrorPmf, ChainEvaluatorPartialPrefixMatchesPartialChain) {
  // error_pmf on a k-stage prefix equals the batch propagation of the
  // k-stage chain under the truncated profile.
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'000fULL);
  const std::size_t width = 8;
  std::vector<AdderCell> palette;
  for (int c = 0; c < 3; ++c) palette.push_back(random_cell(cell_rng, c));
  const InputProfile profile = InputProfile::uniform(width, 0.42);
  ChainEvaluator evaluator(profile, palette);

  const std::vector<std::size_t> prefix{0, 1, 2, 1};
  std::vector<AdderCell> stages;
  for (const std::size_t c : prefix) stages.push_back(palette[c]);
  const InputProfile truncated = InputProfile::uniform(prefix.size(), 0.42);
  const ErrorPmf batch = sealpaa::analysis::propagate_error_pmf(
      AdderChain(stages), truncated);
  expect_same_entries(evaluator.error_pmf(prefix), batch, "prefix of 4");
}

// ---------------------------------------------------------------------------
// The windowed driver against the per-stage form

/// The per-stage form of a propagation: the reference the driver must
/// reproduce.  Returns the PMF, or the what() of the std::length_error
/// it threw.
struct StagedOutcome {
  std::optional<ErrorPmf> pmf;
  std::string error;
};

StagedOutcome staged_propagate(const std::vector<AdderCell>& stages,
                               const InputProfile& profile,
                               const PmfOptions& options = {}) {
  StagedOutcome out;
  try {
    ErrorPmfState state =
        sealpaa::analysis::make_error_pmf_state(profile.p_cin());
    for (std::size_t i = 0; i < stages.size(); ++i) {
      state = sealpaa::analysis::next_error_pmf_state(
          state, stages[i], profile.p_a(i), profile.p_b(i), options);
    }
    out.pmf = sealpaa::analysis::finalize_error_pmf(state, options);
  } catch (const std::length_error& e) {
    out.error = e.what();
  }
  return out;
}

StagedOutcome driven_propagate(const std::vector<AdderCell>& stages,
                               const InputProfile& profile,
                               const PmfOptions& options = {}) {
  StagedOutcome out;
  try {
    out.pmf = sealpaa::analysis::propagate_error_pmf(AdderChain(stages),
                                                     profile, options);
  } catch (const std::length_error& e) {
    out.error = e.what();
  }
  return out;
}

void expect_same_outcome(const StagedOutcome& got, const StagedOutcome& want,
                         const std::string& context) {
  ASSERT_EQ(got.pmf.has_value(), want.pmf.has_value())
      << context << ": driver threw '" << got.error << "', stages threw '"
      << want.error << "'";
  if (want.pmf) {
    expect_same_entries(*got.pmf, *want.pmf, context);
  } else {
    EXPECT_EQ(got.error, want.error) << context;
  }
}

/// Per-bit probabilities with the edge values mixed in.
InputProfile edge_profile(std::size_t width,
                          sealpaa::prob::Xoshiro256StarStar& rng,
                          double p_cin) {
  const std::array<double, 5> edges = {
      0.0, 1.0, 1e-300, std::numeric_limits<double>::denorm_min(), 0.5};
  const auto draw = [&] {
    const std::uint64_t pick = rng.next() % 8;
    return pick < edges.size() ? edges[pick] : rng.uniform01();
  };
  std::vector<double> p_a(width);
  std::vector<double> p_b(width);
  for (std::size_t i = 0; i < width; ++i) {
    p_a[i] = draw();
    p_b[i] = draw();
  }
  return InputProfile(std::move(p_a), std::move(p_b), p_cin);
}

TEST(ErrorPmfDriver, MatchesPerStageFormOverRandomBuiltinChains) {
  // Every built-in cell, widths 1..24.  At most 10 approximate stages
  // keep the supports small; placed in the low bits they keep every
  // window dense, placed anywhere they spread the segments and send
  // some chains to the sparse fallback mid-chain.
  const std::span<const AdderCell> builtins =
      sealpaa::adders::all_builtin_cells();
  sealpaa::prob::SplitMix64 rng(0x70f'0000'0010ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0011ULL);
  constexpr std::array<double, 3> kCarryIns = {0.0, 0.5, 1.0};
  for (int trial = 0; trial < 480; ++trial) {
    const std::size_t width = 1 + static_cast<std::size_t>(trial % 24);
    const std::size_t approximate =
        std::min<std::size_t>(width, rng.next() % 11);
    const bool low_bits = rng.next() % 2 == 0;
    std::vector<AdderCell> stages(width, sealpaa::adders::accurate());
    for (std::size_t a = 0; a < approximate; ++a) {
      const std::size_t at = low_bits ? a : rng.next() % width;
      stages[at] = builtins[(a == 0 ? static_cast<std::size_t>(trial)
                                    : rng.next()) %
                            builtins.size()];
    }
    const double p_cin = kCarryIns[static_cast<std::size_t>(trial) % 3];
    const InputProfile profile =
        trial % 3 == 2
            ? edge_profile(width, profile_rng, p_cin)
            : InputProfile::uniform_with_cin(
                  width, 0.05 + 0.9 * profile_rng.uniform01(), p_cin);
    expect_same_outcome(driven_propagate(stages, profile),
                        staged_propagate(stages, profile),
                        "trial " + std::to_string(trial));
  }
}

TEST(ErrorPmfDriver, MatchesPerStageFormOnEdgeProfiles) {
  // Random per-bit probabilities of 0, 1, 1e-300 and 2^-1074 (whose
  // products underflow to 0 and empty whole segments), under every
  // carry-in edge.
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'0012ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0013ULL);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t width = 1 + static_cast<std::size_t>(trial % 12);
    const std::vector<AdderCell> stages = random_chain(cell_rng, width, trial);
    for (const double p_cin : {0.0, 0.5, 1.0}) {
      const InputProfile profile = edge_profile(width, profile_rng, p_cin);
      expect_same_outcome(driven_propagate(stages, profile),
                          staged_propagate(stages, profile),
                          "trial " + std::to_string(trial) + " p_cin " +
                              std::to_string(p_cin));
    }
  }
}

TEST(ErrorPmfDriver, SparseFallbackMidChainMatches) {
  // Approximate cells only in the top bits of a width-40 chain: below
  // them every segment is a point mass, and their deltas of +-2^34 and
  // more spread the segments far wider than twice what they hold.
  for (int top = 1; top <= 6; ++top) {
    std::vector<AdderCell> stages(40, sealpaa::adders::accurate());
    for (int s = 0; s < top; ++s) {
      stages[static_cast<std::size_t>(39 - s)] =
          sealpaa::adders::lpaa(1 + (s % 7));
    }
    // A few approximate low bits too, so the window path runs first.
    stages[0] = sealpaa::adders::lpaa(2);
    stages[1] = sealpaa::adders::lpaa(5);
    for (const double p : {0.3, 0.5}) {
      const InputProfile profile = InputProfile::uniform(40, p);
      expect_same_outcome(driven_propagate(stages, profile),
                          staged_propagate(stages, profile),
                          "top " + std::to_string(top));
    }
  }
}

TEST(ErrorPmfDriver, SupportGuardTripsAtTheSameStageWithTheSameText) {
  // Every support cap from 1 past the final support: each trips at the
  // stage (or in the finalize) where the per-stage form trips, with the
  // same message and support count.
  const std::vector<AdderCell> stages(10, sealpaa::adders::lpaa(1));
  const InputProfile profile = InputProfile::uniform(10, 0.4);
  const StagedOutcome unbounded = staged_propagate(stages, profile);
  ASSERT_TRUE(unbounded.pmf.has_value());
  const std::size_t final_support = unbounded.pmf->support_size();
  std::size_t tripped = 0;
  for (std::size_t cap = 1; cap <= final_support + 1;
       cap = cap < 16 ? cap + 1 : cap + cap / 4) {
    PmfOptions options;
    options.max_support = cap;
    const StagedOutcome want = staged_propagate(stages, profile, options);
    if (!want.pmf) ++tripped;
    expect_same_outcome(driven_propagate(stages, profile, options), want,
                        "cap " + std::to_string(cap));
  }
  EXPECT_GT(tripped, 10u);

  // A cap the finalize alone exceeds: every state fits, the fold of the
  // carry-out does not.
  PmfOptions options;
  options.max_support = final_support - 1;
  const StagedOutcome want = staged_propagate(stages, profile, options);
  ASSERT_FALSE(want.pmf.has_value());
  EXPECT_NE(want.error.find("support " + std::to_string(final_support)),
            std::string::npos)
      << want.error;
  expect_same_outcome(driven_propagate(stages, profile, options), want,
                      "finalize cap");
}

TEST(ErrorPmfDriver, WidthsSixtyTwoAndSixtyThree) {
  // Width 62 is the widest the error domain holds: approximate cells in
  // the low bits (windows throughout) and in the top bits (the carry-out
  // fold at +-2^62).  Width 63 throws at stage 62 in both forms.
  for (const bool top : {false, true}) {
    std::vector<AdderCell> stages(62, sealpaa::adders::accurate());
    for (std::size_t s = 0; s < 4; ++s) {
      stages[top ? 61 - s : s] = sealpaa::adders::lpaa(1 + static_cast<int>(s));
    }
    const InputProfile profile = InputProfile::uniform(62, 0.45);
    expect_same_outcome(driven_propagate(stages, profile),
                        staged_propagate(stages, profile),
                        top ? "width 62, top bits" : "width 62, low bits");
  }
  std::vector<AdderCell> stages(63, sealpaa::adders::accurate());
  stages[0] = sealpaa::adders::lpaa(3);
  const InputProfile profile = InputProfile::uniform(63, 0.5);
  const StagedOutcome want = staged_propagate(stages, profile);
  ASSERT_FALSE(want.pmf.has_value());
  EXPECT_NE(want.error.find("widths <= 62"), std::string::npos);
  expect_same_outcome(driven_propagate(stages, profile), want, "width 63");
}

TEST(ErrorPmfDriver, ChainEvaluatorFullAndPrefixChainsMatchPerStageForm) {
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'0014ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0015ULL);
  const std::size_t width = 14;
  std::vector<AdderCell> palette;
  for (int c = 0; c < 3; ++c) palette.push_back(random_cell(cell_rng, c));
  palette.push_back(sealpaa::adders::accurate());
  palette.push_back(sealpaa::adders::lpaa(4));
  const InputProfile profile =
      InputProfile::random(width, profile_rng, 0.05, 0.95);
  ChainEvaluator evaluator(profile, palette);
  sealpaa::prob::SplitMix64 walk_rng(0x70f'0000'0016ULL);
  for (int query = 0; query < 30; ++query) {
    const std::size_t length =
        query % 3 == 0 ? width : 1 + walk_rng.next() % width;
    std::vector<std::size_t> choices(length);
    std::vector<AdderCell> stages;
    for (std::size_t& choice : choices) {
      // The high bits mostly exact, as the service's chains are.
      choice = stages.size() < 6 ? walk_rng.next() % palette.size()
                                 : 3 + walk_rng.next() % 2;
      stages.push_back(palette[choice]);
    }
    const InputProfile truncated(
        {profile.all_p_a().begin(),
         profile.all_p_a().begin() + static_cast<std::ptrdiff_t>(length)},
        {profile.all_p_b().begin(),
         profile.all_p_b().begin() + static_cast<std::ptrdiff_t>(length)},
        profile.p_cin());
    const StagedOutcome want = staged_propagate(stages, truncated);
    ASSERT_TRUE(want.pmf.has_value());
    expect_same_entries(evaluator.error_pmf(choices), *want.pmf,
                        "query " + std::to_string(query) + " of " +
                            std::to_string(length) + " stages");
  }
}

/// The Neumaier step as a branch, the form the branch-free step must
/// reproduce bit for bit.
void branching_neumaier_add(double& sum, double& compensation, double x) {
  const double t = sum + x;
  if (std::abs(sum) >= std::abs(x)) {
    compensation += (sum - t) + x;
  } else {
    compensation += (x - t) + sum;
  }
  sum = t;
}

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

TEST(ErrorPmfDriver, BranchFreeNeumaierStepIsTheBranchingOne) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  const std::vector<double> values = {
      0.0,       -0.0,         tiny,     -tiny,       3 * tiny,
      min_normal, -min_normal, 1e-300,   -1e-300,     1e300,
      -1e300,     1.0,         -1.0,     0.1,         1.0 + 0x1p-52,
      0x1p-53,    1e-16,       12345.678};
  sealpaa::prob::Xoshiro256StarStar rng(0x70f'0000'0017ULL);
  // Every (sum, compensation, addend) triple of the edge values, then
  // long runs of mixed magnitudes where the compensation matters.
  for (const double sum : values) {
    for (const double compensation : values) {
      for (const double x : values) {
        double s1 = sum;
        double c1 = compensation;
        double s2 = sum;
        double c2 = compensation;
        sealpaa::prob::neumaier_add(s1, c1, x);
        branching_neumaier_add(s2, c2, x);
        EXPECT_EQ(bits_of(s1), bits_of(s2)) << sum << " + " << x;
        EXPECT_EQ(bits_of(c1), bits_of(c2)) << sum << " + " << x;
      }
    }
  }
  for (int run = 0; run < 200; ++run) {
    sealpaa::prob::KahanSum kahan;
    double s = 0.0;
    double c = 0.0;
    for (int i = 0; i < 64; ++i) {
      const double magnitude =
          values[static_cast<std::size_t>(rng.next() % values.size())];
      const double x = magnitude * rng.uniform01();
      kahan.add(x);
      branching_neumaier_add(s, c, x);
    }
    EXPECT_EQ(bits_of(kahan.value()), bits_of(s + c)) << "run " << run;
  }
}

}  // namespace
