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
//    while accounting their cache traffic.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
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

}  // namespace
