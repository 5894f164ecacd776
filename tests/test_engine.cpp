// The engine layer's core contract: IncrementalAnalyzer and
// ChainEvaluator are *bit-identical* to RecursiveAnalyzer::analyze —
// EXPECT_EQ on doubles, not EXPECT_NEAR — because they replay the exact
// advance_stage / final_success call sequence from the same base carry.
// Plus the prefix cache's pathological configurations (zero capacity,
// tiny capacity with evictions) and exact counter accounting, and the
// method registry's parse/dispatch behaviour.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/adders/cell.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/engine/chain_evaluator.hpp"
#include "sealpaa/engine/incremental.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/prob/rng.hpp"
#include "sealpaa/util/kernel_override.hpp"

namespace {

using sealpaa::adders::AdderCell;
using sealpaa::analysis::AnalysisResult;
using sealpaa::analysis::RecursiveAnalyzer;
using sealpaa::engine::ChainEvaluator;
using sealpaa::engine::ChainEvaluatorOptions;
using sealpaa::engine::IncrementalAnalyzer;
using sealpaa::engine::MklCache;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;
using sealpaa::util::KernelLevel;

/// Clears the process-wide kernel cap on scope exit so an assertion
/// failure inside a forced-level loop cannot leak the cap into later
/// tests.
struct ForcedKernelGuard {
  ~ForcedKernelGuard() { sealpaa::util::set_forced_kernel(std::nullopt); }
};

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
        "randomized engine-test cell");
    if (!cell.is_exact()) return cell;
  }
}

void expect_bit_identical(const AnalysisResult& got,
                          const AnalysisResult& want,
                          const std::string& context) {
  EXPECT_EQ(got.p_success, want.p_success) << context;
  EXPECT_EQ(got.p_error, want.p_error) << context;
  EXPECT_EQ(got.final_carry.c0, want.final_carry.c0) << context;
  EXPECT_EQ(got.final_carry.c1, want.final_carry.c1) << context;
}

// ---------------------------------------------------------------------------
// IncrementalAnalyzer

TEST(IncrementalAnalyzer, BitIdenticalToBatchAnalyzerOverRandomChains) {
  sealpaa::prob::SplitMix64 cell_rng(0xe9c1'7e57'0000'0001ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xe9c1'7e57'0000'0002ULL);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t width = 4 + static_cast<std::size_t>(trial % 13);
    std::vector<AdderCell> stages;
    for (std::size_t s = 0; s < width; ++s) {
      stages.push_back(
          random_cell(cell_rng, trial * 100 + static_cast<int>(s)));
    }
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    const AdderChain chain(stages);
    const AnalysisResult batch = RecursiveAnalyzer::analyze(
        chain, profile, {.record_trace = true});

    IncrementalAnalyzer inc(profile);
    for (const AdderCell& cell : stages) inc.push_stage(cell);
    const AnalysisResult result = inc.finish(/*record_trace=*/true);

    expect_bit_identical(result, batch,
                         "trial " + std::to_string(trial) + " width " +
                             std::to_string(width));
    ASSERT_EQ(result.trace.size(), batch.trace.size());
    for (std::size_t s = 0; s < batch.trace.size(); ++s) {
      EXPECT_EQ(result.trace[s].carry_out.c0, batch.trace[s].carry_out.c0);
      EXPECT_EQ(result.trace[s].carry_out.c1, batch.trace[s].carry_out.c1);
    }
  }
}

TEST(IncrementalAnalyzer, RewindAndRepushStaysBitIdentical) {
  // Interleave pushes with pops/rewinds (the DFS access pattern of the
  // exhaustive optimizer) and check that the final result still exactly
  // matches a from-scratch batch analysis of whatever stage sequence is
  // on the stack at the end.
  sealpaa::prob::SplitMix64 cell_rng(0xe9c1'7e57'0000'0003ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xe9c1'7e57'0000'0004ULL);
  sealpaa::prob::SplitMix64 walk_rng(0xe9c1'7e57'0000'0005ULL);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t width = 4 + static_cast<std::size_t>(trial % 13);
    std::vector<AdderCell> palette;
    for (int c = 0; c < 5; ++c) {
      palette.push_back(random_cell(cell_rng, trial * 10 + c));
    }
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);

    IncrementalAnalyzer inc(profile);
    std::vector<AdderCell> on_stack;
    // Random walk: push when short, rewind to a random depth sometimes.
    while (on_stack.size() < width) {
      if (!on_stack.empty() && walk_rng.next() % 4 == 0) {
        const std::size_t depth = walk_rng.next() % on_stack.size();
        inc.rewind(depth);
        on_stack.erase(on_stack.begin() + static_cast<std::ptrdiff_t>(depth),
                       on_stack.end());
      }
      const AdderCell& cell = palette[walk_rng.next() % palette.size()];
      inc.push_stage(cell);
      on_stack.push_back(cell);
    }
    const AnalysisResult batch =
        RecursiveAnalyzer::analyze(AdderChain(on_stack), profile);
    expect_bit_identical(inc.finish(), batch, "trial " + std::to_string(trial));
  }
}

TEST(IncrementalAnalyzer, ValidatesStackDiscipline) {
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  const AdderCell cell = sealpaa::adders::builtin_lpaas()[0];
  IncrementalAnalyzer inc(profile);
  EXPECT_THROW((void)inc.finish(), std::logic_error);   // not full
  EXPECT_THROW(inc.pop(), std::logic_error);            // empty
  EXPECT_THROW(inc.rewind(1), std::invalid_argument);   // beyond depth
  for (int i = 0; i < 4; ++i) inc.push_stage(cell);
  EXPECT_THROW(inc.push_stage(cell), std::logic_error);  // full
  EXPECT_NO_THROW((void)inc.finish());
  inc.rewind(0);
  EXPECT_EQ(inc.depth(), 0u);
}

TEST(IncrementalAnalyzer, MklCacheDerivesEachDistinctCellOnce) {
  MklCache cache;
  const auto lpaas = sealpaa::adders::builtin_lpaas();
  const InputProfile profile = InputProfile::uniform(8, 0.3);
  IncrementalAnalyzer inc(profile, &cache);
  for (int round = 0; round < 4; ++round) {
    inc.rewind(0);
    for (std::size_t s = 0; s < 8; ++s) {
      inc.push_stage(lpaas[s % lpaas.size()]);
    }
  }
  EXPECT_EQ(cache.size(), lpaas.size());
  EXPECT_EQ(cache.derivations(), lpaas.size());  // never re-derived
}

// ---------------------------------------------------------------------------
// ChainEvaluator: the >=200-chain bit-identity property

TEST(ChainEvaluator, BitIdenticalToBatchAnalyzerOver200RandomChains) {
  sealpaa::prob::SplitMix64 cell_rng(0xc4a1'7e57'0000'0001ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xc4a1'7e57'0000'0002ULL);
  sealpaa::prob::SplitMix64 choice_rng(0xc4a1'7e57'0000'0003ULL);
  int chains_checked = 0;
  for (int config = 0; config < 10; ++config) {
    const std::size_t width = 4 + static_cast<std::size_t>(config % 13);
    const std::size_t palette_size = 4 + static_cast<std::size_t>(config % 5);
    std::vector<AdderCell> palette;
    for (std::size_t c = 0; c < palette_size; ++c) {
      palette.push_back(
          random_cell(cell_rng, config * 100 + static_cast<int>(c)));
    }
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    ChainEvaluator evaluator(profile, palette);

    for (int rep = 0; rep < 25; ++rep) {
      std::vector<std::size_t> choices(width);
      for (std::size_t s = 0; s < width; ++s) {
        choices[s] = choice_rng.next() % palette_size;
      }
      std::vector<AdderCell> stages;
      for (const std::size_t c : choices) stages.push_back(palette[c]);
      const AnalysisResult batch =
          RecursiveAnalyzer::analyze(AdderChain(stages), profile);
      const std::string context = "config " + std::to_string(config) +
                                  " rep " + std::to_string(rep);
      // Cold (first visit caches the prefixes) and warm (served from the
      // cache) evaluations must both be exact.
      expect_bit_identical(evaluator.evaluate(choices), batch, context);
      expect_bit_identical(evaluator.evaluate(choices), batch,
                           context + " (warm)");
      ++chains_checked;
    }
    EXPECT_GT(evaluator.stats().hits, 0u) << "config " << config;
  }
  EXPECT_GE(chains_checked, 200);
}

TEST(ChainEvaluator, FinalSuccessMatchesIncrementalScoringPath) {
  // final_success(prefix, c) is the raw Equation 12 dot product the DSE
  // ranks by — identical to IncrementalAnalyzer::final_success_with.
  sealpaa::prob::SplitMix64 cell_rng(0xc4a1'7e57'0000'0004ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xc4a1'7e57'0000'0005ULL);
  const std::size_t width = 8;
  std::vector<AdderCell> palette;
  for (int c = 0; c < 5; ++c) palette.push_back(random_cell(cell_rng, c));
  const InputProfile profile =
      InputProfile::random(width, profile_rng, 0.05, 0.95);
  ChainEvaluator evaluator(profile, palette);
  MklCache mkls;
  IncrementalAnalyzer inc(profile, &mkls);

  std::vector<std::size_t> prefix;
  for (std::size_t s = 0; s < width - 1; ++s) {
    prefix.push_back(s % palette.size());
    inc.push_stage(palette[prefix.back()]);
  }
  for (std::size_t c = 0; c < palette.size(); ++c) {
    EXPECT_EQ(evaluator.final_success(prefix, c),
              inc.final_success_with(mkls.of(palette[c])))
        << "last choice " << c;
  }
}

// ---------------------------------------------------------------------------
// Cache pathologies

TEST(ChainEvaluator, ZeroCapacityDisablesCachingButStaysExact) {
  sealpaa::prob::SplitMix64 cell_rng(0xc4a1'7e57'0000'0006ULL);
  const std::size_t width = 6;
  std::vector<AdderCell> palette;
  for (int c = 0; c < 3; ++c) palette.push_back(random_cell(cell_rng, c));
  const InputProfile profile = InputProfile::uniform(width, 0.3);
  ChainEvaluator evaluator(profile, palette,
                           ChainEvaluatorOptions{.cache_capacity = 0});

  const std::vector<std::size_t> choices{0, 1, 2, 0, 1, 2};
  std::vector<AdderCell> stages;
  for (const std::size_t c : choices) stages.push_back(palette[c]);
  const AnalysisResult batch =
      RecursiveAnalyzer::analyze(AdderChain(stages), profile);
  for (int rep = 0; rep < 3; ++rep) {
    expect_bit_identical(evaluator.evaluate(choices), batch,
                         "rep " + std::to_string(rep));
  }
  const auto& stats = evaluator.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  // Every stage recomputed every time: width advances per evaluate().
  EXPECT_EQ(stats.stages_computed, 3u * width);
  EXPECT_EQ(stats.chains_evaluated, 3u);
  EXPECT_EQ(evaluator.cache_size(), 0u);
}

TEST(ChainEvaluator, TinyCapacityEvictsLruAndStaysExact) {
  sealpaa::prob::SplitMix64 cell_rng(0xc4a1'7e57'0000'0007ULL);
  sealpaa::prob::SplitMix64 choice_rng(0xc4a1'7e57'0000'0008ULL);
  const std::size_t width = 8;
  std::vector<AdderCell> palette;
  for (int c = 0; c < 4; ++c) palette.push_back(random_cell(cell_rng, c));
  const InputProfile profile = InputProfile::uniform(width, 0.4);
  for (const std::size_t capacity : {1u, 2u, 3u}) {
    ChainEvaluator evaluator(
        profile, palette, ChainEvaluatorOptions{.cache_capacity = capacity});
    for (int rep = 0; rep < 40; ++rep) {
      std::vector<std::size_t> choices(width);
      for (std::size_t s = 0; s < width; ++s) {
        choices[s] = choice_rng.next() % palette.size();
      }
      std::vector<AdderCell> stages;
      for (const std::size_t c : choices) stages.push_back(palette[c]);
      expect_bit_identical(
          evaluator.evaluate(choices),
          RecursiveAnalyzer::analyze(AdderChain(stages), profile),
          "capacity " + std::to_string(capacity) + " rep " +
              std::to_string(rep));
      EXPECT_LE(evaluator.cache_size(), capacity);
    }
    EXPECT_GT(evaluator.stats().evictions, 0u)
        << "capacity " << capacity << " never evicted";
    EXPECT_EQ(evaluator.stats().insertions,
              evaluator.stats().evictions + evaluator.cache_size());
  }
}

TEST(ChainEvaluator, EvictionKeepsMostRecentlyUsedPrefix) {
  // Capacity 2, width 4: evaluating one chain inserts prefixes of depth
  // 1, 2, 3 — depth 1 (least recently used) must be the one evicted, so
  // a re-evaluation still hits the full depth-3 prefix immediately.
  const AdderCell cell = sealpaa::adders::builtin_lpaas()[0];
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  ChainEvaluator evaluator(profile, {cell},
                           ChainEvaluatorOptions{.cache_capacity = 2});
  const std::vector<std::size_t> choices{0, 0, 0, 0};
  (void)evaluator.evaluate(choices);
  EXPECT_EQ(evaluator.stats().insertions, 3u);
  EXPECT_EQ(evaluator.stats().evictions, 1u);  // depth-1 prefix dropped
  EXPECT_EQ(evaluator.cache_size(), 2u);

  (void)evaluator.evaluate(choices);
  // Depth 3 was still cached: exactly one new hit, no new misses.
  EXPECT_EQ(evaluator.stats().hits, 1u);
  EXPECT_EQ(evaluator.stats().misses, 3u);
  EXPECT_EQ(evaluator.stats().evictions, 1u);
}

TEST(ChainEvaluator, CountersMatchHandComputedScenario) {
  // Width 4, ample capacity.  First evaluate({c,c,c,c}): the probe walks
  // depths 3, 2, 1 (3 misses), computes and caches them (3 insertions,
  // 3 advances) and advances the uncached final stage: 4 stages total.
  // Second evaluate: one probe hits depth 3, only the final stage is
  // recomputed.
  const AdderCell cell = sealpaa::adders::builtin_lpaas()[0];
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  ChainEvaluator evaluator(profile, {cell});
  const std::vector<std::size_t> choices{0, 0, 0, 0};

  (void)evaluator.evaluate(choices);
  EXPECT_EQ(evaluator.stats().hits, 0u);
  EXPECT_EQ(evaluator.stats().misses, 3u);
  EXPECT_EQ(evaluator.stats().insertions, 3u);
  EXPECT_EQ(evaluator.stats().evictions, 0u);
  EXPECT_EQ(evaluator.stats().stages_computed, 4u);
  EXPECT_EQ(evaluator.stats().chains_evaluated, 1u);

  (void)evaluator.evaluate(choices);
  EXPECT_EQ(evaluator.stats().hits, 1u);
  EXPECT_EQ(evaluator.stats().misses, 3u);
  EXPECT_EQ(evaluator.stats().insertions, 3u);
  EXPECT_EQ(evaluator.stats().stages_computed, 5u);
  EXPECT_EQ(evaluator.stats().chains_evaluated, 2u);
  EXPECT_DOUBLE_EQ(evaluator.stats().hit_rate(), 0.25);

  evaluator.reset_stats();
  EXPECT_EQ(evaluator.stats().hits, 0u);
  evaluator.clear();
  EXPECT_EQ(evaluator.cache_size(), 0u);
}

TEST(ChainEvaluator, ValidatesArguments) {
  const AdderCell cell = sealpaa::adders::builtin_lpaas()[0];
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  EXPECT_THROW(ChainEvaluator(profile, {}), std::invalid_argument);
  ChainEvaluator evaluator(profile, {cell});
  const std::vector<std::size_t> too_long{0, 0, 0, 0, 0};
  EXPECT_THROW((void)evaluator.carry_after(too_long), std::invalid_argument);
  const std::vector<std::size_t> short_chain{0, 0, 0};
  EXPECT_THROW((void)evaluator.evaluate(short_chain), std::invalid_argument);
  EXPECT_THROW((void)evaluator.final_success(too_long, 0),
               std::invalid_argument);
  const std::vector<std::size_t> bad_choice{0, 0, 0, 1};
  EXPECT_THROW((void)evaluator.evaluate(bad_choice), std::out_of_range);
}

// ---------------------------------------------------------------------------
// ChainEvaluator lane loop (evaluate_batch with the prefix cache off, so
// every lane-stage runs through the lane advance)

TEST(ChainEvaluator, EvaluateBatchBitIdenticalToAnalyzeOver240RandomChains) {
  // 20 configurations x 12 chains = 240 random chains; config*7 mod 29
  // walks widths 4..32 without repeats (7 generates Z/29).
  sealpaa::prob::SplitMix64 cell_rng(0xba7c'40c1'0000'0001ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xba7c'40c1'0000'0002ULL);
  sealpaa::prob::SplitMix64 chain_rng(0xba7c'40c1'0000'0003ULL);
  int total = 0;
  for (int config = 0; config < 20; ++config) {
    const std::size_t width = 4 + static_cast<std::size_t>(config * 7 % 29);
    const std::size_t palette_size = 3 + static_cast<std::size_t>(config % 5);
    std::vector<AdderCell> palette;
    for (std::size_t c = 0; c < palette_size; ++c) {
      palette.push_back(
          random_cell(cell_rng, config * 100 + static_cast<int>(c)));
    }
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    ChainEvaluator evaluator(profile, palette,
                             ChainEvaluatorOptions{.cache_capacity = 0});

    std::vector<std::vector<std::size_t>> chains(12);
    std::vector<std::span<const std::size_t>> spans;
    for (std::vector<std::size_t>& chain : chains) {
      for (std::size_t s = 0; s < width; ++s) {
        chain.push_back(chain_rng.next() % palette_size);
      }
      spans.emplace_back(chain);
    }
    const std::vector<AnalysisResult> results = evaluator.evaluate_batch(spans);
    ASSERT_EQ(results.size(), chains.size());
    for (std::size_t l = 0; l < chains.size(); ++l) {
      std::vector<AdderCell> stages;
      for (const std::size_t c : chains[l]) stages.push_back(palette[c]);
      const AnalysisResult want =
          RecursiveAnalyzer::analyze(AdderChain(stages), profile);
      expect_bit_identical(results[l], want,
                           "config " + std::to_string(config) + " lane " +
                               std::to_string(l) + " width " +
                               std::to_string(width));
      ++total;
    }
  }
  EXPECT_GE(total, 200);
}

TEST(ChainEvaluator, BatchStatsCountBatchesAndLaneStages) {
  const AdderCell cell = sealpaa::adders::builtin_lpaas()[0];
  const InputProfile profile = InputProfile::uniform(6, 0.5);
  ChainEvaluator evaluator(profile, {cell},
                           ChainEvaluatorOptions{.cache_capacity = 0});
  const std::vector<std::size_t> chain(6, 0);
  const std::vector<std::span<const std::size_t>> spans{chain, chain, chain};
  (void)evaluator.evaluate_batch(spans);
  EXPECT_EQ(evaluator.batch_stats().batches, 1u);
  EXPECT_EQ(evaluator.batch_stats().lanes, 3u);
  EXPECT_EQ(evaluator.batch_stats().max_lanes, 3u);
  EXPECT_EQ(evaluator.batch_stats().lane_stages, 3u * 6u);
  evaluator.reset_stats();
  EXPECT_EQ(evaluator.batch_stats().batches, 0u);
}

TEST(ChainEvaluator, EvaluateBatchValidatesArguments) {
  const AdderCell cell = sealpaa::adders::builtin_lpaas()[0];
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  ChainEvaluator evaluator(profile, {cell});
  const std::vector<std::size_t> short_chain{0, 0, 0};
  const std::vector<std::span<const std::size_t>> spans{short_chain};
  EXPECT_THROW((void)evaluator.evaluate_batch(spans), std::invalid_argument);
  const std::vector<std::size_t> bad_choice{0, 0, 0, 1};
  const std::vector<std::span<const std::size_t>> bad{bad_choice};
  EXPECT_THROW((void)evaluator.evaluate_batch(bad), std::out_of_range);
}

// ---------------------------------------------------------------------------
// ChainEvaluator batch entry points (SoA path behind the prefix cache)

TEST(ChainEvaluator, EvaluateBatchBitIdenticalToPerChainEvaluate) {
  // Chains share prefixes on purpose: the batch path must dedup and
  // adopt cached states without changing a single bit of any result.
  sealpaa::prob::SplitMix64 cell_rng(0xba7c'40c1'0000'0021ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xba7c'40c1'0000'0022ULL);
  sealpaa::prob::SplitMix64 chain_rng(0xba7c'40c1'0000'0023ULL);
  const std::size_t width = 12;
  const std::size_t palette_size = 4;
  std::vector<AdderCell> palette;
  for (std::size_t c = 0; c < palette_size; ++c) {
    palette.push_back(random_cell(cell_rng, static_cast<int>(c)));
  }
  const InputProfile profile =
      InputProfile::random(width, profile_rng, 0.05, 0.95);

  std::vector<std::size_t> base;
  for (std::size_t s = 0; s < width; ++s) {
    base.push_back(chain_rng.next() % palette_size);
  }
  std::vector<std::vector<std::size_t>> chains;
  std::vector<std::span<const std::size_t>> spans;
  for (int v = 0; v < 24; ++v) {
    std::vector<std::size_t> chain = base;
    // Mutate a suffix so early prefixes collide across lanes.
    const std::size_t from = chain_rng.next() % width;
    for (std::size_t s = from; s < width; ++s) {
      chain[s] = chain_rng.next() % palette_size;
    }
    chains.push_back(std::move(chain));
  }
  for (const std::vector<std::size_t>& chain : chains) {
    spans.emplace_back(chain);
  }

  ChainEvaluator batched(profile, palette);
  ChainEvaluator sequential(profile, palette);
  const std::vector<AnalysisResult> results = batched.evaluate_batch(spans);
  ASSERT_EQ(results.size(), chains.size());
  for (std::size_t l = 0; l < chains.size(); ++l) {
    expect_bit_identical(results[l], sequential.evaluate(chains[l]),
                         "lane " + std::to_string(l));
  }
  // The SoA counters are the proof the batch actually ran lane-parallel.
  EXPECT_EQ(batched.batch_stats().batches, 1u);
  EXPECT_EQ(batched.batch_stats().lanes, chains.size());
  EXPECT_EQ(batched.batch_stats().max_lanes, chains.size());
  // Shared prefixes mean the batch advanced strictly fewer lane-stages
  // than 24 cache-less evaluations (24 x width) would have, and no more
  // than the sequential evaluator with its own warm prefix cache.
  EXPECT_LT(batched.stats().stages_computed, chains.size() * width);
  EXPECT_LE(batched.stats().stages_computed,
            sequential.stats().stages_computed);
}

TEST(ChainEvaluator, ScoreExtensionsBitIdenticalToPerExtensionPath) {
  // Both the interior (carry advance, cached) and final (Equation 12,
  // uncached) depths must reproduce the historical per-extension scores
  // exactly — this is what keeps the beam DSE bit-identical to the naive
  // recursion after the SoA rewiring.
  sealpaa::prob::SplitMix64 cell_rng(0xba7c'40c1'0000'0031ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xba7c'40c1'0000'0032ULL);
  sealpaa::prob::SplitMix64 chain_rng(0xba7c'40c1'0000'0033ULL);
  const std::size_t width = 10;
  const std::size_t palette_size = 5;
  std::vector<AdderCell> palette;
  for (std::size_t c = 0; c < palette_size; ++c) {
    palette.push_back(random_cell(cell_rng, static_cast<int>(c)));
  }
  const InputProfile profile =
      InputProfile::random(width, profile_rng, 0.05, 0.95);

  for (const std::size_t depth : {std::size_t{4}, width - 1}) {
    std::vector<std::vector<std::size_t>> parents(6);
    for (std::vector<std::size_t>& parent : parents) {
      for (std::size_t s = 0; s < depth; ++s) {
        parent.push_back(chain_rng.next() % palette_size);
      }
    }
    std::vector<ChainEvaluator::Extension> extensions;
    for (std::size_t p = 0; p < parents.size(); ++p) {
      for (std::size_t c = 0; c < palette_size; ++c) {
        extensions.push_back(ChainEvaluator::Extension{
            static_cast<std::uint32_t>(p), static_cast<std::uint8_t>(c)});
      }
    }

    ChainEvaluator batched(profile, palette);
    ChainEvaluator reference(profile, palette);
    const std::vector<double> scores =
        batched.score_extensions(parents, extensions);
    ASSERT_EQ(scores.size(), extensions.size());
    for (std::size_t e = 0; e < extensions.size(); ++e) {
      const std::vector<std::size_t>& parent = parents[extensions[e].parent];
      double want = 0.0;
      if (depth + 1 == width) {
        want = reference.final_success(parent, extensions[e].choice);
      } else {
        std::vector<std::size_t> extended = parent;
        extended.push_back(extensions[e].choice);
        const sealpaa::analysis::CarryState state =
            reference.carry_after(extended);
        want = state.c0 + state.c1;
      }
      EXPECT_EQ(scores[e], want)
          << "depth " << depth << " extension " << e;
    }
  }
}

TEST(ChainEvaluator, ScoreExtensionsValidatesArguments) {
  const AdderCell cell = sealpaa::adders::builtin_lpaas()[0];
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  ChainEvaluator evaluator(profile, {cell});
  const std::vector<std::vector<std::size_t>> full{{0, 0, 0, 0}};
  const std::vector<ChainEvaluator::Extension> one{{0, 0}};
  EXPECT_THROW((void)evaluator.score_extensions(full, one),
               std::invalid_argument);
  const std::vector<std::vector<std::size_t>> ragged{{0, 0}, {0}};
  EXPECT_THROW((void)evaluator.score_extensions(ragged, one),
               std::invalid_argument);
  const std::vector<std::vector<std::size_t>> parents{{0, 0}};
  const std::vector<ChainEvaluator::Extension> bad_parent{{7, 0}};
  EXPECT_THROW((void)evaluator.score_extensions(parents, bad_parent),
               std::out_of_range);
  const std::vector<ChainEvaluator::Extension> bad_choice{{0, 9}};
  EXPECT_THROW((void)evaluator.score_extensions(parents, bad_choice),
               std::out_of_range);
}

// ---------------------------------------------------------------------------
// Kernel override (SEALPAA_FORCE_KERNEL / set_forced_kernel)

TEST(KernelOverride, ProgrammaticCapShadowsEnvironmentAndReArms) {
  const ForcedKernelGuard guard;
  ASSERT_EQ(setenv("SEALPAA_FORCE_KERNEL", "avx2", 1), 0);
  // nullopt re-arms the (cached) environment parse.
  sealpaa::util::set_forced_kernel(std::nullopt);
  EXPECT_EQ(sealpaa::util::forced_kernel(), KernelLevel::kAvx2);
  EXPECT_TRUE(sealpaa::util::kernel_level_allowed(KernelLevel::kScalar));
  EXPECT_TRUE(sealpaa::util::kernel_level_allowed(KernelLevel::kAvx2));
  EXPECT_FALSE(sealpaa::util::kernel_level_allowed(KernelLevel::kAvx512));

  sealpaa::util::set_forced_kernel(KernelLevel::kScalar);
  EXPECT_EQ(sealpaa::util::forced_kernel(), KernelLevel::kScalar);
  EXPECT_FALSE(sealpaa::util::kernel_level_allowed(KernelLevel::kAvx2));

  ASSERT_EQ(unsetenv("SEALPAA_FORCE_KERNEL"), 0);
  sealpaa::util::set_forced_kernel(std::nullopt);
  EXPECT_EQ(sealpaa::util::forced_kernel(), std::nullopt);
  EXPECT_TRUE(sealpaa::util::kernel_level_allowed(KernelLevel::kAvx512));
}

// ---------------------------------------------------------------------------
// Method registry

TEST(MethodRegistry, NamesRoundTripThroughParse) {
  for (const auto& info : sealpaa::engine::all_methods()) {
    EXPECT_EQ(sealpaa::engine::parse_method(info.name), info.method);
    EXPECT_EQ(sealpaa::engine::method_name(info.method), info.name);
  }
  EXPECT_EQ(sealpaa::engine::all_methods().size(), 7u);
  EXPECT_EQ(sealpaa::engine::parse_method("analytic-pmf"),
            sealpaa::engine::Method::kAnalyticPmf);
  EXPECT_EQ(sealpaa::engine::parse_method("block-analytic"),
            sealpaa::engine::Method::kBlockAnalytic);
}

TEST(MethodRegistry, ParseRejectsUnknownNamesListingValidOnes) {
  try {
    (void)sealpaa::engine::parse_method("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("nope"), std::string::npos);
    EXPECT_NE(message.find("recursive"), std::string::npos);
    EXPECT_NE(message.find("monte-carlo"), std::string::npos);
  }
}

TEST(MethodRegistry, ExactEnginesAgreeThroughUniformEvaluate) {
  using sealpaa::engine::Method;
  sealpaa::prob::SplitMix64 cell_rng(0x3e7'0000'0001ULL);
  const AdderCell cell = random_cell(cell_rng, 0);
  const std::size_t width = 6;
  const InputProfile profile = InputProfile::uniform(width, 0.5);
  const AdderChain chain = AdderChain::homogeneous(cell, width);

  const auto recursive =
      sealpaa::engine::evaluate(chain, profile, Method::kRecursive);
  const auto ie =
      sealpaa::engine::evaluate(chain, profile, Method::kInclusionExclusion);
  const auto exhaustive =
      sealpaa::engine::evaluate(chain, profile, Method::kExhaustiveSim);
  const auto weighted =
      sealpaa::engine::evaluate(chain, profile, Method::kWeightedExhaustive);

  EXPECT_NEAR(ie.p_error, recursive.p_error, 1e-12);
  EXPECT_NEAR(exhaustive.p_error, recursive.p_error, 1e-12);
  EXPECT_NEAR(weighted.p_error, recursive.p_error, 1e-12);
  EXPECT_EQ(recursive.work_items, width);
  EXPECT_EQ(ie.work_items, (1ULL << width) - 1);

  sealpaa::engine::EvaluateOptions mc_options;
  mc_options.samples = 200'000;
  const auto mc = sealpaa::engine::evaluate(chain, profile,
                                            Method::kMonteCarlo, mc_options);
  EXPECT_FALSE(mc.stage_failure_ci.empty());
  EXPECT_LE(mc.stage_failure_ci.low, recursive.p_error);
  EXPECT_GE(mc.stage_failure_ci.high, recursive.p_error);
}

TEST(MethodRegistry, ExhaustiveSimRejectsNonUniformProfiles) {
  const AdderCell cell = sealpaa::adders::builtin_lpaas()[0];
  const InputProfile profile = InputProfile::uniform(6, 0.3);
  EXPECT_THROW((void)sealpaa::engine::evaluate(
                   cell, profile, sealpaa::engine::Method::kExhaustiveSim),
               std::invalid_argument);
}

TEST(MethodRegistry, EvaluateValidatesWidthMismatch) {
  const AdderCell cell = sealpaa::adders::builtin_lpaas()[0];
  const AdderChain chain = AdderChain::homogeneous(cell, 4);
  const InputProfile profile = InputProfile::uniform(6, 0.5);
  EXPECT_THROW((void)sealpaa::engine::evaluate(
                   chain, profile, sealpaa::engine::Method::kRecursive),
               std::invalid_argument);
}

}  // namespace
