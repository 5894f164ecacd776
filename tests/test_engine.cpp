// The engine layer's core contract: IncrementalAnalyzer and
// ChainEvaluator are *bit-identical* to RecursiveAnalyzer::analyze —
// EXPECT_EQ on doubles, not EXPECT_NEAR — because they replay the exact
// advance_stage / final_success call sequence from the same base carry.
// Plus the PMF cache's byte budget, evaluate_batch's validation and lane
// accounting, and the method registry's parse/dispatch behaviour.
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
#include "sealpaa/analysis/error_pmf.hpp"
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
using sealpaa::analysis::ErrorPmf;
using sealpaa::analysis::RecursiveAnalyzer;
using sealpaa::engine::ChainEvaluator;
using sealpaa::engine::IncrementalAnalyzer;
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
  for (int trial = 0; trial < 62; ++trial) {
    // Widths 4..16, then the rails: width 1 runs no advance_stage before
    // Equation 12, and width 63.
    const std::size_t width =
        trial < 60 ? 4 + static_cast<std::size_t>(trial % 13)
                   : (trial == 60 ? 1 : 63);
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

    // The chain's own cells are the palette: stage s is palette index s.
    IncrementalAnalyzer inc(profile, stages);
    for (std::size_t s = 0; s < width; ++s) inc.push(s);
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

    IncrementalAnalyzer inc(profile, palette);
    std::vector<AdderCell> on_stack;
    // Random walk: push when short, rewind to a random depth sometimes.
    while (on_stack.size() < width) {
      if (!on_stack.empty() && walk_rng.next() % 4 == 0) {
        const std::size_t depth = walk_rng.next() % on_stack.size();
        inc.rewind(depth);
        on_stack.erase(on_stack.begin() + static_cast<std::ptrdiff_t>(depth),
                       on_stack.end());
      }
      const std::size_t c = walk_rng.next() % palette.size();
      inc.push(c);
      on_stack.push_back(palette[c]);
    }
    const AnalysisResult batch =
        RecursiveAnalyzer::analyze(AdderChain(on_stack), profile);
    expect_bit_identical(inc.finish(), batch, "trial " + std::to_string(trial));
  }
}

TEST(IncrementalAnalyzer, ValidatesStackDiscipline) {
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  const std::vector<AdderCell> palette{sealpaa::adders::builtin_lpaas()[0]};
  EXPECT_THROW(IncrementalAnalyzer(profile, {}), std::invalid_argument);
  IncrementalAnalyzer inc(profile, palette);
  EXPECT_THROW((void)inc.finish(), std::logic_error);   // not full
  EXPECT_THROW(inc.pop(), std::logic_error);            // empty
  EXPECT_THROW(inc.rewind(1), std::invalid_argument);   // beyond depth
  for (int i = 0; i < 4; ++i) inc.push(0);
  EXPECT_THROW(inc.push(0), std::logic_error);  // full
  EXPECT_NO_THROW((void)inc.finish());
  inc.rewind(0);
  EXPECT_EQ(inc.depth(), 0u);
}

TEST(IncrementalAnalyzer, RejectedPushLeavesTheStackUnchanged) {
  // A choice outside the palette.
  const std::vector<AdderCell> lpaas(sealpaa::adders::builtin_lpaas().begin(),
                                     sealpaa::adders::builtin_lpaas().end());
  IncrementalAnalyzer inc(InputProfile::uniform(4, 0.3), lpaas);
  inc.push(2);
  inc.push(6);
  const auto c0 = inc.carry().c0;
  const auto c1 = inc.carry().c1;
  EXPECT_THROW(inc.push(lpaas.size()), std::out_of_range);
  EXPECT_EQ(inc.depth(), 2u);
  EXPECT_EQ(inc.carry().c0, c0);
  EXPECT_EQ(inc.carry().c1, c1);
  inc.push(0);
  EXPECT_THROW((void)inc.final_success_with(lpaas.size()), std::out_of_range);

  // The width-63 rail: the tracked PMF cannot take a 63rd stage (its
  // carry-out weight 2^63 would overflow the signed error).
  const std::vector<AdderCell> exact{sealpaa::adders::accurate()};
  IncrementalAnalyzer tracked(InputProfile::uniform(63, 0.5), exact,
                              /*track_pmf=*/true);
  for (int i = 0; i < 62; ++i) tracked.push(0);
  EXPECT_THROW(tracked.push(0), std::length_error);
  EXPECT_EQ(tracked.depth(), 62u);
  const ErrorPmf pmf = tracked.error_pmf();
  ASSERT_EQ(pmf.support_size(), 1u);
  EXPECT_EQ(pmf.entries()[0].value, 0);
  EXPECT_NEAR(pmf.entries()[0].probability, 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// ChainEvaluator: the >=200-chain bit-identity property

TEST(ChainEvaluator, BitIdenticalToBatchAnalyzerOver200RandomChains) {
  sealpaa::prob::SplitMix64 cell_rng(0xc4a1'7e57'0000'0001ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xc4a1'7e57'0000'0002ULL);
  sealpaa::prob::SplitMix64 choice_rng(0xc4a1'7e57'0000'0003ULL);
  int chains_checked = 0;
  for (int config = 0; config < 12; ++config) {
    // Widths 4..13, then the rails: width 1 runs no advance_stage before
    // Equation 12, and width 63.
    const std::size_t width =
        config < 10 ? 4 + static_cast<std::size_t>(config % 13)
                    : (config == 10 ? 1 : 63);
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
      // A repeat evaluation must be exact too.
      expect_bit_identical(evaluator.evaluate(choices), batch, context);
      expect_bit_identical(evaluator.evaluate(choices), batch,
                           context + " (repeat)");
      ++chains_checked;
    }
  }
  EXPECT_GE(chains_checked, 200);
}

TEST(ChainEvaluator, FinalSuccessMatchesIncrementalScoringPath) {
  // final_success_with(mkl) is the raw Equation 12 dot product the DSE
  // leaves rank by — bit-identical to a from-root analysis of the
  // closed chain.
  sealpaa::prob::SplitMix64 cell_rng(0xc4a1'7e57'0000'0004ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0xc4a1'7e57'0000'0005ULL);
  const std::size_t width = 8;
  std::vector<AdderCell> palette;
  for (int c = 0; c < 5; ++c) palette.push_back(random_cell(cell_rng, c));
  const InputProfile profile =
      InputProfile::random(width, profile_rng, 0.05, 0.95);
  IncrementalAnalyzer inc(profile, palette);

  std::vector<AdderCell> stages;
  for (std::size_t s = 0; s < width - 1; ++s) {
    stages.push_back(palette[s % palette.size()]);
    inc.push(s % palette.size());
  }
  for (std::size_t c = 0; c < palette.size(); ++c) {
    std::vector<AdderCell> chain = stages;
    chain.push_back(palette[c]);
    EXPECT_EQ(inc.final_success_with(c),
              RecursiveAnalyzer::analyze(AdderChain(chain), profile).p_success)
        << "last choice " << c;
  }
}

TEST(ChainEvaluator, ValidatesArguments) {
  const AdderCell cell = sealpaa::adders::builtin_lpaas()[0];
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  EXPECT_THROW(ChainEvaluator(profile, {}), std::invalid_argument);
  ChainEvaluator evaluator(profile, {cell});
  const std::vector<std::size_t> too_long{0, 0, 0, 0, 0};
  EXPECT_THROW((void)evaluator.evaluate(too_long), std::invalid_argument);
  const std::vector<std::size_t> short_chain{0, 0, 0};
  EXPECT_THROW((void)evaluator.evaluate(short_chain), std::invalid_argument);
  const std::vector<std::size_t> bad_choice{0, 0, 0, 1};
  EXPECT_THROW((void)evaluator.evaluate(bad_choice), std::out_of_range);
}

TEST(ChainEvaluator, PmfCacheStaysWithinByteBudget) {
  // The PMF cache keeps finished PMFs of whole chains under a 4 MiB
  // budget (ChainEvaluator's private kPmfCacheBytes).  Width-32 chains
  // shaped like the service fleet's (12 random LPAA stages, exact above)
  // each hold a few thousand entries, so about 70 fit.
  constexpr std::size_t kBudget = std::size_t{4} << 20;
  constexpr std::size_t kWidth = 32;
  constexpr double kP = 0.37;
  const std::span<const AdderCell> lpaas = sealpaa::adders::builtin_lpaas();
  std::vector<AdderCell> palette(lpaas.begin(), lpaas.end());
  palette.push_back(sealpaa::adders::accurate());
  const std::size_t accurate = lpaas.size();
  ChainEvaluator evaluator(InputProfile::uniform(kWidth, kP), palette);
  const auto reference = [&](std::span<const std::size_t> choices) {
    std::vector<AdderCell> stages;
    for (const std::size_t c : choices) stages.push_back(palette[c]);
    return sealpaa::analysis::propagate_error_pmf(
        AdderChain(stages), InputProfile::uniform(choices.size(), kP));
  };

  sealpaa::prob::SplitMix64 rng(0xb7d9'e700'0000'0001ULL);
  std::vector<std::vector<std::size_t>> chains;
  while (evaluator.pmf_stats().evictions < 4) {
    ASSERT_LT(chains.size(), 400u) << "the budget never filled";
    std::vector<std::size_t> choices(kWidth, accurate);
    for (std::size_t i = 0; i < 12; ++i) choices[i] = rng.next() % lpaas.size();
    (void)evaluator.error_pmf(choices);
    chains.push_back(std::move(choices));
    EXPECT_LE(evaluator.pmf_cache_bytes(), kBudget);
  }
  EXPECT_GT(evaluator.pmf_cache_size(), 16u);
  EXPECT_LT(evaluator.pmf_cache_size(), chains.size());

  // The least recently used chain went first: re-querying it is one
  // miss that recomputes every stage, bit-identical to the batch
  // propagation.
  sealpaa::engine::CacheStats before = evaluator.pmf_stats();
  const ErrorPmf evicted = evaluator.error_pmf(chains.front());
  EXPECT_EQ(evaluator.pmf_stats().misses, before.misses + 1);
  EXPECT_EQ(evaluator.pmf_stats().hits, before.hits);
  EXPECT_EQ(evaluator.pmf_stats().stages_computed,
            before.stages_computed + kWidth);
  EXPECT_TRUE(evicted.entries() == reference(chains.front()).entries());
  EXPECT_LE(evaluator.pmf_cache_bytes(), kBudget);

  // The most recent chain is still held: one hit, no stage.
  before = evaluator.pmf_stats();
  const ErrorPmf held = evaluator.error_pmf(chains.back());
  EXPECT_EQ(evaluator.pmf_stats().hits, before.hits + 1);
  EXPECT_EQ(evaluator.pmf_stats().stages_computed, before.stages_computed);
  EXPECT_TRUE(held.entries() == reference(chains.back()).entries());

  // A 20-stage all-LPAA prefix (LPAA7, LPAA5, LPAA7, ...) has an 11 MiB
  // PMF: it is returned exactly but never stored, and evicts nothing.
  std::vector<std::size_t> wide(20);
  for (std::size_t i = 0; i < wide.size(); ++i) wide[i] = i % 2 == 0 ? 6 : 4;
  const std::size_t size_before = evaluator.pmf_cache_size();
  const std::size_t bytes_before = evaluator.pmf_cache_bytes();
  const std::uint64_t evictions_before = evaluator.pmf_stats().evictions;
  const ErrorPmf big = evaluator.error_pmf(wide);
  EXPECT_GT(big.support_size() * sizeof(ErrorPmf::Entry), kBudget);
  EXPECT_TRUE(big.entries() == reference(wide).entries());
  EXPECT_EQ(evaluator.pmf_cache_size(), size_before);
  EXPECT_EQ(evaluator.pmf_cache_bytes(), bytes_before);
  EXPECT_EQ(evaluator.pmf_stats().evictions, evictions_before);

  const sealpaa::engine::CacheStats& stats = evaluator.pmf_stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.chains_evaluated);
  EXPECT_EQ(stats.chains_evaluated, chains.size() + 3);

  evaluator.clear();
  EXPECT_EQ(evaluator.pmf_cache_size(), 0u);
  EXPECT_EQ(evaluator.pmf_cache_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// ChainEvaluator::evaluate_batch (a loop over evaluate, kept for the
// benchmark's lane probe)

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
    ChainEvaluator evaluator(profile, palette);

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
  ChainEvaluator evaluator(profile, {cell});
  const std::vector<std::size_t> chain(6, 0);
  const std::vector<std::span<const std::size_t>> spans{chain, chain, chain};
  (void)evaluator.evaluate_batch(spans);
  EXPECT_EQ(evaluator.batch_stats().lane_stages, 3u * 6u);
  evaluator.reset_stats();
  EXPECT_EQ(evaluator.batch_stats().lane_stages, 0u);
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
