// The analysis service's per-profile chain evaluator.
//
// The service pools one `ChainEvaluator` per (input profile, cell
// palette) — engine::EvaluatorPool — and answers each recursive or
// analytic-pmf request against it.  Requests name a chain as palette
// indices.  The evaluator holds what one profile needs: each palette
// cell's M/K/L matrices, the profile's per-stage operand weights, and an
// LRU of the finished error PMFs of whole chains (error_pmf), keyed by
// the choice-index string under a byte budget.  A recursive request runs
// the paper's O(N) carry recursion from bit 0 each time: a stage costs
// tens of nanoseconds, so there is nothing worth caching (DESIGN.md
// decision 11).
//
// A recursive request is the exact call sequence of
// `RecursiveAnalyzer::analyze`, and a PMF-cache miss calls
// `propagate_error_pmf` itself (on a prefix of the profile for a partial
// chain), so results are bit-identical to the batch analyzers (enforced
// by tests/test_engine.cpp and tests/test_error_pmf.cpp), and the PMF
// cache can never change a result — only how often chains propagate.
//
// The design-space searches (explore/) do not use this class: they walk
// their own path states (DESIGN.md decision 9).  `evaluate_batch` is a
// loop over evaluate() kept for the benchmark's per-layer probe.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/analysis/mkl.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace sealpaa::engine {

/// Exact accounting of the PMF cache's work, reported through
/// sealpaa::obs into the run-report JSON.
struct CacheStats {
  std::uint64_t hits = 0;        // probes answered from the cache
  std::uint64_t misses = 0;      // probes that missed
  std::uint64_t insertions = 0;  // entries stored
  std::uint64_t evictions = 0;   // LRU entries dropped over the budget
  /// Stages of the chains propagated on misses — the number the cache
  /// exists to minimise.
  std::uint64_t stages_computed = 0;
  std::uint64_t chains_evaluated = 0;  // error_pmf calls

  /// hits / (hits + misses); 0 when no probe has happened yet.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t probes = hits + misses;
    return probes == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(probes);
  }

  void merge(const CacheStats& other) noexcept {
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    stages_computed += other.stages_computed;
    chains_evaluated += other.chains_evaluated;
  }
};

/// Lane accounting of evaluate_batch.
struct BatchStats {
  /// Stage advances performed: width() per chain.
  std::uint64_t lane_stages = 0;
};

/// Scores chains assembled from a fixed candidate palette under a fixed
/// input profile.  A chain is a vector of candidate indices, least
/// significant stage first.  Not thread-safe: each dispatch worker owns
/// its own pool of evaluators.
class ChainEvaluator {
 public:
  /// Throws std::invalid_argument when `candidates` is empty or holds
  /// more than 255 cells (PMF cache keys pack choice indices into bytes).
  ChainEvaluator(multibit::InputProfile profile,
                 std::vector<adders::AdderCell> candidates);

  [[nodiscard]] std::size_t width() const noexcept {
    return profile_.width();
  }
  [[nodiscard]] std::size_t candidate_count() const noexcept {
    return candidates_.size();
  }
  [[nodiscard]] const multibit::InputProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] const adders::AdderCell& candidate(std::size_t c) const {
    return candidates_.at(c);
  }
  [[nodiscard]] const analysis::MklMatrices& mkl(std::size_t c) const {
    return mkls_.at(c);
  }

  /// Full analysis of a complete chain (choices.size() == width()).
  /// Bit-identical to `RecursiveAnalyzer::analyze` on the same cells.
  [[nodiscard]] analysis::AnalysisResult evaluate(
      std::span<const std::size_t> choices);

  /// evaluate() of every chain, after checking them all: a bad chain
  /// throws before any is evaluated.  Accounted in batch_stats().
  [[nodiscard]] std::vector<analysis::AnalysisResult> evaluate_batch(
      std::span<const std::span<const std::size_t>> chains);

  /// Finalized error PMF of `choices` (any size up to width(); the
  /// carry-out difference is folded at the prefix depth, so a partial
  /// chain yields its partial-adder error distribution).  A chain held
  /// in the PMF cache is one hit and runs no stage; any other chain is
  /// one miss, counted as choices.size() stages, that calls
  /// propagate_error_pmf on the assembled chain under the profile's
  /// first choices.size() bits, and is then stored unless its PMF alone
  /// exceeds the cache's byte budget.
  [[nodiscard]] analysis::ErrorPmf error_pmf(
      std::span<const std::size_t> choices);

  /// Lane accounting (evaluate_batch).
  [[nodiscard]] const BatchStats& batch_stats() const noexcept {
    return batch_stats_;
  }
  /// PMF-cache accounting: one probe per error_pmf call, so hits +
  /// misses == chains_evaluated.
  [[nodiscard]] const CacheStats& pmf_stats() const noexcept {
    return pmf_stats_;
  }
  void reset_stats() noexcept {
    pmf_stats_ = CacheStats{};
    batch_stats_ = BatchStats{};
  }

  /// Finished PMFs currently held.
  [[nodiscard]] std::size_t pmf_cache_size() const noexcept {
    return pmf_index_.size();
  }
  /// Bytes the held PMFs are charged against the cache's budget.
  [[nodiscard]] std::size_t pmf_cache_bytes() const noexcept {
    return pmf_bytes_;
  }
  /// Drops every cached PMF (stats are kept).
  void clear();

 private:
  /// Bytes of finished PMFs the PMF cache keeps.  The largest
  /// 16-chain working set of a service load-generator profile is about
  /// 1.25 MB; a PMF charged more than the whole budget is never stored.
  static constexpr std::size_t kPmfCacheBytes = std::size_t{4} << 20;

  // A node-based LRU (unordered_map over a std::list): entries are whole
  // sparse PMFs whose propagation dwarfs a map probe.
  struct PmfNode {
    std::string key;  // one byte per choice index
    analysis::ErrorPmf pmf;
    std::size_t bytes = 0;  // charged against kPmfCacheBytes
  };
  using PmfLru = std::list<PmfNode>;
  using PmfIndex = std::unordered_map<std::string_view, PmfLru::iterator>;

  /// Stores `pmf` as most recently used, evicting from the LRU end until
  /// it fits the budget; a PMF charged more than the budget is skipped.
  void pmf_insert(std::string key, const analysis::ErrorPmf& pmf);

  void check_choice(std::size_t choice) const;
  /// Throws unless `choices` is a full-width chain of valid indices.
  void check_chain(std::span<const std::size_t> choices,
                   const char* caller) const;

  multibit::InputProfile profile_;
  std::vector<adders::AdderCell> candidates_;
  std::vector<analysis::MklMatrices> mkls_;
  /// Equation 10's operand factor per stage, built once from profile_.
  std::vector<analysis::OperandWeights> weights_;
  analysis::CarryState base_;  // Equation 5 initial state
  BatchStats batch_stats_;

  PmfLru pmf_lru_;  // front = most recently used
  PmfIndex pmf_index_;
  std::size_t pmf_bytes_ = 0;
  CacheStats pmf_stats_;
};

}  // namespace sealpaa::engine
