// The analysis service's per-profile chain evaluator.
//
// The service pools one `ChainEvaluator` per (input profile, cell
// palette) — engine::EvaluatorPool — and answers each recursive or
// analytic-pmf request against it.  Requests name a chain as palette
// indices, and a client sweeping designs repeats long prefixes and whole
// chains, so the evaluator keeps two LRU caches keyed by the
// choice-index string: the success-filtered carry state of every prefix
// it computes, so a repeated or extended chain costs a probe plus the
// stages past the longest cached prefix, and the finished error PMF of
// every whole chain (error_pmf), under a byte budget (DESIGN.md
// decision 11).
//
// Scoring arithmetic is the exact call sequence of
// `RecursiveAnalyzer::analyze` / `propagate_error_pmf`, so results are
// bit-identical to the batch analyzers (enforced by
// tests/test_engine.cpp and tests/test_error_pmf.cpp), and a cache can
// never change a result — only how often stages are recomputed.
//
// The design-space searches (explore/) do not use this class: they walk
// their own path states (DESIGN.md decision 9).  `evaluate_batch` keeps
// a lane loop over whole chains for the benchmark's per-layer probe; each
// lane replays the same advance_stage / final_success calls, so a batch
// is bit-identical to the per-chain path.
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

struct ChainEvaluatorOptions {
  /// Maximum number of prefix carry states kept (LRU eviction beyond
  /// it).  0 disables caching entirely: every query recomputes from bit
  /// 0 and the hit/miss/insertion/eviction counters stay 0.
  std::size_t cache_capacity = std::size_t{1} << 16;
};

/// Exact accounting of the prefix cache's work, reported through
/// sealpaa::obs into the run-report JSON.
struct CacheStats {
  std::uint64_t hits = 0;        // probes answered from the cache
  std::uint64_t misses = 0;      // probes that missed
  std::uint64_t insertions = 0;  // entries stored
  std::uint64_t evictions = 0;   // LRU entries dropped at capacity
  /// Stage advances actually performed — the number the cache exists to
  /// minimise.
  std::uint64_t stages_computed = 0;
  std::uint64_t chains_evaluated = 0;  // chains scored; error_pmf calls

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
  /// Lane-stage advances performed (the lane analogue of
  /// CacheStats::stages_computed).
  std::uint64_t lane_stages = 0;
};

/// Scores chains assembled from a fixed candidate palette under a fixed
/// input profile.  A chain is a vector of candidate indices, least
/// significant stage first.  Not thread-safe: each dispatch worker owns
/// its own pool of evaluators.
class ChainEvaluator {
 public:
  /// Throws std::invalid_argument when `candidates` is empty or holds
  /// more than 255 cells (prefix keys pack choice indices into bytes).
  ChainEvaluator(multibit::InputProfile profile,
                 std::vector<adders::AdderCell> candidates,
                 ChainEvaluatorOptions options = {});

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

  /// Many full chains in one stage-major lane pass: per stage, every
  /// lane first probes the prefix cache at its next depth (so one lane's
  /// freshly cached prefix serves every other lane, within the batch as
  /// well as across calls), lanes sharing a not-yet-cached prefix are
  /// deduplicated so each distinct prefix advances exactly once, and the
  /// remaining lanes advance together.  Element i is bit-identical to
  /// evaluate(chains[i]) — cache adoption only changes how often stages
  /// are recomputed, never a value.  Accounted in stats()
  /// (probes/advances) and batch_stats() (lane stages).
  [[nodiscard]] std::vector<analysis::AnalysisResult> evaluate_batch(
      std::span<const std::span<const std::size_t>> chains);

  /// Finalized error PMF of `choices` (any size up to width(); the
  /// carry-out difference is folded at the prefix depth, so a partial
  /// chain yields its partial-adder error distribution).  A chain held
  /// in the PMF cache is one hit and runs no stage; any other chain is
  /// one miss that propagates every stage from bit 0, keeping only the
  /// current state, and is then stored unless its PMF alone exceeds the
  /// cache's byte budget.  For a full-width chain the result is
  /// identical to propagate_error_pmf on the assembled chain.
  [[nodiscard]] analysis::ErrorPmf error_pmf(
      std::span<const std::size_t> choices);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
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
    stats_ = CacheStats{};
    pmf_stats_ = CacheStats{};
    batch_stats_ = BatchStats{};
  }

  /// Cached prefix states currently held.
  [[nodiscard]] std::size_t cache_size() const noexcept {
    return live_slots_;
  }
  /// Finished PMFs currently held.
  [[nodiscard]] std::size_t pmf_cache_size() const noexcept {
    return pmf_index_.size();
  }
  /// Bytes the held PMFs are charged against the cache's budget.
  [[nodiscard]] std::size_t pmf_cache_bytes() const noexcept {
    return pmf_bytes_;
  }
  /// Drops every cached prefix, carry and PMF (stats are kept).
  void clear();

 private:
  /// Bytes of finished PMFs the PMF cache keeps.  The largest
  /// 16-chain working set of a service load-generator profile is about
  /// 1.25 MB; a PMF charged more than the whole budget is never stored.
  static constexpr std::size_t kPmfCacheBytes = std::size_t{4} << 20;

  // The carry cache is a hand-rolled flat structure because it sits on
  // the request hot path: a recursive request probes once per depth
  // tried and inserts every newly computed prefix, and a node-based
  // unordered_map pays an allocation per insertion plus pointer-chasing
  // per probe.  Here a slot array holds the carry states (key bytes in a
  // parallel pool at slot * stride), an open-addressing index table maps
  // key -> slot, and the LRU list is threaded through the slots as
  // indices — zero allocations at steady state.  Slots are recycled in
  // place on eviction; the index table uses linear probing with
  // backward-shift deletion, so no tombstones accumulate.
  static constexpr std::uint32_t kNil = 0xFFFF'FFFFu;

  struct Slot {
    analysis::CarryState carry;
    std::uint64_t hash = 0;    // of the key bytes; avoids rehash on grow
    std::uint32_t prev = kNil;  // LRU links (head = most recent)
    std::uint32_t next = kNil;
    std::uint32_t len = 0;  // key length in bytes (one per choice index)
  };

  // The PMF cache is deliberately *not* the flat slot structure above:
  // entries are whole sparse PMFs whose propagation dwarfs a map probe,
  // so a node-based LRU (unordered_map over a std::list) is simple and
  // fast enough.
  struct PmfNode {
    std::string key;  // choice-index bytes, as in the carry cache
    analysis::ErrorPmf pmf;
    std::size_t bytes = 0;  // charged against kPmfCacheBytes
  };
  using PmfLru = std::list<PmfNode>;
  using PmfIndex = std::unordered_map<std::string_view, PmfLru::iterator>;

  /// Stores `pmf` as most recently used, evicting from the LRU end until
  /// it fits the budget; a PMF charged more than the budget is skipped.
  void pmf_insert(std::string key, const analysis::ErrorPmf& pmf);

  /// Carry state after `choices`, from the longest cached prefix; every
  /// newly computed prefix state is cached on the way forward.
  [[nodiscard]] analysis::CarryState carry_after(
      std::span<const std::size_t> choices);
  void check_choice(std::size_t choice) const;
  [[nodiscard]] std::string_view key_of(std::uint32_t slot) const noexcept;
  [[nodiscard]] std::uint32_t find_slot(std::string_view key,
                                        std::uint64_t hash) const noexcept;
  void insert_prefix(std::string_view key, std::uint64_t hash,
                     const analysis::CarryState& carry);
  void touch(std::uint32_t slot) noexcept;  // mark most recently used
  void unlink(std::uint32_t slot) noexcept;
  void link_front(std::uint32_t slot) noexcept;
  void table_erase(std::uint32_t slot) noexcept;
  void grow_table();

  multibit::InputProfile profile_;
  std::vector<adders::AdderCell> candidates_;
  std::vector<analysis::MklMatrices> mkls_;
  /// Equation 10's operand factor per stage, built once from profile_.
  std::vector<analysis::OperandWeights> weights_;
  analysis::CarryState base_;  // Equation 5 initial state
  BatchStats batch_stats_;
  std::size_t capacity_;
  std::size_t key_stride_;  // bytes reserved per slot in key_pool_
  std::vector<char> key_scratch_;
  std::vector<std::uint64_t> hash_scratch_;  // probe hashes, reused on insert

  std::vector<Slot> slots_;           // grows lazily up to capacity_
  std::vector<char> key_pool_;        // slot i's key at i * key_stride_
  std::vector<std::uint32_t> table_;  // open addressing; kNil = empty
  std::size_t live_slots_ = 0;
  std::uint32_t lru_head_ = kNil;
  std::uint32_t lru_tail_ = kNil;
  CacheStats stats_;

  PmfLru pmf_lru_;  // front = most recently used
  PmfIndex pmf_index_;
  std::size_t pmf_bytes_ = 0;
  CacheStats pmf_stats_;
};

}  // namespace sealpaa::engine
