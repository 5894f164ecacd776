// Prefix-cached chain scoring for design-space exploration.
//
// DSE algorithms (exhaustive, beam, greedy) score thousands of candidate
// chains drawn from a small cell palette, and consecutive candidates
// share long prefixes.  `ChainEvaluator` memoizes the success-filtered
// carry state of every prefix it computes in an LRU cache keyed by the
// choice-index string, so extending a partial design by one stage costs
// one cache probe plus one `advance_stage` — O(1) per candidate stage —
// instead of re-running the recursion from bit 0.
//
// Scoring arithmetic is the exact call sequence of
// `RecursiveAnalyzer::analyze`, so `evaluate()` is bit-identical to the
// batch analyzer (enforced by tests/test_engine.cpp), and the cache can
// never change a result — only how often stages are recomputed.
//
// Search frontiers (`score_extensions`, and `evaluate_batch` over
// whole chains) advance many chains stage by stage as lanes.  Each lane
// replays the same advance_stage / final_success calls, so a batch is
// bit-identical to the per-chain path (DESIGN.md decision 9: one strict
// lane path).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
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
  /// Maximum number of prefix error-PMF states kept by the PMF prefix
  /// cache (pmf_state_after / error_pmf).  PMF states are far heavier
  /// than carry states — four sparse distributions each — so the default
  /// is correspondingly smaller.  0 disables PMF caching.
  std::size_t pmf_cache_capacity = std::size_t{1} << 12;
  /// Representation/switchover knobs for the PMF propagation.
  analysis::PmfOptions pmf;
};

/// Exact accounting of the prefix cache's work, reported through
/// sealpaa::obs into the run-report JSON.
struct CacheStats {
  std::uint64_t hits = 0;        // probes answered from the cache
  std::uint64_t misses = 0;      // probes (one per depth tried) that missed
  std::uint64_t insertions = 0;  // prefix states stored
  std::uint64_t evictions = 0;   // LRU entries dropped at capacity
  /// advance_stage calls actually performed — the number the cache
  /// exists to minimise.
  std::uint64_t stages_computed = 0;
  std::uint64_t chains_evaluated = 0;  // full evaluate() calls

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

/// Lane accounting of evaluate_batch / score_extensions, reported in the
/// search run reports — the counters that prove evaluation ran
/// lane-parallel.
struct BatchStats {
  std::uint64_t batches = 0;    // batch operations submitted
  std::uint64_t lanes = 0;      // total lanes across those batches
  std::uint64_t max_lanes = 0;  // widest single batch
  /// Lane-stage advances performed (the lane analogue of
  /// CacheStats::stages_computed).
  std::uint64_t lane_stages = 0;

  void merge(const BatchStats& other) noexcept {
    batches += other.batches;
    lanes += other.lanes;
    max_lanes = max_lanes < other.max_lanes ? other.max_lanes : max_lanes;
    lane_stages += other.lane_stages;
  }
};

/// Scores chains assembled from a fixed candidate palette under a fixed
/// input profile.  A chain is a vector of candidate indices, least
/// significant stage first.  Not thread-safe; use one per thread.
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

  /// Success-filtered carry state after the stages of `choices`
  /// (size() may be 0..width()).  Served from the longest cached prefix;
  /// any newly computed prefix states are cached on the way forward.
  [[nodiscard]] analysis::CarryState carry_after(
      std::span<const std::size_t> choices);

  /// P(Success) of the full chain `prefix + [last_choice]` (Equation
  /// 12).  Requires prefix.size() == width() - 1.  Raw dot product, no
  /// clamping — the quantity DSE comparisons rank by.
  [[nodiscard]] double final_success(std::span<const std::size_t> prefix,
                                     std::size_t last_choice);

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
  /// (probes/advances) and batch_stats() (lanes).
  [[nodiscard]] std::vector<analysis::AnalysisResult> evaluate_batch(
      std::span<const std::span<const std::size_t>> chains);

  /// One frontier expansion of a beam/greedy DSE round: every extension
  /// (parents[e.parent] + [e.choice]) scored in a single lane batch.
  /// All parents must share one depth d; when d + 1 == width()
  /// the scores are Equation-12 final success values (nothing cached,
  /// like final_success), otherwise the advanced carry's success mass,
  /// with each advanced state inserted into the prefix cache exactly as
  /// the per-extension carry_after path would.  Scores are bit-identical
  /// to the per-extension calls (same per-lane call sequence).
  struct Extension {
    std::uint32_t parent = 0;  // index into `parents`
    std::uint8_t choice = 0;   // candidate index for the new stage
  };
  [[nodiscard]] std::vector<double> score_extensions(
      std::span<const std::vector<std::size_t>> parents,
      std::span<const Extension> extensions);

  /// Joint-carry error-PMF state after the stages of `choices`, served
  /// from the longest cached PMF prefix (its own LRU cache, accounted in
  /// pmf_stats()).  The returned state is shared with the cache — treat
  /// it as immutable; copy before calling advance_error_pmf on it.
  [[nodiscard]] std::shared_ptr<const analysis::ErrorPmfState>
  pmf_state_after(std::span<const std::size_t> choices);

  /// Finalized error PMF of `choices` (any size up to width(); the
  /// carry-out difference is folded at the prefix depth, so a partial
  /// chain yields its partial-adder error distribution).  For a
  /// full-width chain this is identical to propagate_error_pmf on the
  /// assembled chain; prefix reuse only changes how often stages are
  /// recomputed, never the result (mixture accumulation order is a
  /// function of the choice sequence alone).
  [[nodiscard]] analysis::ErrorPmf error_pmf(
      std::span<const std::size_t> choices);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  /// Lane accounting (evaluate_batch / score_extensions).
  [[nodiscard]] const BatchStats& batch_stats() const noexcept {
    return batch_stats_;
  }
  /// PMF prefix-cache accounting (stages_computed counts
  /// advance_error_pmf calls, chains_evaluated counts error_pmf calls).
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
  /// Cached PMF prefix states currently held.
  [[nodiscard]] std::size_t pmf_cache_size() const noexcept {
    return pmf_index_.size();
  }
  /// Drops every cached prefix, carry and PMF (stats are kept).
  void clear();

 private:
  // The cache is a hand-rolled flat structure because it sits on the DSE
  // hot path: a beam search does one probe-miss, one probe-hit and one
  // insertion per candidate stage, and a node-based unordered_map pays
  // an allocation per insertion plus pointer-chasing per probe.  Here a
  // slot array holds the carry states (key bytes in a parallel pool at
  // slot * stride), an open-addressing index table maps key -> slot, and
  // the LRU list is threaded through the slots as indices — zero
  // allocations at steady state.  Slots are recycled in place on
  // eviction; the index table uses linear probing with backward-shift
  // deletion, so no tombstones accumulate.
  static constexpr std::uint32_t kNil = 0xFFFF'FFFFu;

  struct Slot {
    analysis::CarryState carry;
    std::uint64_t hash = 0;    // of the key bytes; avoids rehash on grow
    std::uint32_t prev = kNil;  // LRU links (head = most recent)
    std::uint32_t next = kNil;
    std::uint32_t len = 0;  // key length in bytes (one per choice index)
  };

  // The PMF cache is deliberately *not* the flat slot structure above:
  // PMF states are heavyweight (four sparse vectors) and the PMF
  // propagation itself dwarfs a map probe, so a node-based LRU
  // (unordered_map over a std::list) is simple and fast enough.
  struct PmfNode {
    std::string key;  // choice-index bytes, as in the carry cache
    std::shared_ptr<const analysis::ErrorPmfState> state;
  };
  using PmfLru = std::list<PmfNode>;

  void pmf_insert(std::string_view key,
                  std::shared_ptr<const analysis::ErrorPmfState> state);

  /// The lane loop behind evaluate_batch and score_extensions: out[j]
  /// is lane in[parents[j]] advanced through `stage` with candidate
  /// choices[j] — per lane the advance_stage call carry_after makes.
  void advance_lanes(std::size_t stage,
                     std::span<const analysis::CarryState> in,
                     std::span<const std::uint32_t> parents,
                     std::span<const std::uint8_t> choices,
                     std::vector<analysis::CarryState>& out);
  void note_batch(std::size_t lanes) noexcept;

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
  std::vector<analysis::CarryState> lane_scratch_;  // advance_lanes output
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

  std::size_t pmf_capacity_;
  analysis::PmfOptions pmf_options_;
  PmfLru pmf_lru_;  // front = most recently used
  std::unordered_map<std::string_view, PmfLru::iterator> pmf_index_;
  CacheStats pmf_stats_;
};

}  // namespace sealpaa::engine
