// Keyed pool of ChainEvaluators — the amortizable state behind the
// batch analysis service.
//
// A ChainEvaluator's matrices, operand weights and PMF cache are only
// useful while the (profile, candidate palette) pair stays fixed, but a
// request stream mixes widths and input probabilities.  The pool maps
// each distinct profile to its own evaluator and keeps the most recently
// used ones alive, so consecutive requests against the same profile —
// the common case for a design-sweep client — reuse them instead of
// rebuilding M/K/L matrices and weights.  A repeated analytic-pmf chain
// is answered from the PMF cache without a single propagation stage, and
// each evaluator holds at most 4 MiB of finished PMFs (DESIGN.md
// decision 11).
//
// Single-threaded by design: each service dispatch worker owns one pool
// and evaluates its batch's requests one at a time, acquiring each
// profile's evaluator once per batch.  `acquire` returns shared
// ownership so an evaluator evicted while a batch holds it stays valid
// until the batch completes; its PMF stats stay in the aggregate until
// the pool is its only owner, so work done after the eviction still
// counts.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sealpaa/engine/chain_evaluator.hpp"

namespace sealpaa::engine {

struct EvaluatorPoolOptions {
  /// Most-recently-used evaluators kept alive; older ones are dropped
  /// (their PMF stats are folded into the retired aggregate).  Must be
  /// >= 1.
  std::size_t max_evaluators = 32;
};

class EvaluatorPool {
 public:
  /// `palette` is the fixed candidate cell set shared by every evaluator
  /// (chains are expressed as palette indices).  Throws
  /// std::invalid_argument when the palette is empty or the option
  /// limits are zero.
  explicit EvaluatorPool(std::vector<adders::AdderCell> palette,
                         EvaluatorPoolOptions options = {});

  /// The evaluator for `profile`, constructed on first use.  Marks the
  /// entry most recently used; evicts the least recently used entry
  /// beyond `max_evaluators`.
  [[nodiscard]] std::shared_ptr<ChainEvaluator> acquire(
      const multibit::InputProfile& profile);

  /// Live evaluators currently held.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Evaluators constructed over the pool's lifetime.
  [[nodiscard]] std::uint64_t created() const noexcept { return created_; }
  /// Evaluators dropped by the LRU bound.
  [[nodiscard]] std::uint64_t evicted() const noexcept { return evicted_; }
  /// acquire() calls answered by a live evaluator.
  [[nodiscard]] std::uint64_t pool_hits() const noexcept { return pool_hits_; }

  /// Sum of every evaluator's PMF-cache stats: the live ones, the
  /// evicted ones a caller still holds, and the retired ones.
  [[nodiscard]] CacheStats aggregate_pmf_stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<ChainEvaluator> evaluator;
  };

  [[nodiscard]] static std::string key_of(
      const multibit::InputProfile& profile);
  /// Folds the evicted evaluators only the pool still owns into the
  /// retired PMF stats and drops them.
  void retire_released();

  std::vector<adders::AdderCell> palette_;
  EvaluatorPoolOptions options_;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::vector<std::shared_ptr<ChainEvaluator>> evicted_held_;
  CacheStats retired_pmf_;
  std::uint64_t created_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t pool_hits_ = 0;
};

}  // namespace sealpaa::engine
