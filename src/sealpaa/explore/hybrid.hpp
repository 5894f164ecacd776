// Hybrid multi-stage adder design-space exploration.
//
// The paper (§5) observes that different LPAAs win in different input-
// probability regimes (LPAA7 for mostly-0 bits, LPAA1 for mostly-1 bits,
// LPAA6 everywhere) and proposes using its fast analysis to pick a
// per-stage mix — "an optimal design of a multistage hybrid adder ...
// based on more than one type of LPAA".  This module implements that
// search: exhaustive (exact optimum, small widths), beam search (wide
// adders) and a greedy per-stage heuristic, optionally under power/area
// budgets built from the Table 2 characteristics.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "sealpaa/adders/cell.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace sealpaa::explore {

/// Optional resource budgets for the search.  A candidate cell without
/// power (resp. area) data is rejected whenever the corresponding budget
/// is set.
struct DesignConstraints {
  std::optional<double> max_power_nw;
  std::optional<double> max_area_ge;
};

/// What the search minimises.
enum class Objective {
  kErrorRate,  // P(Error), the paper's stage-success event ("err")
  kMed,        // mean error distance E[|err|] via the analytic PMF
  kMse,        // mean squared error E[err^2] via the analytic PMF
};

/// Stable CLI name ("err", "med", "mse").
[[nodiscard]] std::string_view objective_name(Objective objective);
/// Parses a CLI objective name; throws std::invalid_argument listing the
/// valid names.
[[nodiscard]] Objective parse_objective(std::string_view name);

/// Execution accounting of one optimizer run — what the observability
/// layer reports for the DSE: how much of the space was scored, how much
/// the constraints pruned, and how many stages the prefix reuse left to
/// compute.
/// Wall-clock timing is *not* recorded here: call sites wrap the search
/// in an obs::ScopedTimer so DSE timings land in the run-report through
/// the same channel as every other phase.
struct SearchStats {
  /// Complete designs scored (exhaustive) or partial expansions
  /// considered (beam/greedy).
  std::uint64_t candidates_evaluated = 0;
  /// Candidates discarded by power/area constraints before scoring.
  std::uint64_t candidates_rejected = 0;
  /// Prefix-cache probes answered / missed.  0 for every optimizer
  /// (each carries its own path states); kept for the frozen benchmark
  /// and checkpoint v1.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Stage advances actually performed: carry advance_stage calls, or
  /// error-PMF stages for med/mse.  Without prefix reuse this would be
  /// ~candidates_evaluated * width; the beam spends at most one per
  /// scored expansion, branch-and-bound one per path push.
  std::uint64_t stages_computed = 0;
  /// SoA lane-batch accounting.  0 for every optimizer; kept for the
  /// frozen benchmark and checkpoint v1.
  std::uint64_t soa_batches = 0;
  std::uint64_t soa_lanes = 0;
  std::uint64_t soa_max_lanes = 0;
  /// Branch-and-bound accounting (explore/branch_bound.hpp; zero for the
  /// other optimizers).  nodes_expanded counts tree nodes whose children
  /// were generated after surviving the admissible-bound test;
  /// bound_cutoffs counts the prune events and nodes_pruned the leaves
  /// those cutoffs skipped (saturating at UINT64_MAX for astronomically
  /// large subtrees); steal_count counts successful work-steal
  /// operations between workers (always 0 single-threaded).
  std::uint64_t nodes_expanded = 0;
  std::uint64_t nodes_pruned = 0;
  std::uint64_t bound_cutoffs = 0;
  std::uint64_t steal_count = 0;
};

/// A fully evaluated hybrid design.
struct HybridDesign {
  std::vector<adders::AdderCell> stages;
  double p_error = 1.0;
  double p_success = 0.0;
  /// The objective the search ranked designs by.
  Objective objective = Objective::kErrorRate;
  /// Analytic distribution metrics of the winning design (error-PMF
  /// propagation); nullopt only when the PMF support guard tripped.
  std::optional<double> med;
  std::optional<double> mse;
  std::optional<std::int64_t> wce;
  std::optional<double> power_nw;  // nullopt when any stage lacks data
  std::optional<double> area_ge;
  SearchStats stats;  // filled by the optimizer that produced the design

  [[nodiscard]] multibit::AdderChain chain() const {
    return multibit::AdderChain(stages);
  }
};

class HybridOptimizer {
 public:
  /// Exact optimum by enumerating all |candidates|^N chains.  Guarded by
  /// `max_combinations` (std::invalid_argument beyond it).  Each shard
  /// walks its assignments as a depth-first trie over an
  /// engine::IncrementalAnalyzer, rewinding only the stages that changed
  /// between consecutive designs, so shared prefixes are advanced once —
  /// amortized O(1) stages per design instead of O(N).  Shards run
  /// concurrently on a thread pool (`threads == 0` → the shared pool);
  /// ties are broken by the lowest design index in the historical
  /// stage-0-fastest enumeration order, so the winner is independent of
  /// both the thread count and the internal walk order.
  /// Every objective runs the same walk over palette indices: err closes
  /// each leaf with Equation 12 without pushing it; with kMed/kMse the
  /// analyzer also tracks the error-PMF state, and each leaf is pushed,
  /// scored on the analytic metric and popped.  Exact metric ties still
  /// break to the lowest historical design index.
  [[nodiscard]] static HybridDesign exhaustive(
      const multibit::InputProfile& profile,
      std::span<const adders::AdderCell> candidates,
      const DesignConstraints& constraints = {},
      std::uint64_t max_combinations = 50'000'000, unsigned threads = 0,
      Objective objective = Objective::kErrorRate);

  /// Provably-optimal branch-and-bound over the same space — the
  /// *quality* mode, replacing exhaustive() as the way to get the exact
  /// optimum (same winner, bit-identical score, typically well over 10x
  /// fewer nodes) and demoting beam()/greedy() to fast preview modes.
  /// Convenience forwarder over explore::BranchBoundOptimizer::optimize
  /// with default options (seeded incumbent, no checkpointing);
  /// use the optimizer directly for checkpoint/resume and suspension.
  /// Defined in branch_bound.cpp.
  [[nodiscard]] static HybridDesign branch_bound(
      const multibit::InputProfile& profile,
      std::span<const adders::AdderCell> candidates,
      const DesignConstraints& constraints = {},
      Objective objective = Objective::kErrorRate, unsigned threads = 0);

  /// Beam search keeping the `beam_width` best (carry-state, budget)
  /// partial designs per stage, scored by remaining success mass.
  /// NOTE: beam and greedy are *fast preview* modes — they carry no
  /// optimality guarantee; branch_bound() is the quality mode.
  /// Each surviving partial carries its own carry state (Equation 5 at
  /// the root), so an extension costs one advance_stage from its parent
  /// — or Equation 12's final_success at the last stage — instead of a
  /// re-analysis of the prefix; scores are bit-identical to analyzing
  /// every partial design from bit 0.  With `objective` kMed/kMse each
  /// partial carries its joint-carry error-PMF state instead, and an
  /// extension costs one next_error_pmf_state plus a finalize to rank it
  /// by its prefix PMF's metric.  stats.stages_computed counts the
  /// advances (Equation 12 closes an err chain without one), so it never
  /// exceeds candidates_evaluated.
  [[nodiscard]] static HybridDesign beam(
      const multibit::InputProfile& profile,
      std::span<const adders::AdderCell> candidates,
      const DesignConstraints& constraints = {}, std::size_t beam_width = 64,
      Objective objective = Objective::kErrorRate);

  /// Greedy: each stage picks the cell optimising the post-stage score
  /// (success mass, or the prefix PMF metric for kMed/kMse).  Fast
  /// baseline for the ablation bench.
  [[nodiscard]] static HybridDesign greedy(
      const multibit::InputProfile& profile,
      std::span<const adders::AdderCell> candidates,
      const DesignConstraints& constraints = {},
      Objective objective = Objective::kErrorRate);
};

}  // namespace sealpaa::explore
