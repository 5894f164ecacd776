// Design-space exploration over block-adder partitions: which
// heterogeneous (R_i, P_i) assignment minimises the error objective
// under a latency budget (every sub-adder at most `max_sub_adder_width`
// bits — the carry-chain length the hardware must close timing on)?
//
// Complete designs are scored exactly through
// analysis::BlockErrorModel; the beam ranks *partial* partitions by the
// closed-form independence approximation (each block's mismatch
// marginal depends only on bits below it, so the partial score never
// changes as the partition grows rightward), then re-scores the
// surviving complete designs exactly and returns the true optimum of
// the beam.  The exhaustive search enumerates every feasible partition
// and is the ground truth the beam is validated against.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sealpaa/analysis/block_error.hpp"
#include "sealpaa/explore/hybrid.hpp"
#include "sealpaa/multibit/blocks.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace sealpaa::explore {

struct BlockSearchOptions {
  /// Latency budget: every sub-adder (P_i + R_i, and block 0's R_0)
  /// must fit this many bits.  Must be >= 1.
  int max_sub_adder_width = 8;
  /// Partial partitions kept per position by the beam.
  std::size_t beam_width = 64;
  /// What complete designs are ranked by (kErrorRate, kMed, kMse — the
  /// latter two via the analytic PMF).
  Objective objective = Objective::kErrorRate;
  /// Forwarded to the exact PMF scoring.
  analysis::PmfOptions pmf;
  /// Feasible-design guard for the exhaustive search (throws
  /// std::invalid_argument beyond it).
  std::uint64_t max_designs = 2'000'000;
};

/// A fully evaluated block-partition design.
struct BlockDesign {
  std::vector<multibit::SubBlock> blocks;
  /// The exact objective value the design was ranked by.
  double objective_value = 0.0;
  double p_error = 0.0;
  /// From the design's exact error PMF.  Empty when an error-rate
  /// search's winner has a PMF wider than `BlockSearchOptions::pmf`
  /// allows: the design and its P(E) stand without it.
  std::optional<double> med;
  std::optional<double> mse;
  SearchStats stats;

  [[nodiscard]] multibit::BlockChainSpec spec() const {
    return multibit::BlockChainSpec(blocks);
  }
};

class BlockOptimizer {
 public:
  /// Exact optimum by enumerating every partition whose sub-adders fit
  /// the budget.  Deterministic tie-break: the lexicographically
  /// smallest (R_i, P_i) list wins among equal scores.
  [[nodiscard]] static BlockDesign exhaustive(
      const multibit::InputProfile& profile,
      const BlockSearchOptions& options = {});

  /// Beam search over partitions, LSB to MSB; partials ranked by the
  /// independence-approximation error of their chosen blocks, survivors
  /// scored exactly.  Same tie-break as exhaustive, so
  /// beam(beam_width=inf) == exhaustive.
  [[nodiscard]] static BlockDesign beam(
      const multibit::InputProfile& profile,
      const BlockSearchOptions& options = {});
};

}  // namespace sealpaa::explore
