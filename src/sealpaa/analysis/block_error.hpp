// Exact error statistics for block-based approximate adders.
//
// A block adder errs exactly when some block's predicted carry-in
// (computed from its P_i-bit window with carry-in 0) differs from the
// true carry at that position.  BlockErrorModel conditions every
// block's error contribution on that true-vs-predicted carry event the
// way Wu et al. (arXiv:1703.03522) do — but exactly, by sweeping one
// joint-carry DP across the operand bits:
//
//   state = (exact carry, carry of every live prediction window),
//
// at most 2^(1 + kMaxLiveWindows) states.  Two quantities fall out of
// the same sweep:
//
//   * error rate — checked at each block's first result bit, where the
//     predicted and exact carries either agree (and then agree for the
//     rest of the block: both advance through the same majority
//     recurrence on the same operand bits) or the whole block is wrong;
//     mismatched mass is dropped and the lost mass is P(Error);
//   * the full signed-error PMF — one sparse `ErrorPmf` per joint
//     state, each result bit of a mispredicted block mixing in its
//     delta (s_approx - s_exact) * 2^j and the final carry-out
//     difference folding in as (c_approx - c_exact) * 2^N, giving
//     MED/MSE/WCE/PSNR with zero simulation samples.
//
// Per-block mismatch marginals have a closed form (true carry at the
// window start AND every window bit propagates) that the sweep also
// reports, together with the independence approximation
// 1 - prod(1 - mismatch_i) for comparison against the exact rate.
#pragma once

#include <vector>

#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/multibit/blocks.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace sealpaa::analysis {

struct BlockAnalysisOptions {
  /// Support safety rail forwarded to the PMF mixtures.
  PmfOptions pmf;
  /// Skip the PMF propagation (error rate and marginals only) — the
  /// DSE inner loop uses this to stay cheap.
  bool compute_pmf = true;
};

struct BlockAnalysis {
  /// Exact P(approx output != exact output), carry-out included — the
  /// surviving-mass complement of the conditioning DP.
  double p_error = 0.0;
  /// 1 - prod(1 - mismatch_i): exact only if block mispredictions were
  /// independent, which shared carry history makes them not.
  double p_error_independent_approx = 0.0;
  /// Exact P(block i's predicted carry != true carry), one entry per
  /// block; block 0 has no prediction so entry 0 is 0.
  std::vector<double> block_mismatch;
  /// Exact signed-error PMF (empty when compute_pmf was false).
  ErrorPmf pmf;
};

/// P(exact carry into bit j = 1) for j = 0..n under `profile`, from a
/// carry-in that is 1 with probability `p_cin` (GeAr fixes it to 0;
/// BlockErrorModel passes profile.p_cin()).  Entry n is the carry-out.
[[nodiscard]] std::vector<double> exact_carry_probabilities(
    const multibit::InputProfile& profile, double p_cin);

/// Closed-form mismatch of a prediction window over bits
/// [window_start, result_start): the exact carry into window_start is 1
/// (`carry_at` from exact_carry_probabilities) and every window bit
/// propagates (a XOR b).  Exact, because that carry depends only on
/// lower bits.
[[nodiscard]] double window_mismatch(const multibit::InputProfile& profile,
                                     const std::vector<double>& carry_at,
                                     int window_start, int result_start);

class BlockErrorModel {
 public:
  /// Analyzes `spec` under `profile` (profile width must equal
  /// spec.n(); the carry-in probability feeds block 0 and the exact
  /// reference alike).  O(N * 2^(1+live) * support).
  [[nodiscard]] static BlockAnalysis analyze(
      const multibit::BlockChainSpec& spec,
      const multibit::InputProfile& profile,
      const BlockAnalysisOptions& options = {});

  /// Ground-truth oracle: enumerates every (a, b, cin) assignment
  /// weighted by the profile and histograms the signed error through
  /// the functional BlockAdder.  O(4^N); throws past `max_width`.
  [[nodiscard]] static ErrorPmf exhaustive_pmf(
      const multibit::BlockChainSpec& spec,
      const multibit::InputProfile& profile, std::size_t max_width = 12);
};

}  // namespace sealpaa::analysis
