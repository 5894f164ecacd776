// GeAr — the Generic Accuracy-configurable low-latency adder of Shafique
// et al. [17] (paper §2.2, Figure 2).
//
// An N-bit GeAr(N, R, P) splits the addition into k = (N-L)/R + 1
// sub-adders of length L = R + P.  Sub-adder i adds operand bits
// [iR, iR+L-1] with carry-in 0; block 0 contributes all L result bits,
// every later block contributes its top R bits.  The carry chain is thus
// cut to L bits — lower latency, occasionally wrong sums.
//
// The paper claims (§1.1) that its recursive style of analysis also
// covers such LLAAs without inclusion-exclusion.  `GearAnalyzer`
// demonstrates that with two O(N) dynamic programs over the joint (exact
// carry, live window carries) state: the failure-count DP of
// correction.hpp, whose zero-failure mass is the exact success
// probability of the accurate-cell GeAr, and the cell-driven DP of
// `analyze_with_cell` for sub-adders built from any cell.  A closed-form
// per-block model with an independence approximation (the GeAr paper's
// own estimate) is provided for comparison, and exhaustive simulation
// for validation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sealpaa/multibit/blocks.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/sim/metrics.hpp"

namespace sealpaa::gear {

/// A validated GeAr configuration.  R need not divide N - L: a ragged
/// tail is handled by clamping the final sub-adder's window to end at
/// bit N (it keeps its L input bits and contributes the remaining
/// result bits), matching heterogeneous-block hardware.
class GearConfig {
 public:
  /// Throws std::invalid_argument unless 1 <= R, 0 <= P, L = R+P <= N,
  /// and N <= 63.
  GearConfig(int n, int r, int p);

  /// The Almost Correct Adder of Kahng & Kang [10]: each result bit sees
  /// a K-bit carry window — ACA(N, K) = GeAr(N, 1, K-1) [17].
  [[nodiscard]] static GearConfig aca(int n, int k) {
    return GearConfig(n, 1, k - 1);
  }

  /// ETAII (error-tolerant adder type II): equal-size non-overlapping
  /// result segments with X-bit carry lookahead — ETAII(N, X) =
  /// GeAr(N, X, X) [17].
  [[nodiscard]] static GearConfig etaii(int n, int x) {
    return GearConfig(n, x, x);
  }

  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] int r() const noexcept { return r_; }
  [[nodiscard]] int p() const noexcept { return p_; }
  [[nodiscard]] int l() const noexcept { return r_ + p_; }
  /// Number of sub-adder blocks, k = ceil((N-L)/R) + 1 (1 when N == L).
  [[nodiscard]] int blocks() const noexcept;
  /// Worst-case carry-chain length (the latency proxy): L bits.
  [[nodiscard]] int critical_path_bits() const noexcept { return l(); }

  /// Window start bit of block `i`: min(iR, N-L) — only the final
  /// block can clamp.
  [[nodiscard]] int window_start(int block) const noexcept;
  /// First result bit contributed by block `i`.
  [[nodiscard]] int result_start(int block) const noexcept;
  /// Carry-prediction bits of block `i`'s window
  /// (result_start - window_start): 0 for block 0, P for aligned
  /// blocks, up to R+P-1 for a clamped final window.
  [[nodiscard]] int overlap(int block) const noexcept;

  /// The equivalent heterogeneous block spec — the bridge into
  /// analysis::BlockErrorModel and the block simulation kernels.
  [[nodiscard]] multibit::BlockChainSpec to_blocks() const;

  [[nodiscard]] std::string describe() const;

 private:
  int n_;
  int r_;
  int p_;
};

/// Functional GeAr model.  By default the sub-adders are exact; passing
/// an approximate cell yields the doubly-approximate LLAA-of-LPAA
/// hybrid the paper's §1.1 gestures at for accelerator datapaths.
class GearAdder {
 public:
  explicit GearAdder(GearConfig config);
  GearAdder(GearConfig config, adders::AdderCell cell);

  /// Evaluates the GeAr sum of `a + b` (carry-in fixed to 0, as in the
  /// hardware).  The returned carry-out is the last block's carry.
  [[nodiscard]] multibit::AddResult evaluate(std::uint64_t a,
                                             std::uint64_t b) const noexcept;

  [[nodiscard]] const GearConfig& config() const noexcept { return config_; }
  [[nodiscard]] const adders::AdderCell& cell() const noexcept {
    return cell_;
  }

 private:
  GearConfig config_;
  adders::AdderCell cell_;
};

/// Exact and approximate analytical error probabilities for GeAr.
struct GearAnalysis {
  /// Exact P(GeAr output != exact sum), final carry-out included, from
  /// a joint-carry dynamic program (no inclusion-exclusion).
  double p_error_exact_dp = 0.0;
  /// Same but ignoring the final carry-out.
  double p_error_sum_only = 0.0;
  /// Independence approximation: 1 - prod_i (1 - P(block i fails)).
  double p_error_independent_approx = 0.0;
  /// Exact per-block failure probabilities P(B_i), i = 1..k-1.
  std::vector<double> block_failure;
  /// correction_cycle_distribution(config, profile), which the exact
  /// rates are read from: entry c is P(exactly c blocks fail).  Pass it
  /// to expected_recovery_cycles.  Empty from analyze_with_cell.
  std::vector<double> cycle_distribution;
};

class GearAnalyzer {
 public:
  /// Analyzes GeAr under per-bit input probabilities (carry-in is fixed
  /// to 0 by the topology; profile.p_cin() is ignored).  The exact rates
  /// are 1 - correction_cycle_distribution(config, profile)[0]: with
  /// exact sub-adders a block whose window carry matches the exact carry
  /// at its first result bit stays correct through its carry-out, so
  /// both rates are that one number, and the distribution is kept.  The
  /// per-block failures (analysis::window_mismatch) and the independence
  /// approximation are closed forms.
  [[nodiscard]] static GearAnalysis analyze(
      const GearConfig& config, const multibit::InputProfile& profile);

  /// Exact value-level error probability of a GeAr whose sub-adders are
  /// built from an arbitrary (possibly approximate) cell: the DP tracks
  /// every live window's cell-driven carry against the exact carry and
  /// checks the cell's sum bit at each result position.  Agrees with
  /// `analyze` for the accurate cell.  The per-block closed forms do not
  /// apply to approximate cells, so `block_failure` /
  /// `p_error_independent_approx` are left empty/zero.
  [[nodiscard]] static GearAnalysis analyze_with_cell(
      const GearConfig& config, const adders::AdderCell& cell,
      const multibit::InputProfile& profile);

  /// Exhaustive validation sweep over all 2^(2N) input pairs (uniform
  /// inputs); guarded at `max_width` bits.  exhaustive_with_cell with
  /// the accurate cell.
  [[nodiscard]] static sim::ErrorMetrics exhaustive(
      const GearConfig& config, std::size_t max_width = 13);

  /// Exhaustive sweep of a cell-based GeAr.
  [[nodiscard]] static sim::ErrorMetrics exhaustive_with_cell(
      const GearConfig& config, const adders::AdderCell& cell,
      std::size_t max_width = 13);
};

}  // namespace sealpaa::gear
