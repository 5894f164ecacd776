// Value-level exact analysis: a joint dynamic program over the
// (approximate carry, exact carry) pair.
//
// The paper's success event is *stage-wise* (every cell matches the
// accurate full adder on its actual inputs).  A distinct question is
// whether the *numeric output* equals the exact sum: a carry-only cell
// error can in principle be masked downstream, so
//   P(value correct) >= P(all stages successful).
// Tracking the joint distribution of the approximate and exact carry
// chains (plus two monotone flags) makes the value-level probability
// computable in O(N), still without any inclusion-exclusion.  This
// module quantifies the paper's implicit assumption that the two notions
// coincide for the LPAA family (bench_x4_masking_gap).  The moments of
// the signed error come from analysis::ErrorPmf, which propagates the
// same joint-carry decomposition.
#pragma once

#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace sealpaa::analysis {

/// Probabilities from the 16-state joint DP.
struct JointResult {
  /// P(every stage matched the accurate FA) — must equal the recursive
  /// analyzer's P(Succ); computed here by an independent DP, which the
  /// tests use as an oracle for the recursion.
  double p_stage_success = 1.0;
  /// P(all N sum bits AND the final carry-out equal the exact adder's).
  double p_value_correct = 1.0;
  /// P(all N sum bits equal; final carry-out ignored).
  double p_sum_bits_correct = 1.0;
};

class JointCarryAnalyzer {
 public:
  /// Runs the 16-state DP (O(N)).
  [[nodiscard]] static JointResult analyze(
      const multibit::AdderChain& chain,
      const multibit::InputProfile& profile);
};

}  // namespace sealpaa::analysis
