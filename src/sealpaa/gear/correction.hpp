// GeAr error detection and correction (paper §1: "The error in this LLAA
// model can be detected as well as corrected as explained in [11]").
//
// Detection: block i (i >= 1) is erroneous iff the true carry into its
// first result bit differs from the window-internal carry — equivalently
// iff the carry into the window start is 1 AND all P overlap bits
// propagate.  Both signals are computable in hardware from the operands
// and the neighbouring sub-adder's internal carries.
//
// Correction: each detected block is patched by injecting the missed
// carry (one correction per recovery cycle, as in the consolidated ECC
// of Mazahir et al. [11]); corrections of distinct blocks are
// independent, so the number of recovery cycles equals the number of
// failing blocks.  This module provides the functional corrector and the
// exact analytical distribution of recovery-cycle counts.
#pragma once

#include <cstdint>
#include <vector>

#include "sealpaa/gear/gear.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace sealpaa::gear {

/// Outcome of a corrected GeAr evaluation.
struct CorrectedResult {
  multibit::AddResult outputs;   // always the exact sum after correction
  int failing_blocks = 0;        // detected erroneous blocks
  int total_cycles = 1;          // 1 base cycle + one per failing block
};

/// Functional model of GeAr + detection + correction.
class GearCorrector {
 public:
  explicit GearCorrector(GearConfig config) : config_(config) {}

  /// Detects failing blocks for one operand pair (indices 1..k-1).
  [[nodiscard]] std::vector<int> detect(std::uint64_t a,
                                        std::uint64_t b) const;

  /// Evaluates with correction: the final outputs equal the exact sum;
  /// cycle count reflects the number of detected blocks.
  [[nodiscard]] CorrectedResult evaluate(std::uint64_t a,
                                         std::uint64_t b) const;

  [[nodiscard]] const GearConfig& config() const noexcept { return config_; }

 private:
  GearConfig config_;
};

/// Analytical distribution of the number of failing blocks (= recovery
/// cycles) for a GeAr adder under per-bit input probabilities: entry c
/// is P(exactly c blocks fail), c = 0..k-1 (carry-in fixed to 0;
/// profile.p_cin() is ignored).  A joint-carry dynamic program over
/// (exact carry, live window carries) with a failure counter — O(N), no
/// inclusion-exclusion.  Entry 0 is GearAnalyzer::analyze's success
/// probability.
[[nodiscard]] std::vector<double> correction_cycle_distribution(
    const GearConfig& config, const multibit::InputProfile& profile);

/// Expected number of recovery cycles E[#failing blocks].
[[nodiscard]] double expected_recovery_cycles(
    const GearConfig& config, const multibit::InputProfile& profile);

}  // namespace sealpaa::gear
