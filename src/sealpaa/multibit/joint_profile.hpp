// Correlated-operand input model.
//
// The paper (§4) assumes all operand bits are statistically independent.
// Real datapaths often violate that *across operands at the same bit
// position* (e.g. adding a signal to a delayed copy of itself).  The
// recursion does not actually need independence between A_i and B_i —
// only a per-stage joint distribution P(A_i, B_i) — so this profile
// stores the four joint probabilities per bit and the analysis layer
// consumes them directly as Equation 10's operand weights (see the
// JointInputProfile overload of analysis::RecursiveAnalyzer::analyze).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/prob/rng.hpp"

namespace sealpaa::multibit {

/// Joint distribution of one operand-bit pair: index (a << 1) | b.
using JointBitDistribution = std::array<double, 4>;

/// Per-bit joint operand distributions plus the carry-in probability.
/// Bits at different positions remain independent (as in the paper);
/// only the A_i/B_i pairing is generalized.
class JointInputProfile {
 public:
  /// Explicit joint distributions; each must be non-negative and sum to
  /// 1 (within rounding slack), validated on construction.
  JointInputProfile(std::vector<JointBitDistribution> bits, double p_cin);

  /// Independent product model — reproduces a plain InputProfile.
  [[nodiscard]] static JointInputProfile independent(
      const InputProfile& profile);

  /// Per-bit marginals with a common Pearson correlation `rho` between
  /// A_i and B_i.  The feasible rho range depends on the marginals; out
  /// of range joints throw std::domain_error.  rho = 0 reduces to the
  /// independent model; rho = 1 with equal marginals makes A_i = B_i.
  [[nodiscard]] static JointInputProfile correlated(
      const InputProfile& profile, double rho);

  [[nodiscard]] std::size_t width() const noexcept { return bits_.size(); }
  [[nodiscard]] const JointBitDistribution& joint(std::size_t i) const {
    return bits_.at(i);
  }
  [[nodiscard]] double p_cin() const noexcept { return p_cin_; }

  /// Marginal P(A_i = 1) / P(B_i = 1).
  [[nodiscard]] double marginal_a(std::size_t i) const;
  [[nodiscard]] double marginal_b(std::size_t i) const;

  /// Probability of a full input assignment.
  [[nodiscard]] double assignment_probability(std::uint64_t a,
                                              std::uint64_t b,
                                              bool cin) const;

  /// Draws one input assignment (for Monte Carlo validation).
  [[nodiscard]] InputProfile::Sample sample(
      prob::Xoshiro256StarStar& rng) const;

 private:
  std::vector<JointBitDistribution> bits_;
  double p_cin_ = 0.0;
};

}  // namespace sealpaa::multibit
