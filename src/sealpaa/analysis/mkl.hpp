// The paper's M, K, L analysis matrices (Table 5) derived from a cell's
// truth table (§4.2 steps 1-3):
//   m_i = 1  iff  row i has Cout = 1 AND the row is a success,
//   k_i = 1  iff  row i has Cout = 0 AND the row is a success,
//   l_i = 1  iff  row i is a success (hence L = M + K).
#pragma once

#include <array>
#include <string>

#include "sealpaa/adders/cell.hpp"

namespace sealpaa::analysis {

/// One 1x8 selection vector (stored as doubles so dot products with the
/// input-probability matrix need no conversions).
using Vector8 = std::array<double, 8>;

/// The three constant matrices of a cell; derive once, reuse for any
/// adder width (§4.2 step 3).
struct MklMatrices {
  Vector8 m{};
  Vector8 k{};
  Vector8 l{};

  /// Derives M/K/L from the truth table of `cell`.
  [[nodiscard]] static MklMatrices from_cell(const adders::AdderCell& cell);

  /// Renders one vector like the paper: "[0,0,0,1,0,1,1,1]".
  [[nodiscard]] static std::string render(const Vector8& v);
};

/// Dot product of two 1x8 vectors (Equations 11/12).
[[nodiscard]] constexpr double dot(const Vector8& a,
                                   const Vector8& b) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

/// Joint probability mass of carry-in and prefix success:
///   c1 = P(C_curr = 1 ∩ Succ),  c0 = P(C_curr = 0 ∩ Succ).
/// These two numbers are the paper's key sufficient statistic.
struct CarryState {
  double c0 = 0.0;
  double c1 = 0.0;

  /// Total still-successful probability mass (monotone non-increasing
  /// across stages because error rows are discarded).
  [[nodiscard]] double success_mass() const noexcept { return c0 + c1; }
};

/// The operand factor of Equation 10 at one stage: entry (a << 1) | b is
/// P(A_i = a, B_i = b).  The same layout as multibit::JointBitDistribution,
/// so a correlated profile's stored joints are used as they are.
using OperandWeights = std::array<double, 4>;

/// Independent operands: the four products P(A-literal).P(B-literal).
[[nodiscard]] constexpr OperandWeights operand_weights(double p_a,
                                                       double p_b) noexcept {
  const double na = 1.0 - p_a;
  const double nb = 1.0 - p_b;
  return {na * nb, na * p_b, p_a * nb, p_a * p_b};
}

/// Builds the 1x8 Input Probability Matrix of Equation 10 for one stage:
/// entry at index (A<<2 | B<<1 | C) is P(A, B).P(C-joint).
[[nodiscard]] constexpr Vector8 input_probability_matrix(
    const OperandWeights& weights, const CarryState& carry) noexcept {
  Vector8 ipm{};
  for (std::size_t ab = 0; ab < 4; ++ab) {
    ipm[2 * ab] = weights[ab] * carry.c0;
    ipm[2 * ab + 1] = weights[ab] * carry.c1;
  }
  return ipm;
}

}  // namespace sealpaa::analysis
