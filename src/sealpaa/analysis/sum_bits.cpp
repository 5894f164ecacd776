#include "sealpaa/analysis/sum_bits.hpp"

#include <stdexcept>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/recursive.hpp"

namespace sealpaa::analysis {

SumVectors SumVectors::from_cell(const adders::AdderCell& cell) {
  SumVectors v;
  for (std::size_t row = 0; row < adders::AdderCell::kRows; ++row) {
    const bool sum = cell.rows()[row].sum;
    const bool carry = cell.rows()[row].carry;
    const bool success = cell.row_is_success(row);
    v.sum_one[row] = sum ? 1.0 : 0.0;
    v.sum_one_and_success[row] = (sum && success) ? 1.0 : 0.0;
    v.carry_one[row] = carry ? 1.0 : 0.0;
  }
  return v;
}

SumBitReport SumBitAnalyzer::analyze(const multibit::AdderChain& chain,
                                     const multibit::InputProfile& profile) {
  if (chain.width() != profile.width()) {
    throw std::invalid_argument(
        "SumBitAnalyzer: chain and profile widths differ");
  }
  const std::size_t n = chain.width();
  SumBitReport report;
  report.p_sum_one_and_success.reserve(n);
  report.p_prefix_success.reserve(n);
  report.p_sum_one.reserve(n);
  report.p_carry_one.reserve(n);
  report.p_sum_one_exact.reserve(n);

  // Success-filtered chain state (the paper's recursion)...
  CarryState filtered{1.0 - profile.p_cin(), profile.p_cin()};
  // ...and unconditional signal-probability states for the approximate
  // and the exact chain (q0 + q1 == 1 throughout).
  CarryState signal = filtered;
  CarryState exact_signal = filtered;

  const SumVectors exact_vectors = SumVectors::from_cell(adders::accurate());

  for (std::size_t i = 0; i < n; ++i) {
    const adders::AdderCell& cell = chain.stage(i);
    const SumVectors vectors = SumVectors::from_cell(cell);
    const MklMatrices mkl = MklMatrices::from_cell(cell);
    const OperandWeights w = operand_weights(profile.p_a(i), profile.p_b(i));

    report.p_sum_one_and_success.push_back(
        dot(input_probability_matrix(w, filtered),
            vectors.sum_one_and_success));
    filtered = advance_stage(mkl, w, filtered);
    report.p_prefix_success.push_back(filtered.success_mass());

    const Vector8 ipm_signal = input_probability_matrix(w, signal);
    report.p_sum_one.push_back(dot(ipm_signal, vectors.sum_one));
    const double carry_one = dot(ipm_signal, vectors.carry_one);
    report.p_carry_one.push_back(carry_one);
    signal = CarryState{1.0 - carry_one, carry_one};

    const Vector8 ipm_exact = input_probability_matrix(w, exact_signal);
    report.p_sum_one_exact.push_back(dot(ipm_exact, exact_vectors.sum_one));
    const double exact_carry = dot(ipm_exact, exact_vectors.carry_one);
    exact_signal = CarryState{1.0 - exact_carry, exact_carry};
  }
  return report;
}

}  // namespace sealpaa::analysis
