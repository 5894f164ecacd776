#include "sealpaa/analysis/joint.hpp"

#include <array>
#include <stdexcept>

#include "sealpaa/analysis/mkl.hpp"
#include "sealpaa/prob/kahan.hpp"

namespace sealpaa::analysis {

namespace {

// State index for the 16-state DP: (ca << 3) | (ce << 2) | (eq << 1) | succ
// where ca/ce are the approximate/exact carries, eq = "all sum bits so far
// equal", succ = "all stages so far matched the accurate FA".
constexpr std::size_t state_index(bool ca, bool ce, bool eq,
                                  bool succ) noexcept {
  return (static_cast<std::size_t>(ca) << 3) |
         (static_cast<std::size_t>(ce) << 2) |
         (static_cast<std::size_t>(eq) << 1) | static_cast<std::size_t>(succ);
}

using State16 = std::array<double, 16>;

}  // namespace

JointResult JointCarryAnalyzer::analyze(
    const multibit::AdderChain& chain,
    const multibit::InputProfile& profile) {
  if (chain.width() != profile.width()) {
    throw std::invalid_argument(
        "JointCarryAnalyzer: chain and profile widths differ");
  }
  const std::size_t n = chain.width();
  const adders::AdderCell::Rows& exact = adders::AdderCell::accurate_rows();

  State16 state{};
  state[state_index(true, true, true, true)] = profile.p_cin();
  state[state_index(false, false, true, true)] = 1.0 - profile.p_cin();

  for (std::size_t i = 0; i < n; ++i) {
    const adders::AdderCell& cell = chain.stage(i);
    const OperandWeights ab = operand_weights(profile.p_a(i), profile.p_b(i));
    State16 next{};
    for (std::size_t s = 0; s < state.size(); ++s) {
      const double mass = state[s];
      if (mass == 0.0) continue;
      const bool ca = (s & 8U) != 0;
      const bool ce = (s & 4U) != 0;
      const bool eq = (s & 2U) != 0;
      const bool succ = (s & 1U) != 0;
      for (std::size_t abi = 0; abi < 4; ++abi) {
        const bool a = (abi & 2U) != 0;
        const bool b = (abi & 1U) != 0;
        const std::size_t approx_row = adders::AdderCell::row_index(a, b, ca);
        const std::size_t exact_row = adders::AdderCell::row_index(a, b, ce);
        const adders::BitPair approx_out = cell.rows()[approx_row];
        const adders::BitPair exact_out = exact[exact_row];
        const bool eq2 = eq && (approx_out.sum == exact_out.sum);
        const bool succ2 = succ && (approx_out == exact[approx_row]);
        next[state_index(approx_out.carry, exact_out.carry, eq2, succ2)] +=
            mass * ab[abi];
      }
    }
    state = next;
  }

  JointResult result;
  prob::KahanSum stage_success;
  prob::KahanSum value_correct;
  prob::KahanSum sum_bits_correct;
  for (std::size_t s = 0; s < state.size(); ++s) {
    const bool ca = (s & 8U) != 0;
    const bool ce = (s & 4U) != 0;
    const bool eq = (s & 2U) != 0;
    const bool succ = (s & 1U) != 0;
    if (succ) stage_success.add(state[s]);
    if (eq && ca == ce) value_correct.add(state[s]);
    if (eq) sum_bits_correct.add(state[s]);
  }
  result.p_stage_success = stage_success.value();
  result.p_value_correct = value_correct.value();
  result.p_sum_bits_correct = sum_bits_correct.value();
  return result;
}

}  // namespace sealpaa::analysis
