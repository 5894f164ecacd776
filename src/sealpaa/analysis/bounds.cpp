#include "sealpaa/analysis/bounds.hpp"

#include <stdexcept>

#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/prob/probability.hpp"

namespace sealpaa::analysis {

int max_cascadable_width(const adders::AdderCell& cell, double p,
                         double epsilon, int cap) {
  if (cap < 1 || cap > 63) {
    throw std::invalid_argument("max_cascadable_width: cap must be in [1,63]");
  }
  (void)prob::require_probability(p, "max_cascadable_width p");
  const MklMatrices mkl = MklMatrices::from_cell(cell);
  const OperandWeights w = operand_weights(p, p);
  CarryState carry{1.0 - p, p};
  int best = 0;
  for (int width = 1; width <= cap; ++width) {
    // P(Succ) for this width uses the current carry state through the
    // final L-dot; then advance for the next width.
    const double p_success = final_success(mkl, w, carry);
    if (1.0 - p_success <= epsilon) {
      best = width;
    } else {
      // Monotone in width: once exceeded, longer chains are worse.
      break;
    }
    carry = advance_stage(mkl, w, carry);
  }
  return best;
}

int max_approximate_lsbs(const adders::AdderCell& cell, std::size_t width,
                         double p, double epsilon) {
  if (width < 1 || width > 63) {
    throw std::invalid_argument(
        "max_approximate_lsbs: width must be in [1, 63]");
  }
  (void)prob::require_probability(p, "max_approximate_lsbs p");
  const MklMatrices mkl = MklMatrices::from_cell(cell);
  const OperandWeights w = operand_weights(p, p);
  // Exact upper stages preserve the success mass, so the hybrid's
  // P(Error) is 1 - success_mass after the k approximate stages (or the
  // final L-dot when k == width).
  CarryState carry{1.0 - p, p};
  int best = 0;
  for (std::size_t k = 1; k <= width; ++k) {
    const double p_success = k == width
                                 ? final_success(mkl, w, carry)
                                 : (carry = advance_stage(mkl, w, carry),
                                    carry.success_mass());
    if (1.0 - p_success <= epsilon) {
      best = static_cast<int>(k);
    } else {
      break;
    }
  }
  return best;
}

}  // namespace sealpaa::analysis
