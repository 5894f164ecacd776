#include "sealpaa/baseline/inclusion_exclusion.hpp"

#include <cmath>
#include <stdexcept>

#include "sealpaa/analysis/mkl.hpp"
#include "sealpaa/prob/kahan.hpp"

namespace sealpaa::baseline {

InclusionExclusionCost inclusion_exclusion_cost(int stages) {
  const double k = stages;
  InclusionExclusionCost cost;
  cost.terms = std::pow(2.0, k) - 1.0;
  cost.multiplications = k * std::pow(2.0, k - 1.0) - k;
  cost.additions = std::pow(2.0, k) - 2.0;
  cost.memory_units = std::pow(2.0, k + 1.0) - 1.0;
  return cost;
}

namespace {

// P(∩_{i∈S} E_i): carry-distribution sweep over the *approximate* carry
// chain where every stage in S is restricted to its error rows.
double joint_failure_probability(const multibit::AdderChain& chain,
                                 const multibit::InputProfile& profile,
                                 std::uint64_t subset,
                                 util::OpCounter* counter) {
  double mass0 = 1.0 - profile.p_cin();
  double mass1 = profile.p_cin();
  const std::size_t n = chain.width();
  for (std::size_t i = 0; i < n; ++i) {
    const adders::AdderCell& cell = chain.stage(i);
    const bool must_fail = ((subset >> i) & 1ULL) != 0;
    const analysis::OperandWeights ab =
        analysis::operand_weights(profile.p_a(i), profile.p_b(i));
    if (counter != nullptr) counter->count_mul(4);
    double next0 = 0.0;
    double next1 = 0.0;
    for (int c = 0; c < 2; ++c) {
      const double mass = c != 0 ? mass1 : mass0;
      if (mass == 0.0) continue;
      for (std::size_t abi = 0; abi < 4; ++abi) {
        const bool a = (abi & 2U) != 0;
        const bool b = (abi & 1U) != 0;
        const std::size_t row =
            adders::AdderCell::row_index(a, b, c != 0);
        if (must_fail && cell.row_is_success(row)) continue;
        const double w = mass * ab[abi];
        if (counter != nullptr) {
          counter->count_mul();
          counter->count_add();
        }
        if (cell.rows()[row].carry) {
          next1 += w;
        } else {
          next0 += w;
        }
      }
    }
    mass0 = next0;
    mass1 = next1;
  }
  return mass0 + mass1;
}

}  // namespace

InclusionExclusionResult InclusionExclusionAnalyzer::analyze(
    const multibit::AdderChain& chain, const multibit::InputProfile& profile,
    std::size_t max_width, util::OpCounter* counter) {
  if (chain.width() != profile.width()) {
    throw std::invalid_argument(
        "InclusionExclusionAnalyzer: chain and profile widths differ");
  }
  const std::size_t n = chain.width();
  if (n > max_width) {
    throw std::invalid_argument(
        "InclusionExclusionAnalyzer: width " + std::to_string(n) +
        " exceeds the subset-enumeration guard (" +
        std::to_string(max_width) + ")");
  }

  InclusionExclusionResult result;
  prob::KahanSum p_union;
  const std::uint64_t subsets = 1ULL << n;
  for (std::uint64_t subset = 1; subset < subsets; ++subset) {
    const double joint =
        joint_failure_probability(chain, profile, subset, counter);
    const int size = static_cast<int>(__builtin_popcountll(subset));
    p_union.add((size % 2 == 1) ? joint : -joint);
    if (counter != nullptr) {
      counter->count_add();
      counter->note_live(2 + subsets);  // running sum + carry pair + terms
    }
    ++result.terms_evaluated;
  }
  result.p_error = p_union.value();
  result.p_success = 1.0 - result.p_error;
  return result;
}

}  // namespace sealpaa::baseline
