// Extension X8: lifting the paper's operand-independence assumption
// (§4).  The recursion needs only the per-stage joint P(A_i, B_i), so
// operand correlation folds in at zero asymptotic cost.  This bench
// sweeps the Pearson correlation between operands and shows how far the
// independent-model P(E) drifts from the truth — and that the
// generalized recursion tracks the exact oracle throughout.
#include <iostream>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/baseline/weighted_exhaustive.hpp"
#include "sealpaa/util/format.hpp"
#include "sealpaa/util/table.hpp"

int main() {
  using namespace sealpaa;
  const std::size_t bits = 8;
  const multibit::InputProfile marginals =
      multibit::InputProfile::uniform(bits, 0.5);

  std::cout << util::banner(
      "X8: operand correlation vs P(Error), 8-bit chains, marginals p = 0.5");

  for (int cell : {1, 6, 7}) {
    const auto chain =
        multibit::AdderChain::homogeneous(adders::lpaa(cell), bits);
    const double independent_answer =
        analysis::RecursiveAnalyzer::analyze(chain, marginals).p_error;

    std::cout << "\n" << chain.describe()
              << "   (paper's independent model: P(E) = "
              << util::prob6(independent_answer) << ")\n";
    util::TextTable table({"rho", "P(E) generalized recursion",
                           "P(E) exact oracle", "independent-model error"});
    for (std::size_t c = 1; c <= 3; ++c) table.set_align(c, util::Align::Right);
    for (double rho : {-1.0, -0.5, 0.0, 0.5, 1.0}) {
      const auto joint =
          multibit::JointInputProfile::correlated(marginals, rho);
      const double analytical =
          analysis::RecursiveAnalyzer::analyze(chain, joint).p_error;
      const double oracle =
          1.0 - baseline::WeightedExhaustive::analyze_joint(chain, joint)
                    .p_stage_success;
      table.add_row({util::fixed(rho, 2), util::prob6(analytical),
                     util::prob6(oracle),
                     util::prob6(analytical - independent_answer)});
    }
    std::cout << table;
  }

  std::cout << "\nA = B (rho = 1) avoids LPAA1's (0,1)/(1,0) error rows "
               "entirely at the first stage, while anti-correlated operands "
               "hit them constantly; assuming independence can misestimate "
               "P(E) by tens of percentage points.  The generalized "
               "recursion stays exact (oracle column) at the same O(N) "
               "cost.\n";
  return 0;
}
