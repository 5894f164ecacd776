// Extension X11: the full signed-error distribution of each 8-bit LPAA
// chain (exact, from weighted enumeration) — beyond P(E), which the
// paper reports, to the magnitude spectrum that application-level
// quality (PSNR/SNR) actually depends on.
#include <cmath>
#include <iostream>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/baseline/weighted_exhaustive.hpp"
#include "sealpaa/util/format.hpp"
#include "sealpaa/util/table.hpp"

int main() {
  using namespace sealpaa;
  const std::size_t bits = 8;
  const auto profile = multibit::InputProfile::uniform(bits, 0.5);

  std::cout << util::banner(
      "X11: exact signed-error distribution, 8-bit chains, p = 0.5");

  util::TextTable table({"Cell", "P(err=0)", "P(|err|<4)", "P(|err|<32)",
                         "mean err", "RMS err", "worst err",
                         "distinct values"});
  for (std::size_t c = 1; c <= 6; ++c) table.set_align(c, util::Align::Right);

  for (const adders::AdderCell& cell : adders::builtin_lpaas()) {
    const auto chain = multibit::AdderChain::homogeneous(cell, bits);
    const auto report = baseline::WeightedExhaustive::analyze(chain, profile);
    double p_zero = 0.0;
    double p_small = 0.0;
    double p_medium = 0.0;
    for (const auto& [error, probability] : report.error_distribution) {
      if (error == 0) p_zero += probability;
      if (std::llabs(error) < 4) p_small += probability;
      if (std::llabs(error) < 32) p_medium += probability;
    }
    // The moments come from the analytic error PMF, independent of the
    // enumeration that produced the distribution columns.
    const auto pmf = analysis::propagate_error_pmf(chain, profile);
    table.add_row(
        {cell.name(), util::prob6(p_zero), util::prob6(p_small),
         util::prob6(p_medium), util::fixed(pmf.mean_error(), 2),
         util::fixed(std::sqrt(pmf.mean_squared_error()), 2),
         std::to_string(report.worst_case_error),
         std::to_string(report.error_distribution.size())});
  }
  std::cout << table;

  std::cout << "\nReading guide: error *rate* and error *magnitude* rank "
               "the cells differently.  LPAA6 matches LPAA2's P(err = 0) "
               "but its carry-only faults explode in magnitude (RMS ~181, "
               "worst 510) because a wrong carry keeps rippling, while "
               "LPAA1's more frequent faults stay small (RMS ~60).  LPAA7 "
               "errs with a constant positive bias (mean ~64 = its two "
               "sum-up rows).  Application metrics (PSNR/SNR) follow RMS, "
               "not P(E) - which is why this library reports both.\n";
  return 0;
}
