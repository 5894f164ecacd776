// Extension X10: closing the workload loop.
//
// The paper assumes input-bit probabilities are given.  Here we derive
// them from a realistic operand trace (the accumulator inputs of an FIR
// filter over a noisy sine), then compare three predictions of the
// adder's stage-failure rate on that trace:
//   (1) independent marginal profile  (the paper's model),
//   (2) correlated per-bit joint profile (our X8 generalization),
//   (3) the empirically measured rate on the trace itself.
// Real operands correlate strongly across bits of A and B, so (2)
// closes most of the gap that (1) leaves.
#include <iostream>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/apps/fir.hpp"
#include "sealpaa/multibit/profile_estimation.hpp"
#include "sealpaa/util/format.hpp"
#include "sealpaa/util/table.hpp"

namespace {

// Reconstructs the accumulator operand pairs (acc, addend) that an
// approximate FIR accumulation would see.
std::vector<sealpaa::multibit::OperandSample> fir_accumulator_trace(
    std::size_t width, std::size_t samples) {
  using namespace sealpaa;
  prob::Xoshiro256StarStar rng(0xF1A7);
  const auto signal = apps::make_sine_signal(samples, 800.0, 0.013, 40.0, rng);
  const std::vector<int> taps = {1, 4, 6, 4, 1};
  std::vector<multibit::OperandSample> trace;
  for (std::size_t n = 0; n < signal.size(); ++n) {
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < taps.size() && k <= n; ++k) {
      const std::int64_t product =
          static_cast<std::int64_t>(taps[k]) * signal[n - k];
      const std::uint64_t addend = multibit::mask_width(
          static_cast<std::uint64_t>(product), width);
      trace.push_back({acc, addend});
      acc = multibit::mask_width(acc + addend, width);
    }
  }
  return trace;
}

}  // namespace

int main() {
  using namespace sealpaa;
  const std::size_t width = 14;
  const auto trace = fir_accumulator_trace(width, 4000);

  std::cout << util::banner(
      "X10: workload-derived profiles (FIR accumulator trace, " +
      util::with_commas(trace.size()) + " operand pairs, 14-bit)");

  const auto marginal = multibit::estimate_profile(trace, width);
  const auto joint = multibit::estimate_joint_profile(trace, width, 0.0, 0.5);
  const auto rho = multibit::operand_correlation(trace, width);

  std::cout << "Estimated P(A_i = 1) per bit (LSB..MSB): ";
  for (std::size_t i = 0; i < width; ++i) {
    std::cout << util::fixed(marginal.p_a(i), 2) << " ";
  }
  std::cout << "\nEmpirical operand correlation per bit:  ";
  for (std::size_t i = 0; i < width; ++i) {
    std::cout << util::fixed(rho[i], 2) << " ";
  }
  std::cout << "\n\n";

  util::TextTable table({"Adder", "P(E) independent model",
                         "P(E) correlated model", "measured on trace"});
  for (std::size_t c = 1; c <= 3; ++c) table.set_align(c, util::Align::Right);
  for (int cell : {1, 4, 5, 6, 7}) {
    const auto chain =
        multibit::AdderChain::homogeneous(adders::lpaa(cell), width);
    const double independent =
        analysis::RecursiveAnalyzer::analyze(chain, marginal).p_error;
    const double correlated =
        analysis::RecursiveAnalyzer::analyze(chain, joint).p_error;
    std::uint64_t failures = 0;
    for (const auto& sample : trace) {
      if (!chain.evaluate_traced(sample.a, sample.b, false)
               .all_stages_success) {
        ++failures;
      }
    }
    const double measured =
        static_cast<double>(failures) / static_cast<double>(trace.size());
    table.add_row({chain.describe(), util::prob6(independent),
                   util::prob6(correlated), util::prob6(measured)});
  }
  std::cout << table;
  std::cout << "\nBoth analytical models are O(N).  Where the trace shows "
               "per-bit operand correlation (the sign bits here), the "
               "correlated model adjusts the prediction; the residual gap "
               "to the measured rate comes from *cross-bit* dependence "
               "inside each operand (strong for this two's-complement "
               "stream, e.g. LPAA5), which is exactly the modelling "
               "boundary the paper's independence assumption draws.  The "
               "trace-measured column is the ground truth a deployment "
               "decision should use when that structure is present.\n";
  return 0;
}
