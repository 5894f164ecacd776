#include "sealpaa/analysis/recursive.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "sealpaa/prob/probability.hpp"

namespace sealpaa::analysis {

namespace {

// Counts the 8 IPM entries of Equation 10: operand weight x carry mass.
void count_ipm(util::OpCounter* counter) {
  if (counter != nullptr) counter->count_mul(8);
}

// Counts forming independent operand weights: two complements
// (1-P(A), 1-P(B)) and the 4 a*b products.
void count_operand_products(util::OpCounter* counter) {
  if (counter == nullptr) return;
  counter->count_add(2);
  counter->count_mul(4);
}

// Counts a selective dot product with a 0/1 vector holding `ones` ones.
void count_dot(util::OpCounter* counter, int ones) {
  if (counter == nullptr) return;
  if (ones > 1) counter->count_add(static_cast<std::uint64_t>(ones - 1));
}

int count_ones(const Vector8& v) {
  int ones = 0;
  for (double x : v) ones += (x != 0.0) ? 1 : 0;
  return ones;
}

// Algorithm 1 over any per-stage operand-weight source: `weights(i)` is
// stage i's Equation 10 operand factor, `marginals(i)` the (p_a, p_b)
// pair its trace row reports.  Both profile overloads run this loop.
template <typename Weights, typename Marginals>
AnalysisResult recurse(const multibit::AdderChain& chain,
                       std::size_t profile_width, double p_cin,
                       const AnalyzeOptions& options, const Weights& weights,
                       const Marginals& marginals) {
  if (chain.width() != profile_width) {
    throw std::invalid_argument(
        "RecursiveAnalyzer: chain width " + std::to_string(chain.width()) +
        " does not match profile width " + std::to_string(profile_width));
  }
  const std::size_t n = chain.width();

  // Initial state (Equation 5): the input carry is always "successful".
  CarryState carry{1.0 - p_cin, p_cin};
  if (options.counter != nullptr) options.counter->note_live(3);

  AnalysisResult result;
  if (options.record_trace) result.trace.reserve(n);

  // Cache M/K/L per distinct cell; for homogeneous chains this derives
  // the matrices exactly once.
  MklMatrices cached = MklMatrices::from_cell(chain.stage(0));
  const adders::AdderCell* cached_for = &chain.stage(0);

  for (std::size_t i = 0; i < n; ++i) {
    const adders::AdderCell& cell = chain.stage(i);
    if (&cell != cached_for && !(cell == *cached_for)) {
      cached = MklMatrices::from_cell(cell);
      cached_for = &cell;
    }
    const OperandWeights w = weights(i);

    if (i + 1 == n) {
      result.p_success = prob::require_probability(
          final_success(cached, w, carry, options.counter),
          "RecursiveAnalyzer P(Succ)");
    }
    // The carry advance of the last stage is "NR" for P(Succ) (paper
    // Table 4) but we still compute it: it is what composition into a
    // wider chain would consume, and the trace reports it.
    const CarryState next = advance_stage(
        cached, w, carry, i + 1 == n ? nullptr : options.counter);
    if (options.record_trace) {
      const auto [p_a, p_b] = marginals(i);
      result.trace.push_back(StageTrace{p_a, p_b, carry, next});
    }
    carry = next;
  }

  result.final_carry = carry;
  result.p_error = 1.0 - result.p_success;
  return result;
}

}  // namespace

std::vector<OperandWeights> operand_weights(
    const multibit::InputProfile& profile) {
  std::vector<OperandWeights> table;
  table.reserve(profile.width());
  for (std::size_t i = 0; i < profile.width(); ++i) {
    table.push_back(operand_weights(profile.p_a(i), profile.p_b(i)));
  }
  return table;
}

CarryState advance_stage(const MklMatrices& mkl, const OperandWeights& weights,
                         const CarryState& carry, util::OpCounter* counter) {
  const Vector8 ipm = input_probability_matrix(weights, carry);
  count_ipm(counter);
  CarryState next;
  next.c1 = dot(ipm, mkl.m);
  next.c0 = dot(ipm, mkl.k);
  count_dot(counter, count_ones(mkl.m));
  count_dot(counter, count_ones(mkl.k));
  if (counter != nullptr) {
    // Live scalars: the carry pair plus the running success mass.
    counter->note_live(3);
  }
  // Discarding error rows can only shrink the success mass.
  assert(next.success_mass() <= carry.success_mass() + prob::kProbabilitySlack);
  return next;
}

double final_success(const MklMatrices& mkl, const OperandWeights& weights,
                     const CarryState& carry, util::OpCounter* counter) {
  const Vector8 ipm = input_probability_matrix(weights, carry);
  count_ipm(counter);
  count_dot(counter, count_ones(mkl.l));
  return dot(ipm, mkl.l);
}

AnalysisResult RecursiveAnalyzer::analyze(const multibit::AdderChain& chain,
                                          const multibit::InputProfile& profile,
                                          const AnalyzeOptions& options) {
  // Operand products are formed per stage, as in Equation 10, so the
  // op counter sees the paper's full cost model.
  return recurse(
      chain, profile.width(), profile.p_cin(), options,
      [&](std::size_t i) {
        count_operand_products(options.counter);
        return operand_weights(profile.p_a(i), profile.p_b(i));
      },
      [&](std::size_t i) { return std::pair{profile.p_a(i), profile.p_b(i)}; });
}

AnalysisResult RecursiveAnalyzer::analyze(
    const multibit::AdderChain& chain,
    const multibit::JointInputProfile& profile,
    const AnalyzeOptions& options) {
  return recurse(
      chain, profile.width(), profile.p_cin(), options,
      [&](std::size_t i) { return profile.joint(i); },
      [&](std::size_t i) {
        return std::pair{profile.marginal_a(i), profile.marginal_b(i)};
      });
}

AnalysisResult RecursiveAnalyzer::analyze(const adders::AdderCell& cell,
                                          const multibit::InputProfile& profile,
                                          const AnalyzeOptions& options) {
  return analyze(multibit::AdderChain::homogeneous(cell, profile.width()),
                 profile, options);
}

double RecursiveAnalyzer::error_probability(
    const adders::AdderCell& cell, const multibit::InputProfile& profile) {
  return analyze(cell, profile).p_error;
}

std::vector<double> stage_loss_report(const AnalysisResult& result) {
  if (result.trace.empty()) {
    throw std::invalid_argument(
        "stage_loss_report: analyze with record_trace = true first");
  }
  std::vector<double> losses;
  losses.reserve(result.trace.size());
  for (const StageTrace& stage : result.trace) {
    losses.push_back(stage.carry_in.success_mass() -
                     stage.carry_out.success_mass());
  }
  return losses;
}

}  // namespace sealpaa::analysis
