// The paper's core contribution (§4, Algorithm 1): recursive, matrix-
// based evaluation of the error probability of a multi-bit approximate
// adder in O(N) time and O(1) state.
//
// Per stage i the analyzer carries the pair
//   ( P(C=0 ∩ all stages 0..i-1 successful),
//     P(C=1 ∩ all stages 0..i-1 successful) )
// builds the 1x8 IPM (Eq. 10) and advances it via dot products with the
// cell's M and K matrices (Eq. 11).  After the last stage the success
// probability is IPM.L (Eq. 12) and P(Error) = 1 - P(Succ) (Eq. 9).
//
// advance_stage / final_success below are the only implementation of
// Equations 10-12 in the library.  They take the stage's joint operand
// weights P(A_i = a, B_i = b), so the same kernel serves the paper's
// independent profiles (the weights are products) and correlated
// operands (the weights are a JointInputProfile's stored joints): the
// carry pair stays the sufficient statistic either way.
#pragma once

#include <vector>

#include "sealpaa/analysis/mkl.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/multibit/joint_profile.hpp"
#include "sealpaa/util/op_counter.hpp"

namespace sealpaa::analysis {

/// Per-stage record of the recursion, mirroring the rows of the paper's
/// Table 4 worked example.
struct StageTrace {
  double p_a = 0.0;  // P(A_i = 1); the marginal for a joint profile
  double p_b = 0.0;
  CarryState carry_in;   // P(C_curr ∩ Succ), both polarities
  CarryState carry_out;  // P(C_next ∩ Succ), both polarities
};

/// Result of analyzing one multi-bit adder.
struct AnalysisResult {
  double p_success = 1.0;
  double p_error = 0.0;
  /// Per-stage trace; only filled when Options::record_trace is set.
  std::vector<StageTrace> trace;
  /// Success-filtered carry state after the final stage.  Not needed for
  /// P(Succ) (the paper marks it "NR") but useful when composing wider
  /// analyses from sub-chains.
  CarryState final_carry;
};

/// Options controlling the recursion.
struct AnalyzeOptions {
  bool record_trace = false;
  /// When set, every multiply/add performed by the recursion is counted
  /// (used to reproduce Table 8 and Figure 1's computation counts).
  util::OpCounter* counter = nullptr;
};

/// The analyzer for homogeneous or hybrid ripple chains.
class RecursiveAnalyzer {
 public:
  /// Analyzes `chain` under `profile`.  Widths must match
  /// (std::invalid_argument otherwise).
  [[nodiscard]] static AnalysisResult analyze(const multibit::AdderChain& chain,
                                              const multibit::InputProfile& profile,
                                              const AnalyzeOptions& options = {});

  /// The same recursion over correlated operands: stage i's Equation 10
  /// operand factor is the profile's joint P(A_i, B_i).  Trace rows
  /// report the marginals.  Equals the overload above when the profile
  /// is a product distribution.
  [[nodiscard]] static AnalysisResult analyze(
      const multibit::AdderChain& chain,
      const multibit::JointInputProfile& profile,
      const AnalyzeOptions& options = {});

  /// Convenience overload: homogeneous chain of `cell` at the profile's
  /// width.
  [[nodiscard]] static AnalysisResult analyze(const adders::AdderCell& cell,
                                              const multibit::InputProfile& profile,
                                              const AnalyzeOptions& options = {});

  /// Error probability only (the most common query).
  [[nodiscard]] static double error_probability(
      const adders::AdderCell& cell, const multibit::InputProfile& profile);
};

/// Stage i's operand weights of an independent profile, one entry per
/// stage — the table the engine evaluators build once per profile.
[[nodiscard]] std::vector<OperandWeights> operand_weights(
    const multibit::InputProfile& profile);

/// Advances the carry state through one stage (Equations 10-11).
[[nodiscard]] CarryState advance_stage(const MklMatrices& mkl,
                                       const OperandWeights& weights,
                                       const CarryState& carry,
                                       util::OpCounter* counter = nullptr);

/// Final-stage success mass (Equation 12): IPM.L for the last stage.
[[nodiscard]] double final_success(const MklMatrices& mkl,
                                   const OperandWeights& weights,
                                   const CarryState& carry,
                                   util::OpCounter* counter = nullptr);

/// Per-stage breakdown of where the success mass is lost: entry i is
/// P(stage i is the FIRST failing stage).  Requires a result produced
/// with record_trace; the entries sum to the total error probability.
/// Useful for deciding which stages of a hybrid design to upgrade.
[[nodiscard]] std::vector<double> stage_loss_report(
    const AnalysisResult& result);

}  // namespace sealpaa::analysis
