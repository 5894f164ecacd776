// Exact error-distribution analytics: the full probability mass function
// of the signed arithmetic error
//   err = approx_value - exact_value   (carry-out weighted 2^N),
// propagated analytically through the same joint-carry decomposition the
// value-level DP in joint.cpp uses — no simulation samples anywhere.  Its
// mean and mean squared error are the library's exact error moments.
//
// The propagation state is one sparse PMF per (approximate carry, exact
// carry) pair.  Each stage contributes a signed delta
//   d_i = (s_approx - s_exact) * 2^i  in  {-2^i, 0, +2^i}
// conditioned on the joint carries, so advancing a stage is a segmented
// convolution: every (source pair, operand combination) term shifts one
// segment PMF by its delta and the four destination pairs each collect a
// weighted mixture of shifted segments.  Finalizing folds the carry-out
// difference (ca - ce) * 2^N into the merged PMF.  All probability
// accumulation is Kahan-compensated (prob/kahan.hpp) and deterministic,
// so MED/MSE/WCE land within 1e-12 of the weighted-exhaustive oracle
// while costing O(N * support) instead of O(2^(2N+1)).
//
// A mixture costs what its inputs hold, not the width of the value range
// they cover: the shifted segments are already sorted, so it merges them
// directly, and uses a dense compensated slot array only when the
// destination span is smaller than the number of contributions (wide
// adders whose approximate stages sit in the low bits); see DESIGN.md
// decision 7.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace sealpaa::analysis {

/// The support safety rail of the propagation.
struct PmfOptions {
  /// Hard cap on any intermediate or final support size; propagation
  /// throws std::length_error beyond it instead of consuming unbounded
  /// memory on adversarial cells.
  std::size_t max_support = std::size_t{1} << 22;
};

/// A sparse signed-magnitude probability mass function over int64 error
/// values.  Entries are strictly sorted by value; zero-probability
/// entries are never stored, so every stored value is reachable with
/// positive probability.
class ErrorPmf {
 public:
  struct Entry {
    std::int64_t value = 0;
    double probability = 0.0;

    friend bool operator==(const Entry&, const Entry&) = default;
  };
  using Entries = std::vector<Entry>;

  /// One weighted, shifted operand of a mixture:
  ///   contribution = scale * shift(*pmf, offset).
  struct Term {
    const ErrorPmf* pmf = nullptr;
    double scale = 0.0;
    std::int64_t offset = 0;
  };

  ErrorPmf() = default;  // zero measure (no mass)

  /// Single-point distribution.
  [[nodiscard]] static ErrorPmf point_mass(std::int64_t value,
                                           double probability = 1.0);

  /// Builds a PMF from arbitrary (value, probability) pairs: sorts,
  /// merges duplicates with compensated addition, drops zero-probability
  /// points.  Throws std::invalid_argument on negative probabilities.
  [[nodiscard]] static ErrorPmf from_entries(Entries entries);

  /// Kahan-compensated weighted sum of shifted PMFs — the segmented-
  /// convolution primitive behind the per-stage propagation.  Each
  /// value's contributions are added in term order, whichever
  /// accumulator the call's shape selects, so the result is a function
  /// of the terms alone.  Costs O(contributions), not O(value span).
  /// Throws std::invalid_argument on a negative scale and
  /// std::length_error when the result support exceeds
  /// `options.max_support`.
  [[nodiscard]] static ErrorPmf mixture(std::span<const Term> terms,
                                        const PmfOptions& options = {});

  [[nodiscard]] const Entries& entries() const noexcept { return entries_; }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t support_size() const noexcept {
    return entries_.size();
  }
  /// Smallest / largest value carrying mass.  Precondition: !empty().
  [[nodiscard]] std::int64_t min_value() const noexcept {
    return entries_.front().value;
  }
  [[nodiscard]] std::int64_t max_value() const noexcept {
    return entries_.back().value;
  }

  /// Total mass (compensated).  1.0 (within float error) for a PMF,
  /// less for a conditioned segment mid-propagation.
  [[nodiscard]] double total_mass() const noexcept;
  /// Mass at exactly `value` (binary search; 0.0 when absent).
  [[nodiscard]] double probability_of(std::int64_t value) const noexcept;

  /// P(err != 0) — the value-level error rate.  Summed directly over the
  /// nonzero support (compensated), not computed as 1 - P(0).
  [[nodiscard]] double error_rate() const noexcept;
  /// E[err].
  [[nodiscard]] double mean_error() const noexcept;
  /// E[|err|] — the mean error distance (MED).
  [[nodiscard]] double mean_error_distance() const noexcept;
  /// E[err^2] — the mean squared error (MSE).
  [[nodiscard]] double mean_squared_error() const noexcept;
  /// The worst error in the support under sim::worse_error's total order
  /// (larger magnitude wins, magnitude ties resolve to the negative
  /// error).  0 for an empty or exact distribution — matching the
  /// simulators' accumulator identity.
  [[nodiscard]] std::int64_t worst_case_error() const noexcept;
  /// Shannon entropy of the distribution in bits.
  [[nodiscard]] double entropy_bits() const noexcept;
  /// Peak signal-to-noise ratio against the exact adder for an N-bit
  /// output range: 10*log10(peak^2 / MSE) with peak = 2^width - 1 (the
  /// same peak^2/MSE convention apps/image.cpp uses with peak = 255).
  /// +infinity when MSE == 0.
  [[nodiscard]] double psnr_db(std::size_t width) const noexcept;
  /// The k highest-probability mass points, ordered by descending
  /// probability (value ascending on ties) — the run-report projection.
  [[nodiscard]] Entries top_mass_points(std::size_t k) const;

 private:
  explicit ErrorPmf(Entries entries) noexcept
      : entries_(std::move(entries)) {}

  Entries entries_;  // strictly ascending by value, probabilities > 0
};

/// Propagation state: one conditioned error PMF per joint carry pair
/// (approximate carry ca, exact carry ce), indexed `(ca << 1) | ce`.
/// `joint[j].total_mass()` is P(reaching pair j), so the
/// four masses always sum to 1.
struct ErrorPmfState {
  std::array<ErrorPmf, 4> joint{};
  std::size_t stage = 0;  // stages absorbed so far
};

/// Initial state before stage 0: err = 0 with the carry-in split between
/// the (0,0) and (1,1) pairs.
[[nodiscard]] ErrorPmfState make_error_pmf_state(double p_cin);

/// The state after one more stage: shifts each (source pair, operand
/// combination) segment by its error delta and mixes into the
/// destination pairs.  `stage` index comes from the state; throws
/// std::length_error past 62 stages (the carry-out weight 2^63 would
/// overflow the signed error).
[[nodiscard]] ErrorPmfState next_error_pmf_state(
    const ErrorPmfState& state, const adders::AdderCell& cell, double p_a,
    double p_b, const PmfOptions& options = {});

/// In-place form of next_error_pmf_state.
void advance_error_pmf(ErrorPmfState& state, const adders::AdderCell& cell,
                       double p_a, double p_b,
                       const PmfOptions& options = {});

/// Merges the four segments into the final error PMF, folding the
/// carry-out difference (ca - ce) * 2^stage into the shift.
[[nodiscard]] ErrorPmf finalize_error_pmf(const ErrorPmfState& state,
                                          const PmfOptions& options = {});

/// Convenience driver: full-width propagation for a chain + profile.
[[nodiscard]] ErrorPmf propagate_error_pmf(const multibit::AdderChain& chain,
                                           const multibit::InputProfile& profile,
                                           const PmfOptions& options = {});

}  // namespace sealpaa::analysis
