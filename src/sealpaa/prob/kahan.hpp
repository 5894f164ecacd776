// Compensated (Kahan-Neumaier) summation.
//
// The recursion itself is numerically benign, but exhaustive weighted
// enumeration sums up to 2^(2N+1) tiny products; compensation keeps the
// exact-ground-truth engines honest to the last ulp.
#pragma once

#include <cmath>

namespace sealpaa::prob {

/// One Neumaier step: adds `x` to the running `sum` and folds the
/// rounding error of that addition into `compensation`.  Written
/// branch-free (the larger operand is selected, not branched on) so a
/// loop of steps over arrays vectorizes; it computes the same
/// expressions as the branching form, so every bit matches it.  Every
/// compensated sum in the library goes through this one definition.
/// The library builds with -ffp-contract=off (src/CMakeLists.txt), so a
/// product passed as `x` is rounded before the step, never fused into a
/// multiply-add with it.
constexpr void neumaier_add(double& sum, double& compensation,
                            double x) noexcept {
  const double t = sum + x;
  const bool sum_larger = std::abs(sum) >= std::abs(x);
  const double larger = sum_larger ? sum : x;
  const double smaller = sum_larger ? x : sum;
  compensation += (larger - t) + smaller;
  sum = t;
}

/// Neumaier variant of Kahan summation: accurate even when the addend is
/// larger than the running sum.  Adding an exact +0.0 leaves both the sum
/// and its compensation unchanged, bit for bit.
class KahanSum {
 public:
  constexpr KahanSum() noexcept = default;

  constexpr void add(double x) noexcept {
    neumaier_add(sum_, compensation_, x);
  }

  constexpr KahanSum& operator+=(double x) noexcept {
    add(x);
    return *this;
  }

  [[nodiscard]] constexpr double value() const noexcept {
    return sum_ + compensation_;
  }

  constexpr void reset() noexcept {
    sum_ = 0.0;
    compensation_ = 0.0;
  }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

}  // namespace sealpaa::prob
