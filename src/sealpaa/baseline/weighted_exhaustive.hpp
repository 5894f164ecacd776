// Weighted-exhaustive ground truth.
//
// For arbitrary per-bit input probabilities the error probability can be
// computed *exactly* by enumerating all 2^(2N+1) input assignments and
// summing each assignment's probability.  This is the strongest oracle
// available (the paper used 1M-sample Monte Carlo for this scenario) but
// costs O(4^N); it is the cross-validation reference for the O(N)
// recursive method up to N ≈ 12.
#pragma once

#include <cstdint>
#include <map>

#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/multibit/joint_profile.hpp"
#include "sealpaa/sim/kernel.hpp"
#include "sealpaa/util/parallel.hpp"

namespace sealpaa::baseline {

/// Exact probabilities and error moments from full enumeration.
struct ExhaustiveReport {
  std::uint64_t assignments = 0;   // 2^(2N+1)
  double p_stage_success = 0.0;    // paper's success event
  double p_value_correct = 0.0;    // numeric output incl. carry-out correct
  double p_sum_bits_correct = 0.0; // numeric sum bits correct (carry ignored)
  double mean_error = 0.0;         // E[approx - exact]
  double mean_abs_error = 0.0;     // mean error distance (MED)
  double mean_squared_error = 0.0; // E[(approx - exact)^2]
  std::int64_t worst_case_error = 0;  // max |approx - exact| over support
  /// Full signed-error distribution: error value -> probability.
  std::map<std::int64_t, double> error_distribution;
  sim::Kernel kernel = sim::Kernel::kBitSliced;  // evaluation backend used
  std::uint64_t lane_batches = 0;  // 64-lane kernel passes (bit-sliced)
  std::uint64_t masked_lanes = 0;  // dead lanes in partial batches
  util::ShardTimings shard_timings;   // per-shard breakdown
};

class WeightedExhaustive {
 public:
  /// Enumerates all assignments, sharded along the `a` operand over a
  /// thread pool (`threads == 0` → the shared pool).  Shard boundaries
  /// and the ordered Kahan reduction depend only on the width, so every
  /// thread count produces a bit-identical report — and so does either
  /// `kernel` (the bit-sliced chain evaluation feeds the exact same
  /// Kahan-add sequence).  Throws std::invalid_argument when the widths
  /// mismatch or the width exceeds `max_width` (guard against
  /// accidentally requesting a 2^41-case enumeration).
  [[nodiscard]] static ExhaustiveReport analyze(
      const multibit::AdderChain& chain,
      const multibit::InputProfile& profile, std::size_t max_width = 14,
      unsigned threads = 0, sim::Kernel kernel = sim::Kernel::kBitSliced);

  /// Ground truth for correlated-operand profiles (validates the
  /// JointInputProfile overload of RecursiveAnalyzer::analyze).  Same
  /// sharding contract as analyze().
  [[nodiscard]] static ExhaustiveReport analyze_joint(
      const multibit::AdderChain& chain,
      const multibit::JointInputProfile& profile,
      std::size_t max_width = 14, unsigned threads = 0,
      sim::Kernel kernel = sim::Kernel::kBitSliced);
};

}  // namespace sealpaa::baseline
