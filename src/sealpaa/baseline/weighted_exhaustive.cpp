#include "sealpaa/baseline/weighted_exhaustive.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "sealpaa/prob/kahan.hpp"
#include "sealpaa/sim/bitsliced.hpp"
#include "sealpaa/sim/metrics.hpp"
#include "sealpaa/util/parallel.hpp"

namespace sealpaa::baseline {

namespace {

// Partial sums of one shard of the enumeration.  Kahan compensation is
// kept per shard; the ordered reduction then folds the compensated shard
// values with a second Kahan pass, so the totals stay honest to the last
// ulp and are bit-identical for every thread count.
struct EnumerationShard {
  prob::KahanSum stage_success;
  prob::KahanSum value_correct;
  prob::KahanSum sum_bits_correct;
  prob::KahanSum mean_error;
  prob::KahanSum mean_abs;
  prob::KahanSum mean_sq;
  std::int64_t worst_case_error = 0;
  std::map<std::int64_t, double> error_distribution;
  std::uint64_t lane_batches = 0;
  std::uint64_t masked_lanes = 0;
};

struct EnumerationTotals {
  prob::KahanSum stage_success;
  prob::KahanSum value_correct;
  prob::KahanSum sum_bits_correct;
  prob::KahanSum mean_error;
  prob::KahanSum mean_abs;
  prob::KahanSum mean_sq;
  std::int64_t worst_case_error = 0;
  std::map<std::int64_t, double> error_distribution;
  std::uint64_t lane_batches = 0;
  std::uint64_t masked_lanes = 0;
};

// Scores one weighted case outcome into `shard`.  Both kernels funnel
// through this single accumulator, so the Kahan-add sequence — and with
// it every last ulp of the report — is identical whichever backend
// produced the outcome flags.
void accumulate_outcome(bool stage_success, bool value_correct,
                        bool sum_bits_correct, std::int64_t error,
                        double weight, EnumerationShard& shard) {
  if (stage_success) shard.stage_success.add(weight);
  if (value_correct) shard.value_correct.add(weight);
  if (sum_bits_correct) shard.sum_bits_correct.add(weight);
  shard.mean_error.add(weight * static_cast<double>(error));
  shard.mean_abs.add(weight * std::abs(static_cast<double>(error)));
  shard.mean_sq.add(weight * static_cast<double>(error) *
                    static_cast<double>(error));
  if (sim::worse_error(error, shard.worst_case_error)) {
    shard.worst_case_error = error;
  }
  shard.error_distribution[error] += weight;
}

// Scalar path: one traced walk per weighted (a, b, cin) case.
void accumulate_case(const multibit::AdderChain& chain, std::uint64_t a,
                     std::uint64_t b, bool cin, double weight, std::size_t n,
                     EnumerationShard& shard) {
  const multibit::TracedAddResult traced = chain.evaluate_traced(a, b, cin);
  const multibit::AddResult exact = multibit::exact_add(a, b, cin, n);
  const std::uint64_t approx_value = traced.outputs.value(n);
  const std::uint64_t exact_value = exact.value(n);
  // Unsigned difference, reinterpreted: no signed overflow at width 63.
  const auto error = static_cast<std::int64_t>(approx_value - exact_value);
  accumulate_outcome(traced.all_stages_success, approx_value == exact_value,
                     traced.outputs.sum_bits == exact.sum_bits, error, weight,
                     shard);
}

// Scores the active lanes of one kernel batch in ascending lane order —
// the same (b ascending, cin inner) case order as the scalar loops.
// Zero-weight lanes are skipped exactly where the scalar path `continue`s.
void accumulate_lanes(const sim::BitSlicedKernel::Result& result,
                      const std::array<double, 64>& weights,
                      std::uint64_t count, EnumerationShard& shard) {
  for (std::uint64_t lane = 0; lane < count; ++lane) {
    const double weight = weights[lane];
    if (weight == 0.0) continue;
    const std::uint64_t bit = 1ULL << lane;
    accumulate_outcome((result.stage_fail_mask & bit) == 0,
                       (result.value_error_mask & bit) == 0,
                       (result.sum_bits_error_mask & bit) == 0,
                       result.error[static_cast<std::size_t>(lane)], weight,
                       shard);
  }
}

// Bit-sliced path: sweeps the whole (b, cin) sub-space for one `a`, 64
// lanes per kernel pass, with per-lane weights supplied by
// `weight_ab_of(b)` (computed in the same order and with the same
// arithmetic as the scalar loops).  Lane layout matches the exhaustive
// sweep: lane l covers (b = b_base + (l >> 1), cin = l & 1).
template <typename WeightAb>
void enumerate_b_space_bitsliced(const sim::BitSlicedKernel& kernel,
                                 std::uint64_t a, const WeightAb& weight_ab_of,
                                 double p_cin0, double p_cin1,
                                 EnumerationShard& shard) {
  const std::size_t n = kernel.width();
  std::array<std::uint64_t, 64> a_words{};
  std::array<std::uint64_t, 64> b_words{};
  std::array<double, 64> weights{};
  const std::uint64_t cin_word = sim::kLaneCounterBit[0];
  for (std::size_t i = 0; i < n; ++i) {
    a_words[i] = ((a >> i) & 1ULL) != 0 ? ~0ULL : 0ULL;
  }

  if (n + 1 >= 6) {
    const std::uint64_t batches_per_a = 1ULL << (n + 1 - 6);
    for (std::size_t i = 0; i < 5; ++i) {
      b_words[i] = sim::kLaneCounterBit[i + 1];
    }
    for (std::uint64_t batch = 0; batch < batches_per_a; ++batch) {
      const std::uint64_t b_base = batch << 5;
      for (std::size_t i = 5; i < n; ++i) {
        b_words[i] = ((b_base >> i) & 1ULL) != 0 ? ~0ULL : 0ULL;
      }
      bool any = false;
      for (std::uint64_t k = 0; k < 32; ++k) {
        const double weight_ab = weight_ab_of(b_base + k);
        weights[2 * k] = weight_ab * p_cin0;
        weights[2 * k + 1] = weight_ab * p_cin1;
        any = any || weights[2 * k] != 0.0 || weights[2 * k + 1] != 0.0;
      }
      // An all-zero-weight batch contributes nothing — the scalar path
      // never evaluates those cases either.
      if (!any) continue;
      const sim::BitSlicedKernel::Result result =
          kernel.run_packed(a_words.data(), b_words.data(), cin_word, ~0ULL);
      accumulate_lanes(result, weights, 64, shard);
      ++shard.lane_batches;
    }
  } else {
    // Width < 5: the whole (b, cin) sub-space fits one partial batch.
    const std::uint64_t inner = 1ULL << (n + 1);
    const std::uint64_t lane_mask = (1ULL << inner) - 1ULL;
    for (std::size_t i = 0; i < n; ++i) {
      b_words[i] = sim::kLaneCounterBit[i + 1];
    }
    bool any = false;
    for (std::uint64_t k = 0; k < (inner >> 1); ++k) {
      const double weight_ab = weight_ab_of(k);
      weights[2 * k] = weight_ab * p_cin0;
      weights[2 * k + 1] = weight_ab * p_cin1;
      any = any || weights[2 * k] != 0.0 || weights[2 * k + 1] != 0.0;
    }
    if (!any) return;
    const sim::BitSlicedKernel::Result result =
        kernel.run_packed(a_words.data(), b_words.data(), cin_word, lane_mask);
    accumulate_lanes(result, weights, inner, shard);
    ++shard.lane_batches;
    shard.masked_lanes += 64 - inner;
  }
}

// Ordered merge: shards arrive in ascending `a`-range order; the
// worst-case comparator is itself order-independent (sim::worse_error),
// and the per-key distribution additions resolve exactly as in a
// sequential sweep.
void merge_shard(EnumerationTotals& totals, EnumerationShard&& shard) {
  totals.stage_success.add(shard.stage_success.value());
  totals.value_correct.add(shard.value_correct.value());
  totals.sum_bits_correct.add(shard.sum_bits_correct.value());
  totals.mean_error.add(shard.mean_error.value());
  totals.mean_abs.add(shard.mean_abs.value());
  totals.mean_sq.add(shard.mean_sq.value());
  if (sim::worse_error(shard.worst_case_error, totals.worst_case_error)) {
    totals.worst_case_error = shard.worst_case_error;
  }
  for (const auto& [error, weight] : shard.error_distribution) {
    totals.error_distribution[error] += weight;
  }
  totals.lane_batches += shard.lane_batches;
  totals.masked_lanes += shard.masked_lanes;
}

ExhaustiveReport report_from(EnumerationTotals&& totals,
                             std::uint64_t assignments, sim::Kernel kernel,
                             util::ShardTimings&& timings) {
  ExhaustiveReport report;
  report.assignments = assignments;
  report.p_stage_success = totals.stage_success.value();
  report.p_value_correct = totals.value_correct.value();
  report.p_sum_bits_correct = totals.sum_bits_correct.value();
  report.mean_error = totals.mean_error.value();
  report.mean_abs_error = totals.mean_abs.value();
  report.mean_squared_error = totals.mean_sq.value();
  report.worst_case_error = totals.worst_case_error;
  report.error_distribution = std::move(totals.error_distribution);
  report.kernel = kernel;
  report.lane_batches = totals.lane_batches;
  report.masked_lanes = totals.masked_lanes;
  report.shard_timings = std::move(timings);
  return report;
}

// Shard grain along the `a` operand; a function of the width only so the
// enumeration is bit-stable across thread counts.
std::uint64_t enumeration_grain(std::uint64_t limit) {
  return std::max<std::uint64_t>(1, limit / 64);
}

}  // namespace

ExhaustiveReport WeightedExhaustive::analyze(
    const multibit::AdderChain& chain, const multibit::InputProfile& profile,
    std::size_t max_width, unsigned threads, sim::Kernel kernel) {
  if (chain.width() != profile.width()) {
    throw std::invalid_argument(
        "WeightedExhaustive: chain and profile widths differ");
  }
  const std::size_t n = chain.width();
  if (n > max_width) {
    throw std::invalid_argument(
        "WeightedExhaustive: width " + std::to_string(n) +
        " exceeds the enumeration guard (" + std::to_string(max_width) + ")");
  }

  // Precompute per-bit probabilities in both polarities so the inner loop
  // is multiply-only.
  std::vector<double> pa1(n);
  std::vector<double> pa0(n);
  std::vector<double> pb1(n);
  std::vector<double> pb0(n);
  for (std::size_t i = 0; i < n; ++i) {
    pa1[i] = profile.p_a(i);
    pa0[i] = 1.0 - pa1[i];
    pb1[i] = profile.p_b(i);
    pb0[i] = 1.0 - pb1[i];
  }
  const double p_cin1 = profile.p_cin();
  const double p_cin0 = 1.0 - p_cin1;

  const std::uint64_t limit = 1ULL << n;
  const sim::BitSlicedKernel sliced(chain);
  util::ShardTimings timings;
  EnumerationTotals totals = util::with_pool(threads, [&](util::ThreadPool&
                                                              pool) {
    return util::parallel_map_reduce(
        pool, 0, limit, enumeration_grain(limit), EnumerationTotals{},
        [&](std::uint64_t a_begin, std::uint64_t a_end) {
          EnumerationShard shard;
          for (std::uint64_t a = a_begin; a < a_end; ++a) {
            double weight_a = 1.0;
            for (std::size_t i = 0; i < n; ++i) {
              weight_a *= ((a >> i) & 1ULL) != 0 ? pa1[i] : pa0[i];
            }
            if (weight_a == 0.0) continue;
            if (kernel == sim::Kernel::kBitSliced) {
              enumerate_b_space_bitsliced(
                  sliced, a,
                  [&](std::uint64_t b) {
                    double weight_ab = weight_a;
                    for (std::size_t i = 0; i < n; ++i) {
                      weight_ab *= ((b >> i) & 1ULL) != 0 ? pb1[i] : pb0[i];
                    }
                    return weight_ab;
                  },
                  p_cin0, p_cin1, shard);
              continue;
            }
            for (std::uint64_t b = 0; b < limit; ++b) {
              double weight_ab = weight_a;
              for (std::size_t i = 0; i < n; ++i) {
                weight_ab *= ((b >> i) & 1ULL) != 0 ? pb1[i] : pb0[i];
              }
              if (weight_ab == 0.0) continue;
              for (int cin = 0; cin < 2; ++cin) {
                const double weight = weight_ab * (cin != 0 ? p_cin1 : p_cin0);
                if (weight == 0.0) continue;
                accumulate_case(chain, a, b, cin != 0, weight, n, shard);
              }
            }
          }
          return shard;
        },
        [](EnumerationTotals& acc, EnumerationShard&& shard) {
          merge_shard(acc, std::move(shard));
        },
        &timings);
  });

  return report_from(std::move(totals), limit * limit * 2, kernel,
                     std::move(timings));
}

ExhaustiveReport WeightedExhaustive::analyze_joint(
    const multibit::AdderChain& chain,
    const multibit::JointInputProfile& profile, std::size_t max_width,
    unsigned threads, sim::Kernel kernel) {
  if (chain.width() != profile.width()) {
    throw std::invalid_argument(
        "WeightedExhaustive::analyze_joint: widths differ");
  }
  const std::size_t n = chain.width();
  if (n > max_width) {
    throw std::invalid_argument(
        "WeightedExhaustive::analyze_joint: width exceeds the guard");
  }
  const double p_cin1 = profile.p_cin();
  const double p_cin0 = 1.0 - p_cin1;

  const std::uint64_t limit = 1ULL << n;
  const sim::BitSlicedKernel sliced(chain);
  util::ShardTimings timings;
  EnumerationTotals totals = util::with_pool(threads, [&](util::ThreadPool&
                                                              pool) {
    return util::parallel_map_reduce(
        pool, 0, limit, enumeration_grain(limit), EnumerationTotals{},
        [&](std::uint64_t a_begin, std::uint64_t a_end) {
          EnumerationShard shard;
          for (std::uint64_t a = a_begin; a < a_end; ++a) {
            if (kernel == sim::Kernel::kBitSliced) {
              enumerate_b_space_bitsliced(
                  sliced, a,
                  [&](std::uint64_t b) {
                    double weight_ab = 1.0;
                    for (std::size_t i = 0; i < n; ++i) {
                      const std::size_t idx =
                          (((a >> i) & 1ULL) << 1) | ((b >> i) & 1ULL);
                      weight_ab *= profile.joint(i)[idx];
                    }
                    return weight_ab;
                  },
                  p_cin0, p_cin1, shard);
              continue;
            }
            for (std::uint64_t b = 0; b < limit; ++b) {
              double weight_ab = 1.0;
              for (std::size_t i = 0; i < n; ++i) {
                const std::size_t idx =
                    (((a >> i) & 1ULL) << 1) | ((b >> i) & 1ULL);
                weight_ab *= profile.joint(i)[idx];
              }
              if (weight_ab == 0.0) continue;
              for (int cin = 0; cin < 2; ++cin) {
                const double weight = weight_ab * (cin != 0 ? p_cin1 : p_cin0);
                if (weight == 0.0) continue;
                accumulate_case(chain, a, b, cin != 0, weight, n, shard);
              }
            }
          }
          return shard;
        },
        [](EnumerationTotals& acc, EnumerationShard&& shard) {
          merge_shard(acc, std::move(shard));
        },
        &timings);
  });

  return report_from(std::move(totals), limit * limit * 2, kernel,
                     std::move(timings));
}

}  // namespace sealpaa::baseline
