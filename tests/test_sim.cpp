// Simulator tests: exhaustive sweep vs analytical, Monte Carlo
// convergence, the metrics accumulator and the bit-sliced kernel's
// building blocks (LUT compilation, transpose, batched accumulation).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/adders/cell.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/prob/rng.hpp"
#include "sealpaa/sim/bitsliced.hpp"
#include "sealpaa/sim/exhaustive.hpp"
#include "sealpaa/sim/kernel.hpp"
#include "sealpaa/sim/metrics.hpp"
#include "sealpaa/sim/montecarlo.hpp"

namespace {

using sealpaa::adders::accurate;
using sealpaa::adders::lpaa;
using sealpaa::analysis::RecursiveAnalyzer;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;
using sealpaa::sim::BitSlicedKernel;
using sealpaa::sim::compile_lut;
using sealpaa::sim::ErrorMetrics;
using sealpaa::sim::ExhaustiveSimulator;
using sealpaa::sim::Kernel;
using sealpaa::sim::kLaneCounterBit;
using sealpaa::sim::MonteCarloSimulator;
using sealpaa::sim::SlicedLut;
using sealpaa::sim::transpose64;
using sealpaa::sim::transpose64_accelerated;
using sealpaa::sim::transpose64_fast;

/// Exact equality across every observable of two metric accumulators —
/// the bit-identity contract, not a tolerance comparison.
void expect_metrics_identical(const ErrorMetrics& a, const ErrorMetrics& b) {
  EXPECT_EQ(a.cases(), b.cases());
  EXPECT_EQ(a.value_errors(), b.value_errors());
  EXPECT_EQ(a.stage_failures(), b.stage_failures());
  EXPECT_EQ(a.mean_error(), b.mean_error());
  EXPECT_EQ(a.mean_abs_error(), b.mean_abs_error());
  EXPECT_EQ(a.mean_squared_error(), b.mean_squared_error());
  EXPECT_EQ(a.worst_case_error(), b.worst_case_error());
}

TEST(Metrics, BasicAccumulation) {
  ErrorMetrics metrics;
  metrics.add(10, 10, true);    // exact
  metrics.add(12, 10, false);   // +2 error
  metrics.add(7, 10, false);    // -3 error
  EXPECT_EQ(metrics.cases(), 3u);
  EXPECT_EQ(metrics.value_errors(), 2u);
  EXPECT_EQ(metrics.stage_failures(), 2u);
  EXPECT_NEAR(metrics.error_rate(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(metrics.mean_error(), (2.0 - 3.0) / 3.0, 1e-12);
  EXPECT_NEAR(metrics.mean_abs_error(), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(metrics.mean_squared_error(), 13.0 / 3.0, 1e-12);
  EXPECT_EQ(metrics.worst_case_error(), -3);
}

TEST(Metrics, MergeCombinesShards) {
  ErrorMetrics a;
  a.add(5, 5, true);
  a.add(9, 5, false);
  ErrorMetrics b;
  b.add(0, 10, false);
  a.merge(b);
  EXPECT_EQ(a.cases(), 3u);
  EXPECT_EQ(a.value_errors(), 2u);
  EXPECT_EQ(a.worst_case_error(), -10);
}

TEST(Metrics, EmptyIsZero) {
  const ErrorMetrics metrics;
  EXPECT_DOUBLE_EQ(metrics.error_rate(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.mean_squared_error(), 0.0);
}

TEST(Metrics, WorstCaseTieBreaksToNegative) {
  // +3 and -3 have equal magnitude; whichever arrives first, the
  // reported worst case must be the same (the negative one).
  ErrorMetrics plus_first;
  plus_first.add(13, 10, false);  // +3
  plus_first.add(7, 10, false);   // -3
  ErrorMetrics minus_first;
  minus_first.add(7, 10, false);
  minus_first.add(13, 10, false);
  EXPECT_EQ(plus_first.worst_case_error(), -3);
  EXPECT_EQ(minus_first.worst_case_error(), -3);
}

TEST(Metrics, WorstCaseHandlesInt64MinMagnitude) {
  // approx - exact == INT64_MIN: |e| overflows std::int64_t, and
  // std::llabs on it is UB.  The unsigned-domain comparator must still
  // rank it above everything else.
  ErrorMetrics metrics;
  metrics.add(0, static_cast<std::uint64_t>(std::numeric_limits<
                     std::int64_t>::max()) + 1,
              false);  // error INT64_MIN
  metrics.add(100, 0, false);
  EXPECT_EQ(metrics.worst_case_error(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(sealpaa::sim::error_magnitude(
                std::numeric_limits<std::int64_t>::min()),
            0x8000'0000'0000'0000ULL);
}

TEST(Metrics, MergeIdentityAndAssociativity) {
  const auto sample = [](int which) {
    ErrorMetrics metrics;
    switch (which) {
      case 0:
        metrics.add(13, 10, false);  // +3
        metrics.add(10, 10, true);
        break;
      case 1:
        metrics.add(7, 10, false);  // -3, ties +3 in magnitude
        break;
      default:
        metrics.add(2, 10, false);  // -8, strict worst
        metrics.add(11, 10, false);
        break;
    }
    return metrics;
  };
  const auto equal = [](const ErrorMetrics& a, const ErrorMetrics& b) {
    return a.cases() == b.cases() && a.value_errors() == b.value_errors() &&
           a.stage_failures() == b.stage_failures() &&
           a.mean_error() == b.mean_error() &&
           a.mean_abs_error() == b.mean_abs_error() &&
           a.mean_squared_error() == b.mean_squared_error() &&
           a.worst_case_error() == b.worst_case_error();
  };

  // Identity: merging a default-constructed accumulator changes nothing.
  ErrorMetrics with_identity = sample(0);
  with_identity.merge(ErrorMetrics{});
  EXPECT_TRUE(equal(with_identity, sample(0)));
  ErrorMetrics identity_first;
  identity_first.merge(sample(0));
  EXPECT_TRUE(equal(identity_first, sample(0)));

  // Associativity + permutation: every merge order of the three shards
  // reports the same worst case and moments.
  const int orders[][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                           {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  ErrorMetrics reference = sample(0);
  reference.merge(sample(1));
  reference.merge(sample(2));
  for (const auto& order : orders) {
    ErrorMetrics left_fold = sample(order[0]);
    left_fold.merge(sample(order[1]));
    left_fold.merge(sample(order[2]));
    EXPECT_TRUE(equal(left_fold, reference));

    ErrorMetrics right_first = sample(order[1]);
    right_first.merge(sample(order[2]));
    ErrorMetrics right_fold = sample(order[0]);
    right_fold.merge(right_first);
    EXPECT_EQ(right_fold.worst_case_error(), reference.worst_case_error());
    EXPECT_EQ(right_fold.cases(), reference.cases());
  }
}

TEST(Kernel, ParseAndNameRoundTrip) {
  EXPECT_EQ(sealpaa::sim::parse_kernel("scalar"), Kernel::kScalar);
  EXPECT_EQ(sealpaa::sim::parse_kernel("bitsliced"), Kernel::kBitSliced);
  EXPECT_EQ(sealpaa::sim::kernel_name(Kernel::kScalar), "scalar");
  EXPECT_EQ(sealpaa::sim::kernel_name(Kernel::kBitSliced), "bitsliced");
  EXPECT_THROW((void)sealpaa::sim::parse_kernel("simd"),
               std::invalid_argument);
  EXPECT_THROW((void)sealpaa::sim::parse_kernel(""), std::invalid_argument);
}

TEST(BitSliced, CompileLutMatchesEveryTruthTable) {
  // Exhaustive over all 256 3-input functions: the compiled lane-word
  // form must reproduce the truth table both on broadcast inputs (all
  // lanes the same row) and on counter-patterned inputs (lane l holds
  // row l & 7).
  for (unsigned truth = 0; truth < 256; ++truth) {
    const SlicedLut lut = compile_lut(static_cast<std::uint8_t>(truth));
    for (std::uint8_t row = 0; row < 8; ++row) {
      const std::uint64_t a = ((row >> 2) & 1) != 0 ? ~0ULL : 0ULL;
      const std::uint64_t b = ((row >> 1) & 1) != 0 ? ~0ULL : 0ULL;
      const std::uint64_t c = (row & 1) != 0 ? ~0ULL : 0ULL;
      const std::uint64_t expected = ((truth >> row) & 1U) != 0 ? ~0ULL : 0ULL;
      EXPECT_EQ(lut.eval(a, b, c), expected)
          << "truth 0x" << std::hex << truth << " row " << int(row);
    }
    // Mixed lanes: row of lane l is l & 7 (a = bit2, b = bit1, c = bit0).
    std::uint64_t expected = 0;
    for (unsigned lane = 0; lane < 64; ++lane) {
      if (((truth >> (lane & 7)) & 1U) != 0) expected |= 1ULL << lane;
    }
    EXPECT_EQ(lut.eval(kLaneCounterBit[2], kLaneCounterBit[1],
                       kLaneCounterBit[0]),
              expected)
        << "truth 0x" << std::hex << truth;
  }
}

TEST(BitSliced, TransposeIndexContractAndInvolution) {
  sealpaa::prob::SplitMix64 rng(0xb17'511ced'7e57ULL);
  std::array<std::uint64_t, 64> m;
  for (auto& row : m) row = rng.next();
  const std::array<std::uint64_t, 64> original = m;
  transpose64(m);
  for (unsigned i = 0; i < 64; ++i) {
    for (unsigned l = 0; l < 64; ++l) {
      ASSERT_EQ((m[i] >> l) & 1ULL, (original[l] >> i) & 1ULL)
          << "transposed[" << i << "] bit " << l;
    }
  }
  transpose64(m);
  EXPECT_EQ(m, original);
}

TEST(BitSliced, TransposeFastMatchesPortable) {
  // transpose64_fast dispatches to the AVX-512 + GFNI kernel when the
  // CPU has one; either way it must be the exact same bit permutation as
  // the portable reference (the production kernel runs on whichever
  // implementation this machine selects).
  sealpaa::prob::SplitMix64 rng(0x517'ced'fa57ULL);
  for (int trial = 0; trial < 64; ++trial) {
    std::array<std::uint64_t, 64> fast;
    for (auto& row : fast) row = rng.next();
    std::array<std::uint64_t, 64> portable = fast;
    transpose64(portable);
    transpose64_fast(fast);
    ASSERT_EQ(fast, portable)
        << "trial " << trial
        << " accelerated=" << transpose64_accelerated();
  }
}

TEST(BitSliced, GroupMatchesSingleBatches) {
  // run_packed_group's contract: results[j] is bit-identical to
  // run_packed on batch j alone, for arbitrary cells (including ones
  // whose tables only compile to generic SOPs) at widths from mid-range
  // to the 63-bit carry-out boundary.  On AVX-512 hardware this pins
  // the VPTERNLOGQ group kernel to the single-batch path; elsewhere it
  // pins the peeling fallback.
  sealpaa::prob::SplitMix64 rng(0x6'40'c7'2026ULL);
  constexpr std::size_t kGroup = BitSlicedKernel::kGroupBatches;
  for (const std::size_t width : {std::size_t{5}, std::size_t{9},
                                  std::size_t{16}, std::size_t{63}}) {
    std::vector<sealpaa::adders::AdderCell> cells;
    for (std::size_t s = 0; s < width; ++s) {
      if ((rng.next() & 3ULL) == 0) {
        cells.push_back(accurate());
        continue;
      }
      std::string sum_column(8, '0');
      std::string carry_column(8, '0');
      const std::uint64_t bits = rng.next();
      for (std::size_t row = 0; row < 8; ++row) {
        if (((bits >> row) & 1ULL) != 0) sum_column[row] = '1';
        if (((bits >> (8 + row)) & 1ULL) != 0) carry_column[row] = '1';
      }
      cells.push_back(sealpaa::adders::AdderCell::from_columns(
          "G" + std::to_string(s), sum_column, carry_column,
          "group-kernel test cell"));
    }
    const AdderChain chain(cells);
    const BitSlicedKernel kernel(chain);

    std::array<std::uint64_t, 64> a_words;
    std::array<std::uint64_t, 64 * kGroup> b_group;
    for (auto& w : a_words) w = rng.next();
    for (auto& w : b_group) w = rng.next();
    const std::uint64_t cin_word = rng.next();

    std::array<BitSlicedKernel::Result, kGroup> grouped;
    kernel.run_packed_group(a_words.data(), b_group.data(), cin_word,
                            grouped.data());

    std::array<std::uint64_t, 64> b_words{};
    for (std::size_t j = 0; j < kGroup; ++j) {
      for (std::size_t i = 0; i < width; ++i) {
        b_words[i] = b_group[kGroup * i + j];
      }
      const BitSlicedKernel::Result single =
          kernel.run_packed(a_words.data(), b_words.data(), cin_word, ~0ULL);
      ASSERT_EQ(grouped[j].lane_mask, single.lane_mask);
      ASSERT_EQ(grouped[j].stage_fail_mask, single.stage_fail_mask)
          << "width " << width << " batch " << j;
      ASSERT_EQ(grouped[j].value_error_mask, single.value_error_mask)
          << "width " << width << " batch " << j;
      ASSERT_EQ(grouped[j].sum_bits_error_mask, single.sum_bits_error_mask)
          << "width " << width << " batch " << j;
      ASSERT_EQ(grouped[j].error, single.error)
          << "width " << width << " batch " << j
          << " accelerated=" << transpose64_accelerated();
      ASSERT_EQ(grouped[j].first_failed, single.first_failed)
          << "width " << width << " batch " << j;
    }
  }
}

TEST(Metrics, AddBatchMatchesSixtyFourScalarAdds) {
  // The satellite-3 contract: one add_batch call must leave the
  // accumulator in exactly the state 64 scalar add() calls (ascending
  // lane order) produce — including the floating-point sums.
  sealpaa::prob::SplitMix64 rng(0xadd'b47c4'2026ULL);
  for (const std::uint64_t lane_mask :
       {~0ULL, (1ULL << 17) - 1ULL, 0x0123'4567'89ab'cdefULL}) {
    std::array<std::uint64_t, 64> approx{};
    std::array<std::uint64_t, 64> exact{};
    std::array<bool, 64> success{};
    std::uint64_t value_error_mask = 0;
    std::uint64_t stage_fail_mask = 0;
    std::array<std::int64_t, 64> error{};
    for (unsigned lane = 0; lane < 64; ++lane) {
      if (((lane_mask >> lane) & 1ULL) == 0) continue;
      exact[lane] = rng.next() & 0x1FFFF;
      // Mix exact lanes, positive and negative errors.
      const std::uint64_t roll = rng.next();
      if ((roll & 3) == 0) {
        approx[lane] = exact[lane];
        success[lane] = (roll & 4) != 0;
      } else {
        approx[lane] = rng.next() & 0x1FFFF;
        success[lane] = false;
      }
      if (approx[lane] != exact[lane]) {
        value_error_mask |= 1ULL << lane;
        error[lane] = static_cast<std::int64_t>(approx[lane]) -
                      static_cast<std::int64_t>(exact[lane]);
      }
      if (!success[lane]) stage_fail_mask |= 1ULL << lane;
    }

    ErrorMetrics batched;
    batched.add_batch(lane_mask, value_error_mask, stage_fail_mask, error);
    ErrorMetrics scalar;
    for (unsigned lane = 0; lane < 64; ++lane) {
      if (((lane_mask >> lane) & 1ULL) == 0) continue;
      scalar.add(approx[lane], exact[lane], success[lane]);
    }
    expect_metrics_identical(batched, scalar);
  }
}

TEST(Metrics, AddBatchEmptyMaskIsIdentity) {
  ErrorMetrics metrics;
  metrics.add_batch(0, 0, 0, std::array<std::int64_t, 64>{});
  EXPECT_EQ(metrics.cases(), 0u);
  EXPECT_EQ(metrics.mean_error(), 0.0);
}

TEST(ExhaustiveSim, StageFailureRateMatchesAnalyticalAtHalf) {
  // With equally probable inputs the exhaustive rate is the exact
  // probability; it must equal the recursive analyzer to double
  // precision (the paper's "100 percent match", Table 6 row 1).
  for (int cell = 1; cell <= 7; ++cell) {
    const AdderChain chain = AdderChain::homogeneous(lpaa(cell), 6);
    const auto report = ExhaustiveSimulator::run(chain);
    const double analytical = RecursiveAnalyzer::error_probability(
        lpaa(cell), InputProfile::uniform(6, 0.5));
    EXPECT_NEAR(report.metrics.stage_failure_rate(), analytical, 1e-12)
        << "LPAA" << cell;
  }
}

TEST(ExhaustiveSim, AccurateChainHasNoErrors) {
  const auto report =
      ExhaustiveSimulator::run(AdderChain::homogeneous(accurate(), 7));
  EXPECT_EQ(report.metrics.value_errors(), 0u);
  EXPECT_EQ(report.metrics.stage_failures(), 0u);
  EXPECT_EQ(report.metrics.cases(), 1ULL << 15);
}

TEST(ExhaustiveSim, CountsCasesAndOps) {
  const auto report =
      ExhaustiveSimulator::run(AdderChain::homogeneous(lpaa(1), 4));
  EXPECT_EQ(report.metrics.cases(), 1ULL << 9);
  EXPECT_EQ(report.bit_operations, (1ULL << 9) * 4);
  EXPECT_GE(report.seconds, 0.0);
}

TEST(ExhaustiveSim, GuardRejectsHugeWidths) {
  EXPECT_THROW(
      (void)ExhaustiveSimulator::run(AdderChain::homogeneous(lpaa(1), 20)),
      std::invalid_argument);
}

TEST(MonteCarlo, ConvergesToAnalyticalWithinCi) {
  const std::size_t width = 8;
  const InputProfile profile = InputProfile::uniform(width, 0.1);
  for (int cell : {1, 5, 7}) {
    const AdderChain chain = AdderChain::homogeneous(lpaa(cell), width);
    const auto report = MonteCarloSimulator::run(chain, profile, 200000);
    const double analytical =
        RecursiveAnalyzer::error_probability(lpaa(cell), profile);
    EXPECT_TRUE(report.stage_failure_ci.contains(analytical) ||
                std::abs(report.metrics.stage_failure_rate() - analytical) <
                    0.005)
        << "LPAA" << cell << ": MC " << report.metrics.stage_failure_rate()
        << " vs analytical " << analytical;
  }
}

TEST(MonteCarlo, DeterministicForSeed) {
  const InputProfile profile = InputProfile::uniform(6, 0.3);
  const AdderChain chain = AdderChain::homogeneous(lpaa(4), 6);
  const auto a = MonteCarloSimulator::run(chain, profile, 10000, 77);
  const auto b = MonteCarloSimulator::run(chain, profile, 10000, 77);
  EXPECT_EQ(a.metrics.stage_failures(), b.metrics.stage_failures());
  EXPECT_EQ(a.metrics.value_errors(), b.metrics.value_errors());
}

TEST(MonteCarlo, DifferentSeedsGiveDifferentButCloseEstimates) {
  const InputProfile profile = InputProfile::uniform(6, 0.3);
  const AdderChain chain = AdderChain::homogeneous(lpaa(4), 6);
  const auto a = MonteCarloSimulator::run(chain, profile, 50000, 1);
  const auto b = MonteCarloSimulator::run(chain, profile, 50000, 2);
  EXPECT_NE(a.metrics.stage_failures(), b.metrics.stage_failures());
  EXPECT_NEAR(a.metrics.stage_failure_rate(), b.metrics.stage_failure_rate(),
              0.02);
}

TEST(MonteCarlo, CiWidthShrinksWithSamples) {
  const InputProfile profile = InputProfile::uniform(6, 0.5);
  const AdderChain chain = AdderChain::homogeneous(lpaa(2), 6);
  const auto small = MonteCarloSimulator::run(chain, profile, 1000);
  const auto large = MonteCarloSimulator::run(chain, profile, 100000);
  EXPECT_LT(large.stage_failure_ci.width(), small.stage_failure_ci.width());
}

TEST(MonteCarlo, WidthMismatchThrows) {
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  const AdderChain chain = AdderChain::homogeneous(lpaa(1), 5);
  EXPECT_THROW((void)MonteCarloSimulator::run(chain, profile, 10),
               std::invalid_argument);
}

TEST(MonteCarloParallel, DeterministicForSeedAndThreadCount) {
  const InputProfile profile = InputProfile::uniform(8, 0.25);
  const AdderChain chain = AdderChain::homogeneous(lpaa(3), 8);
  const auto a = MonteCarloSimulator::run_parallel(chain, profile, 40000, 4, 9);
  const auto b = MonteCarloSimulator::run_parallel(chain, profile, 40000, 4, 9);
  EXPECT_EQ(a.metrics.stage_failures(), b.metrics.stage_failures());
  EXPECT_EQ(a.metrics.value_errors(), b.metrics.value_errors());
  EXPECT_EQ(a.metrics.cases(), 40000u);
}

TEST(MonteCarloParallel, AgreesWithSerialWithinNoise) {
  const InputProfile profile = InputProfile::uniform(8, 0.1);
  const AdderChain chain = AdderChain::homogeneous(lpaa(6), 8);
  const auto serial = MonteCarloSimulator::run(chain, profile, 100000);
  const auto parallel =
      MonteCarloSimulator::run_parallel(chain, profile, 100000, 3);
  EXPECT_NEAR(serial.metrics.stage_failure_rate(),
              parallel.metrics.stage_failure_rate(), 0.01);
}

TEST(MonteCarloParallel, SingleThreadEqualsSerial) {
  const InputProfile profile = InputProfile::uniform(6, 0.4);
  const AdderChain chain = AdderChain::homogeneous(lpaa(1), 6);
  const auto serial = MonteCarloSimulator::run(chain, profile, 20000, 5);
  const auto parallel =
      MonteCarloSimulator::run_parallel(chain, profile, 20000, 1, 5);
  EXPECT_EQ(serial.metrics.stage_failures(),
            parallel.metrics.stage_failures());
}

TEST(MonteCarloParallel, OddSampleCountsFullyAccounted) {
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  const AdderChain chain = AdderChain::homogeneous(lpaa(2), 4);
  const auto report =
      MonteCarloSimulator::run_parallel(chain, profile, 10007, 4);
  EXPECT_EQ(report.metrics.cases(), 10007u);
}

TEST(MonteCarloParallel, Validation) {
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  const AdderChain chain = AdderChain::homogeneous(lpaa(2), 4);
  EXPECT_THROW(
      (void)MonteCarloSimulator::run_parallel(chain, profile, 100, 0),
      std::invalid_argument);
}

TEST(MonteCarlo, ValueErrorsNeverExceedStageFailures) {
  // A value error requires some stage to have deviated.
  const InputProfile profile = InputProfile::uniform(10, 0.4);
  for (int cell = 1; cell <= 7; ++cell) {
    const AdderChain chain = AdderChain::homogeneous(lpaa(cell), 10);
    const auto report = MonteCarloSimulator::run(chain, profile, 20000);
    EXPECT_LE(report.metrics.value_errors(), report.metrics.stage_failures())
        << "LPAA" << cell;
  }
}

TEST(ExhaustiveSim, KernelsIdenticalAcrossWidths) {
  // Widths 1..6 cross the partial-batch (< 5 bits: the whole (b, cin)
  // space fits under 64 lanes and the remainder is masked) / full-batch
  // boundary of the bit-sliced sweep.
  for (std::size_t width = 1; width <= 6; ++width) {
    for (int cell : {1, 4, 7}) {
      const AdderChain chain = AdderChain::homogeneous(lpaa(cell), width);
      const auto scalar =
          ExhaustiveSimulator::run(chain, 13, 1, Kernel::kScalar);
      const auto bitsliced =
          ExhaustiveSimulator::run(chain, 13, 1, Kernel::kBitSliced);
      expect_metrics_identical(scalar.metrics, bitsliced.metrics);
      EXPECT_EQ(bitsliced.metrics.cases(), 1ULL << (2 * width + 1));
      EXPECT_EQ(scalar.kernel, Kernel::kScalar);
      EXPECT_EQ(bitsliced.kernel, Kernel::kBitSliced);
      EXPECT_EQ(scalar.lane_batches, 0u);
      EXPECT_GT(bitsliced.lane_batches, 0u);
      if (width < 5) {
        // One partial batch per `a`: 2^(width+1) live lanes out of 64.
        EXPECT_EQ(bitsliced.masked_lanes,
                  (1ULL << width) * (64 - (1ULL << (width + 1))));
      } else {
        EXPECT_EQ(bitsliced.masked_lanes, 0u);
      }
    }
  }
}

TEST(ExhaustiveSim, KernelsIdenticalAcrossThreadCounts) {
  const AdderChain chain = AdderChain::homogeneous(lpaa(3), 7);
  const auto reference = ExhaustiveSimulator::run(chain, 13, 1,
                                                  Kernel::kScalar);
  for (unsigned threads : {1u, 2u, 5u}) {
    const auto report =
        ExhaustiveSimulator::run(chain, 13, threads, Kernel::kBitSliced);
    expect_metrics_identical(reference.metrics, report.metrics);
  }
}

TEST(MonteCarlo, KernelsIdenticalWithMaskedRemainder) {
  // 10007 samples = 156 full batches + one 23-lane remainder; the
  // metrics must match the scalar walk bit-for-bit anyway.
  const InputProfile profile = InputProfile::uniform(9, 0.3);
  const AdderChain chain = AdderChain::homogeneous(lpaa(5), 9);
  const auto scalar =
      MonteCarloSimulator::run(chain, profile, 10007, 42, Kernel::kScalar);
  const auto bitsliced =
      MonteCarloSimulator::run(chain, profile, 10007, 42, Kernel::kBitSliced);
  expect_metrics_identical(scalar.metrics, bitsliced.metrics);
  EXPECT_EQ(scalar.lane_batches, 0u);
  EXPECT_EQ(bitsliced.lane_batches, (10007 + 63) / 64);
  EXPECT_EQ(bitsliced.masked_lanes, 64 * ((10007 + 63) / 64) - 10007);
}

TEST(MonteCarloParallel, KernelsIdenticalAcrossThreadCounts) {
  const InputProfile profile = InputProfile::uniform(12, 0.2);
  const AdderChain chain = AdderChain::homogeneous(lpaa(6), 12);
  const auto scalar = MonteCarloSimulator::run_parallel(
      chain, profile, 70001, 1, 7, Kernel::kScalar);
  for (unsigned threads : {1u, 4u}) {
    const auto bitsliced = MonteCarloSimulator::run_parallel(
        chain, profile, 70001, threads, 7, Kernel::kBitSliced);
    expect_metrics_identical(scalar.metrics, bitsliced.metrics);
  }
}

TEST(BitSliced, Width63BoundaryMatchesScalar) {
  // 63 bits is the widest chain AdderChain accepts; the carry-out lands
  // on bit 63 of the value, so signed errors exercise the int64
  // wraparound edge.  Both kernels must agree lane-for-lane.
  for (int cell : {1, 7}) {
    const AdderChain chain = AdderChain::homogeneous(lpaa(cell), 63);
    const BitSlicedKernel kernel(chain);
    ASSERT_EQ(kernel.width(), 63u);

    sealpaa::prob::SplitMix64 rng(0x63'b17'ed6eULL + static_cast<std::uint64_t>(cell));
    std::array<std::uint64_t, 64> a_lanes;
    std::array<std::uint64_t, 64> b_lanes;
    std::uint64_t cin_word = 0;
    for (unsigned lane = 0; lane < 64; ++lane) {
      a_lanes[lane] = rng.next() >> 1;  // 63-bit operands
      b_lanes[lane] = rng.next() >> 1;
      if ((rng.next() & 1ULL) != 0) cin_word |= 1ULL << lane;
    }
    const BitSlicedKernel::Result result =
        kernel.run(a_lanes.data(), b_lanes.data(), cin_word, ~0ULL);

    ErrorMetrics batched;
    sealpaa::sim::accumulate(batched, result);
    ErrorMetrics scalar;
    for (unsigned lane = 0; lane < 64; ++lane) {
      const bool cin = ((cin_word >> lane) & 1ULL) != 0;
      const auto traced =
          chain.evaluate_traced(a_lanes[lane], b_lanes[lane], cin);
      const auto exact =
          sealpaa::multibit::exact_add(a_lanes[lane], b_lanes[lane], cin, 63);
      const std::uint64_t approx_value = traced.outputs.value(63);
      const std::uint64_t exact_value = exact.value(63);
      scalar.add(approx_value, exact_value, traced.all_stages_success);
      EXPECT_EQ(((result.stage_fail_mask >> lane) & 1ULL) != 0,
                !traced.all_stages_success)
          << "lane " << lane;
      EXPECT_EQ(result.first_failed[lane], traced.first_failed_stage)
          << "lane " << lane;
      EXPECT_EQ(((result.value_error_mask >> lane) & 1ULL) != 0,
                approx_value != exact_value)
          << "lane " << lane;
      EXPECT_EQ(result.error[lane],
                static_cast<std::int64_t>(approx_value - exact_value))
          << "lane " << lane;
    }
    expect_metrics_identical(batched, scalar);
  }
}

TEST(BitSliced, Width64ThrowsForBothPaths) {
  // AdderChain itself rejects 64 bits, so neither the scalar walk nor
  // the bit-sliced kernel (which is constructed from a chain) can ever
  // see a width the carry-out bit would not fit.
  EXPECT_THROW((void)AdderChain::homogeneous(lpaa(1), 64),
               std::invalid_argument);
  EXPECT_THROW((void)AdderChain::homogeneous(accurate(), 64),
               std::invalid_argument);
}

TEST(BitSliced, AccurateChainAtFullWidthHasNoErrors) {
  const AdderChain chain = AdderChain::homogeneous(accurate(), 63);
  const BitSlicedKernel kernel(chain);
  std::array<std::uint64_t, 64> a_lanes;
  std::array<std::uint64_t, 64> b_lanes;
  sealpaa::prob::SplitMix64 rng(0xacc'0063ULL);
  for (unsigned lane = 0; lane < 64; ++lane) {
    a_lanes[lane] = rng.next() >> 1;
    b_lanes[lane] = rng.next() >> 1;
  }
  const auto result =
      kernel.run(a_lanes.data(), b_lanes.data(), kLaneCounterBit[0], ~0ULL);
  EXPECT_EQ(result.value_error_mask, 0u);
  EXPECT_EQ(result.stage_fail_mask, 0u);
  EXPECT_EQ(result.sum_bits_error_mask, 0u);
}

}  // namespace
