// Thread-pool unit tests plus the determinism invariant of the parallel
// execution core: every sharded engine must produce *bit-identical*
// results for threads=1 and threads=8 and across repeated runs, because
// chunk layout and reduction order are functions of the problem size
// only — never of the worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/baseline/weighted_exhaustive.hpp"
#include "sealpaa/explore/hybrid.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/prob/rng.hpp"
#include "sealpaa/sim/exhaustive.hpp"
#include "sealpaa/sim/montecarlo.hpp"
#include "sealpaa/util/parallel.hpp"

namespace {

using sealpaa::adders::builtin_lpaas;
using sealpaa::adders::lpaa;
using sealpaa::baseline::WeightedExhaustive;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;
using sealpaa::sim::ExhaustiveSimulator;
using sealpaa::sim::MonteCarloSimulator;
using sealpaa::util::ShardTimings;
using sealpaa::util::ThreadPool;

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The pool stays usable after an error.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ZeroRequestsDefaultThreads) {
  sealpaa::util::set_default_threads(3);
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 3u);
  sealpaa::util::set_default_threads(0);
  EXPECT_EQ(sealpaa::util::default_threads(),
            sealpaa::util::hardware_threads());
}

TEST(ThreadPool, WorkerDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
  std::atomic<bool> seen_inside{false};
  pool.submit([&] { seen_inside = pool.on_worker_thread(); });
  pool.wait();
  EXPECT_TRUE(seen_inside.load());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> marks(1000);
  sealpaa::util::parallel_for(pool, 0, 1000, 7,
                              [&](std::uint64_t lo, std::uint64_t hi) {
                                for (std::uint64_t i = lo; i < hi; ++i) {
                                  marks[static_cast<std::size_t>(i)]
                                      .fetch_add(1);
                                }
                              });
  for (const auto& mark : marks) EXPECT_EQ(mark.load(), 1);
}

TEST(ParallelFor, EmptyRangeAndGrainValidation) {
  ThreadPool pool(2);
  bool called = false;
  sealpaa::util::parallel_for(pool, 5, 5, 1,
                              [&](std::uint64_t, std::uint64_t) {
                                called = true;
                              });
  EXPECT_FALSE(called);
  EXPECT_THROW(sealpaa::util::parallel_for(
                   pool, 0, 10, 0, [](std::uint64_t, std::uint64_t) {}),
               std::invalid_argument);
}

TEST(ParallelMapReduce, OrderedReduceIsBitStableAcrossThreadCounts) {
  // Doubles with wildly mixed magnitudes: any reordering of the fold
  // changes the rounding, so bit-equality proves the reduction order is
  // fixed.
  sealpaa::prob::Xoshiro256StarStar rng(42);
  std::vector<double> values(10000);
  for (double& v : values) {
    v = (rng.uniform01() - 0.5) * std::pow(10.0, 12.0 * rng.uniform01());
  }
  const auto sum_with = [&](unsigned threads) {
    ThreadPool pool(threads);
    return sealpaa::util::parallel_map_reduce(
        pool, 0, values.size(), 13, 0.0,
        [&](std::uint64_t lo, std::uint64_t hi) {
          double partial = 0.0;
          for (std::uint64_t i = lo; i < hi; ++i) {
            partial += values[static_cast<std::size_t>(i)];
          }
          return partial;
        },
        [](double& acc, double&& partial) { acc += partial; });
  };
  const double one = sum_with(1);
  const double four = sum_with(4);
  const double eight = sum_with(8);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
}

TEST(ParallelMapReduce, RecordsShardTimings) {
  ThreadPool pool(2);
  ShardTimings timings;
  const double total = sealpaa::util::parallel_map_reduce(
      pool, 0, 100, 10, 0.0,
      [](std::uint64_t lo, std::uint64_t hi) {
        return static_cast<double>(hi - lo);
      },
      [](double& acc, double&& part) { acc += part; }, &timings);
  EXPECT_EQ(total, 100.0);
  EXPECT_EQ(timings.threads, 2u);
  ASSERT_EQ(timings.shards.size(), 10u);
  std::uint64_t items = 0;
  for (const auto& shard : timings.shards) items += shard.items;
  EXPECT_EQ(items, 100u);
  EXPECT_GE(timings.wall_seconds, 0.0);
  EXPECT_GE(timings.cpu_seconds(), 0.0);
}

TEST(ParallelMapReduce, NestedCallsRunInline) {
  ThreadPool pool(2);
  // A map function that itself forks on the same pool must not deadlock.
  const double total = sealpaa::util::parallel_map_reduce(
      pool, 0, 4, 1, 0.0,
      [&](std::uint64_t lo, std::uint64_t) {
        return sealpaa::util::parallel_map_reduce(
            pool, 0, 10, 2, 0.0,
            [lo](std::uint64_t a, std::uint64_t b) {
              return static_cast<double>((b - a) * (lo + 1));
            },
            [](double& acc, double&& part) { acc += part; });
      },
      [](double& acc, double&& part) { acc += part; });
  EXPECT_EQ(total, 10.0 * (1 + 2 + 3 + 4));
}

// ---------------------------------------------------------------------
// Engine-level determinism invariants: threads=1 vs threads=8 and
// repeated runs must agree to the last bit.

TEST(ParallelDeterminism, ExhaustiveSimBitIdenticalAcrossThreadCounts) {
  const AdderChain chain = AdderChain::homogeneous(lpaa(3), 8);
  const auto one = ExhaustiveSimulator::run(chain, 13, 1);
  const auto eight = ExhaustiveSimulator::run(chain, 13, 8);
  const auto again = ExhaustiveSimulator::run(chain, 13, 8);
  EXPECT_EQ(one.metrics.cases(), eight.metrics.cases());
  EXPECT_EQ(one.metrics.stage_failures(), eight.metrics.stage_failures());
  EXPECT_EQ(one.metrics.value_errors(), eight.metrics.value_errors());
  EXPECT_EQ(one.metrics.worst_case_error(), eight.metrics.worst_case_error());
  // Floating-point accumulators: bit equality, not closeness.
  EXPECT_EQ(one.metrics.mean_error(), eight.metrics.mean_error());
  EXPECT_EQ(one.metrics.mean_abs_error(), eight.metrics.mean_abs_error());
  EXPECT_EQ(one.metrics.mean_squared_error(),
            eight.metrics.mean_squared_error());
  EXPECT_EQ(eight.metrics.mean_squared_error(),
            again.metrics.mean_squared_error());
  EXPECT_EQ(one.bit_operations, eight.bit_operations);
}

TEST(ParallelDeterminism, WeightedExhaustiveBitIdenticalAcrossThreadCounts) {
  sealpaa::prob::Xoshiro256StarStar rng(7);
  const InputProfile profile = InputProfile::random(8, rng, 0.05, 0.95);
  const AdderChain chain = AdderChain::homogeneous(lpaa(6), 8);
  const auto one = WeightedExhaustive::analyze(chain, profile, 14, 1);
  const auto eight = WeightedExhaustive::analyze(chain, profile, 14, 8);
  EXPECT_EQ(one.p_stage_success, eight.p_stage_success);
  EXPECT_EQ(one.p_value_correct, eight.p_value_correct);
  EXPECT_EQ(one.p_sum_bits_correct, eight.p_sum_bits_correct);
  EXPECT_EQ(one.mean_error, eight.mean_error);
  EXPECT_EQ(one.mean_abs_error, eight.mean_abs_error);
  EXPECT_EQ(one.mean_squared_error, eight.mean_squared_error);
  EXPECT_EQ(one.worst_case_error, eight.worst_case_error);
  ASSERT_EQ(one.error_distribution.size(), eight.error_distribution.size());
  auto it_one = one.error_distribution.begin();
  auto it_eight = eight.error_distribution.begin();
  for (; it_one != one.error_distribution.end(); ++it_one, ++it_eight) {
    EXPECT_EQ(it_one->first, it_eight->first);
    EXPECT_EQ(it_one->second, it_eight->second);
  }
}

TEST(ParallelDeterminism, MonteCarloBitIdenticalAcrossThreadCounts) {
  const InputProfile profile = InputProfile::uniform(10, 0.3);
  const AdderChain chain = AdderChain::homogeneous(lpaa(5), 10);
  // 300k samples → 5 fixed-size shards; the shard layout depends only on
  // the sample count, so any thread count replays the same streams.
  const auto one =
      MonteCarloSimulator::run_parallel(chain, profile, 300'000, 1, 123);
  const auto eight =
      MonteCarloSimulator::run_parallel(chain, profile, 300'000, 8, 123);
  const auto again =
      MonteCarloSimulator::run_parallel(chain, profile, 300'000, 8, 123);
  EXPECT_EQ(one.metrics.cases(), 300'000u);
  EXPECT_EQ(one.metrics.stage_failures(), eight.metrics.stage_failures());
  EXPECT_EQ(one.metrics.value_errors(), eight.metrics.value_errors());
  EXPECT_EQ(one.metrics.mean_error(), eight.metrics.mean_error());
  EXPECT_EQ(one.metrics.mean_squared_error(),
            eight.metrics.mean_squared_error());
  EXPECT_EQ(eight.metrics.stage_failures(), again.metrics.stage_failures());
  EXPECT_EQ(eight.metrics.mean_error(), again.metrics.mean_error());
  // The worst case is tracked with a total-order comparator (magnitude,
  // ties to the negative error), so it too is shard-order independent.
  EXPECT_EQ(one.metrics.worst_case_error(), eight.metrics.worst_case_error());
  EXPECT_EQ(eight.metrics.worst_case_error(),
            again.metrics.worst_case_error());
}

TEST(ParallelDeterminism, MonteCarloZeroSamplesReportsEmptyCis) {
  // A zero-sample run is a no-op, not a NaN factory: metrics stay at the
  // identity and both confidence intervals are explicitly empty.
  const InputProfile profile = InputProfile::uniform(4, 0.5);
  const AdderChain chain = AdderChain::homogeneous(lpaa(1), 4);
  for (const auto& report :
       {MonteCarloSimulator::run(chain, profile, 0),
        MonteCarloSimulator::run_parallel(chain, profile, 0, 4)}) {
    EXPECT_EQ(report.samples, 0u);
    EXPECT_EQ(report.metrics.cases(), 0u);
    EXPECT_TRUE(report.stage_failure_ci.empty());
    EXPECT_TRUE(report.value_error_ci.empty());
    EXPECT_FALSE(std::isnan(report.metrics.error_rate()));
    EXPECT_FALSE(std::isnan(report.metrics.mean_error()));
  }
}

TEST(ThreadPool, StatsTrackExecutionAndQueueDepth) {
  ThreadPool pool(2);
  ASSERT_EQ(pool.stats().tasks_executed, 0u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] {
      counter.fetch_add(1);
      volatile double sink = 0.0;
      for (int j = 0; j < 1000; ++j) sink = sink + 1.0;
    });
  }
  pool.wait();
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(counter.load(), 50);
  EXPECT_EQ(stats.tasks_executed, 50u);
  EXPECT_GE(stats.queue_high_water, 1u);
  EXPECT_LE(stats.queue_high_water, 50u);
  ASSERT_EQ(stats.worker_busy_seconds.size(), 2u);
  EXPECT_GE(stats.total_busy_seconds(), 0.0);
}

TEST(ParallelDeterminism, HybridExhaustiveSameWinnerAcrossThreadCounts) {
  const InputProfile profile = InputProfile::uniform(5, 0.35);
  const auto one = sealpaa::explore::HybridOptimizer::exhaustive(
      profile, builtin_lpaas(), {}, 50'000'000, 1);
  const auto eight = sealpaa::explore::HybridOptimizer::exhaustive(
      profile, builtin_lpaas(), {}, 50'000'000, 8);
  ASSERT_EQ(one.stages.size(), eight.stages.size());
  for (std::size_t i = 0; i < one.stages.size(); ++i) {
    EXPECT_EQ(one.stages[i].name(), eight.stages[i].name()) << "stage " << i;
  }
  EXPECT_EQ(one.p_error, eight.p_error);
  EXPECT_EQ(one.p_success, eight.p_success);
}

TEST(ParallelDeterminism, MonteCarloSingleShardMatchesSerialRun) {
  // Fewer samples than one shard (2^16): run_parallel uses the unjumped
  // base stream, so it must reproduce run() exactly.
  const InputProfile profile = InputProfile::uniform(6, 0.4);
  const AdderChain chain = AdderChain::homogeneous(lpaa(1), 6);
  const auto serial = MonteCarloSimulator::run(chain, profile, 20'000, 5);
  const auto parallel =
      MonteCarloSimulator::run_parallel(chain, profile, 20'000, 4, 5);
  EXPECT_EQ(serial.metrics.stage_failures(), parallel.metrics.stage_failures());
  EXPECT_EQ(serial.metrics.value_errors(), parallel.metrics.value_errors());
  EXPECT_EQ(serial.metrics.mean_error(), parallel.metrics.mean_error());
}

TEST(ParallelDeterminism, ExhaustiveReportsShardTimings) {
  const AdderChain chain = AdderChain::homogeneous(lpaa(2), 6);
  const auto report = ExhaustiveSimulator::run(chain, 13, 2);
  EXPECT_EQ(report.shard_timings.threads, 2u);
  EXPECT_FALSE(report.shard_timings.shards.empty());
  std::uint64_t covered = 0;
  for (const auto& shard : report.shard_timings.shards) covered += shard.items;
  EXPECT_EQ(covered, 1ULL << 6);  // the sharded `a` dimension
  EXPECT_FALSE(report.shard_timings.summary().empty());
}

}  // namespace
