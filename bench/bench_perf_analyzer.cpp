// google-benchmark microbenchmarks backing the paper's performance
// claims: the recursive analysis runs in well under 1 ms at any width
// (§5), scales linearly, and dwarfs both simulation and the
// inclusion-exclusion baseline.
#include <benchmark/benchmark.h>

#include <cmath>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/joint.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/baseline/inclusion_exclusion.hpp"
#include "sealpaa/sim/montecarlo.hpp"

namespace {

using sealpaa::adders::lpaa;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;

void BM_RecursiveAnalyzer(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const AdderChain chain = AdderChain::homogeneous(lpaa(1), bits);
  const InputProfile profile = InputProfile::uniform(bits, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sealpaa::analysis::RecursiveAnalyzer::analyze(chain, profile)
            .p_error);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RecursiveAnalyzer)
    ->RangeMultiplier(2)
    ->Range(4, 32)
    ->Arg(63)  // the bit-packed evaluators cap widths at 63
    ->Complexity(benchmark::oN);

void BM_JointValueLevelDp(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const AdderChain chain = AdderChain::homogeneous(lpaa(6), bits);
  const InputProfile profile = InputProfile::uniform(bits, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sealpaa::analysis::JointCarryAnalyzer::analyze(chain, profile)
            .p_value_correct);
  }
}
BENCHMARK(BM_JointValueLevelDp)->Arg(8)->Arg(16)->Arg(32);

void BM_InclusionExclusionBaseline(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const AdderChain chain = AdderChain::homogeneous(lpaa(1), bits);
  const InputProfile profile = InputProfile::uniform(bits, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sealpaa::baseline::InclusionExclusionAnalyzer::analyze(chain, profile)
            .p_error);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InclusionExclusionBaseline)
    ->DenseRange(4, 16, 4)
    ->Complexity([](benchmark::IterationCount n) {
      return static_cast<double>(n) *
             std::pow(2.0, static_cast<double>(n));
    });

void BM_MonteCarlo100k(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const AdderChain chain = AdderChain::homogeneous(lpaa(1), bits);
  const InputProfile profile = InputProfile::uniform(bits, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sealpaa::sim::MonteCarloSimulator::run(chain, profile, 100'000)
            .metrics.stage_failure_rate());
  }
}
BENCHMARK(BM_MonteCarlo100k)->Arg(8)->Arg(16)->Arg(32);

void BM_HybridStageAdvance(benchmark::State& state) {
  const auto mkl = sealpaa::analysis::MklMatrices::from_cell(lpaa(6));
  const auto weights = sealpaa::analysis::operand_weights(0.3, 0.7);
  sealpaa::analysis::CarryState carry{0.5, 0.5};
  for (auto _ : state) {
    carry = sealpaa::analysis::advance_stage(mkl, weights, carry);
    benchmark::DoNotOptimize(carry);
    // Re-normalise so the state never degenerates to zero mass.
    carry = sealpaa::analysis::CarryState{0.5, 0.5};
  }
}
BENCHMARK(BM_HybridStageAdvance);

}  // namespace

BENCHMARK_MAIN();
