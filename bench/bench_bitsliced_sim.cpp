// Scalar vs bit-sliced simulation throughput — what the 64-lane kernel
// buys each simulator, measured on the production inner loops:
//
//   * width  8: the full 2^17-case exhaustive sweep (ExhaustiveSimulator)
//   * width 16: an `a`-subrange of the exhaustive sweep through the same
//     shard functions the simulator runs on the pool (the full 2^33
//     sweep is pointless to wait for under the scalar kernel — which is
//     the point of this bench)
//   * width 32: Monte Carlo sampling (exhaustive enumeration infeasible)
//
// each at 1 and 8 worker threads.  Every (width, threads) pair runs both
// kernels and the bench exits non-zero unless the resulting metrics are
// *identical* — the bit-sliced path must count exactly the same errors,
// or the speedup is meaningless.  Throughput (cases/sec) and the
// single-thread width-16 speedup are reported in
// BENCH_bitsliced_sim.json (--no-json suppresses, --json-report=FILE
// redirects).
//
// Flags: --reps=3  --subrange=64  --samples=1048576  --quick
#include <iostream>
#include <string>
#include <vector>

#include "sealpaa/sealpaa.hpp"

namespace {

using namespace sealpaa;

struct Measurement {
  sim::ErrorMetrics metrics;
  double seconds = 0.0;
  std::uint64_t cases = 0;
};

bool metrics_identical(const sim::ErrorMetrics& a,
                       const sim::ErrorMetrics& b) {
  return a.cases() == b.cases() && a.value_errors() == b.value_errors() &&
         a.stage_failures() == b.stage_failures() &&
         a.mean_error() == b.mean_error() &&
         a.mean_abs_error() == b.mean_abs_error() &&
         a.mean_squared_error() == b.mean_squared_error() &&
         a.worst_case_error() == b.worst_case_error();
}

/// Best-of-reps wall time around `body`, which returns the metrics of
/// one full run (re-executed every rep).
template <typename Body>
Measurement measure(int reps, const Body& body) {
  Measurement best;
  for (int rep = 0; rep < reps; ++rep) {
    util::WallTimer timer;
    sim::ErrorMetrics metrics = body();
    const double seconds = timer.elapsed_seconds();
    if (rep == 0 || seconds < best.seconds) best.seconds = seconds;
    best.metrics = metrics;
    best.cases = metrics.cases();
  }
  return best;
}

/// Width-16 subrange sweep through the production shard entry points,
/// sharded over `threads` workers exactly like ExhaustiveSimulator.
sim::ErrorMetrics sweep_subrange(const multibit::AdderChain& chain,
                                 const sim::BitSlicedKernel* kernel,
                                 std::uint64_t a_limit, unsigned threads) {
  const std::uint64_t grain = std::max<std::uint64_t>(1, a_limit / 16);
  return util::with_pool(threads, [&](util::ThreadPool& pool) {
    return util::parallel_map_reduce(
        pool, 0, a_limit, grain, sim::ExhaustiveShard{},
        [&](std::uint64_t a_begin, std::uint64_t a_end) {
          return kernel != nullptr
                     ? sim::exhaustive_shard_bitsliced(*kernel, a_begin,
                                                       a_end)
                     : sim::exhaustive_shard_scalar(chain, a_begin, a_end);
        },
        [](sim::ExhaustiveShard& acc, sim::ExhaustiveShard&& shard) {
          acc.metrics.merge(shard.metrics);
        },
        nullptr);
  }).metrics;
}

obs::Json row_json(const std::string& sim_name, std::size_t width,
                   unsigned threads, sim::Kernel kernel,
                   const Measurement& m) {
  obs::Json row = obs::Json::object();
  row.set("sim", obs::Json(sim_name));
  row.set("width", obs::Json(static_cast<std::uint64_t>(width)));
  row.set("threads", obs::Json(threads));
  row.set("kernel", obs::Json(std::string(sim::kernel_name(kernel))));
  row.set("seconds", obs::Json(m.seconds));
  row.set("cases", obs::Json(m.cases));
  row.set("cases_per_second",
          obs::Json(m.seconds > 0.0 ? static_cast<double>(m.cases) / m.seconds
                                    : 0.0));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  try {
    args.expect_flags({"reps", "subrange", "samples", "quick", "json-report",
                       "no-json"});
    const bool quick = args.get_bool("quick", false);
    const int reps = static_cast<int>(args.get_uint("reps", quick ? 1 : 3));
    const std::uint64_t subrange =
        args.get_uint("subrange", quick ? 8 : 64);  // width-16 `a` values
    const std::uint64_t samples =
        args.get_uint("samples", quick ? 1ULL << 16 : 1ULL << 20);
    const unsigned kThreadCounts[] = {1, 8};

    const adders::AdderCell cell = adders::lpaa(5);
    std::cout << util::banner(
        "bit-sliced 64-lane kernel vs scalar evaluate_traced");
    std::cout << "cell: " << cell.name() << "  reps: " << reps
              << "  width-16 subrange: " << subrange
              << " a-values  MC samples: " << util::with_commas(samples)
              << "\n";

    obs::RunReport report("bench_bitsliced_sim");
    report.record_args(args);
    obs::ScopedTimer total(report.counters(), "total");

    obs::Json rows = obs::Json::array();
    bool all_identical = true;
    double width16_scalar_1t = 0.0;
    double width16_bitsliced_1t = 0.0;

    const auto record = [&](const std::string& sim_name, std::size_t width,
                            unsigned threads, const Measurement& scalar,
                            const Measurement& bitsliced) {
      const bool identical = metrics_identical(scalar.metrics,
                                               bitsliced.metrics);
      all_identical = all_identical && identical;
      const double speedup =
          bitsliced.seconds > 0.0 ? scalar.seconds / bitsliced.seconds : 0.0;
      std::cout << "  " << sim_name << "  w=" << width << "  t=" << threads
                << "  scalar " << util::duration(scalar.seconds)
                << "  bitsliced " << util::duration(bitsliced.seconds)
                << "  speedup " << util::fixed(speedup, 2) << "x  ("
                << util::with_commas(scalar.cases) << " cases)  identical: "
                << (identical ? "yes" : "NO") << "\n";
      if (!identical) {
        std::cerr << "FAIL: kernels diverged at " << sim_name << " width "
                  << width << " threads " << threads << "\n";
      }
      rows.push_back(row_json(sim_name, width, threads, sim::Kernel::kScalar,
                              scalar));
      rows.push_back(row_json(sim_name, width, threads,
                              sim::Kernel::kBitSliced, bitsliced));
    };

    // Width 8: the full exhaustive sweep through the public simulator.
    {
      const auto chain = multibit::AdderChain::homogeneous(cell, 8);
      for (const unsigned threads : kThreadCounts) {
        const Measurement scalar = measure(reps, [&] {
          return sim::ExhaustiveSimulator::run(chain, 13, threads,
                                               sim::Kernel::kScalar)
              .metrics;
        });
        const Measurement bitsliced = measure(reps, [&] {
          return sim::ExhaustiveSimulator::run(chain, 13, threads,
                                               sim::Kernel::kBitSliced)
              .metrics;
        });
        record("exhaustive", 8, threads, scalar, bitsliced);
      }
    }

    // Width 16: `a` in [0, subrange) through the production shard loops.
    {
      const auto chain = multibit::AdderChain::homogeneous(cell, 16);
      const sim::BitSlicedKernel kernel(chain);
      for (const unsigned threads : kThreadCounts) {
        const Measurement scalar = measure(reps, [&] {
          return sweep_subrange(chain, nullptr, subrange, threads);
        });
        const Measurement bitsliced = measure(reps, [&] {
          return sweep_subrange(chain, &kernel, subrange, threads);
        });
        record("exhaustive-subrange", 16, threads, scalar, bitsliced);
        if (threads == 1) {
          width16_scalar_1t = scalar.seconds;
          width16_bitsliced_1t = bitsliced.seconds;
        }
      }
    }

    // Width 32: Monte Carlo (the exhaustive space is 2^65 cases).
    {
      const auto chain = multibit::AdderChain::homogeneous(cell, 32);
      const auto profile = multibit::InputProfile::uniform(32, 0.5);
      for (const unsigned threads : kThreadCounts) {
        const Measurement scalar = measure(reps, [&] {
          return sim::MonteCarloSimulator::run_parallel(
                     chain, profile, samples, threads, 1, sim::Kernel::kScalar)
              .metrics;
        });
        const Measurement bitsliced = measure(reps, [&] {
          return sim::MonteCarloSimulator::run_parallel(
                     chain, profile, samples, threads, 1,
                     sim::Kernel::kBitSliced)
              .metrics;
        });
        record("monte-carlo", 32, threads, scalar, bitsliced);
      }
    }
    total.stop();

    const double width16_speedup =
        width16_bitsliced_1t > 0.0 ? width16_scalar_1t / width16_bitsliced_1t
                                   : 0.0;
    std::cout << "width-16 single-thread exhaustive speedup: "
              << util::fixed(width16_speedup, 2) << "x\n"
              << "all kernels identical: " << (all_identical ? "yes" : "NO")
              << "\n";

    obs::Json& section = report.section("bitsliced_sim");
    section.set("cell", obs::Json(cell.name()));
    section.set("reps", obs::Json(static_cast<std::uint64_t>(
                            static_cast<unsigned>(reps))));
    section.set("subrange", obs::Json(subrange));
    section.set("samples", obs::Json(samples));
    section.set("rows", std::move(rows));
    section.set("all_identical", obs::Json(all_identical));
    section.set("width16_speedup_1thread", obs::Json(width16_speedup));

    if (const auto path = obs::report_path(args, "BENCH_bitsliced_sim.json")) {
      report.write_file(*path);
      std::cout << "json report written to " << *path << "\n";
    }
    return all_identical ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
