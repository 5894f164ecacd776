// Thread-scaling of the parallel execution core: exhaustive simulation,
// weighted enumeration, Monte Carlo and the hybrid DSE sharded over a
// configurable set of worker counts, with a determinism cross-check at
// every width (the metrics must be bit-identical at 1 and N threads).
//
// Hand-rolled driver (not google-benchmark) so the run can emit the
// versioned sealpaa.run-report JSON: by default the results land in
// BENCH_parallel_scaling.json in the current directory (--no-json
// suppresses, --json-report=FILE redirects).  CI's smoke job checks only
// its `all_deterministic`.  No reference copy is committed: a scaling
// figure means something only on the machine that measured it.
//
// Flags: --thread-counts=1,2,4,8  --reps=3  --samples=500000
//        --exhaustive-bits=11  --hybrid-bits=6  --quick
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sealpaa/sealpaa.hpp"

namespace {

using namespace sealpaa;

struct Measurement {
  unsigned threads = 0;
  double best_seconds = 0.0;   // fastest of the reps
  double check = 0.0;          // engine result; must match across widths
  util::ShardTimings timings;  // from the fastest rep (when available)
};

struct EngineResult {
  std::string name;
  std::string workload;
  std::vector<Measurement> runs;
  bool deterministic = true;  // check value identical across all widths
};

std::vector<unsigned> parse_thread_counts(const std::string& csv) {
  std::vector<unsigned> counts;
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    const int value = std::stoi(token);
    if (value <= 0) {
      throw std::invalid_argument("--thread-counts entries must be >= 1");
    }
    counts.push_back(static_cast<unsigned>(value));
  }
  if (counts.empty()) {
    throw std::invalid_argument("--thread-counts must list at least one value");
  }
  return counts;
}

template <typename Run>
EngineResult measure(const std::string& name, const std::string& workload,
                     const std::vector<unsigned>& thread_counts, int reps,
                     Run&& run) {
  EngineResult result;
  result.name = name;
  result.workload = workload;
  double reference_check = 0.0;
  for (const unsigned threads : thread_counts) {
    Measurement best;
    best.threads = threads;
    for (int rep = 0; rep < reps; ++rep) {
      Measurement sample;
      sample.threads = threads;
      util::WallTimer timer;
      sample.check = run(threads, sample.timings);
      sample.best_seconds = timer.elapsed_seconds();
      if (rep == 0 || sample.best_seconds < best.best_seconds) best = sample;
    }
    if (result.runs.empty()) {
      reference_check = best.check;
    } else if (best.check != reference_check) {
      result.deterministic = false;
    }
    result.runs.push_back(std::move(best));
    std::cout << "  " << name << "  threads=" << threads << "  "
              << util::duration(result.runs.back().best_seconds) << "\n";
  }
  return result;
}

obs::Json to_json(const EngineResult& engine) {
  obs::Json out = obs::Json::object();
  out.set("name", obs::Json(engine.name));
  out.set("workload", obs::Json(engine.workload));
  out.set("deterministic", obs::Json(engine.deterministic));
  const double base = engine.runs.empty() ? 0.0
                                          : engine.runs.front().best_seconds;
  obs::Json runs = obs::Json::array();
  for (const Measurement& m : engine.runs) {
    obs::Json entry = obs::Json::object();
    entry.set("threads", obs::Json(m.threads));
    entry.set("best_seconds", obs::Json(m.best_seconds));
    entry.set("speedup_vs_first",
              obs::Json(m.best_seconds > 0.0 ? base / m.best_seconds : 0.0));
    entry.set("check", obs::Json(m.check));
    if (!m.timings.shards.empty()) {
      entry.set("shard_timings", obs::to_json(m.timings));
    }
    runs.push_back(std::move(entry));
  }
  out.set("runs", std::move(runs));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  try {
    args.expect_flags({"thread-counts", "reps", "samples", "exhaustive-bits",
                       "hybrid-bits", "quick", "threads", "json-report",
                       "no-json"});
    const bool quick = args.get_bool("quick", false);
    const std::vector<unsigned> thread_counts =
        parse_thread_counts(args.get("thread-counts", "1,2,4,8"));
    const int reps = static_cast<int>(args.get_uint("reps", quick ? 1 : 3));
    const std::uint64_t samples =
        args.get_uint("samples", quick ? 100'000 : 500'000);
    const auto exhaustive_bits =
        static_cast<std::size_t>(args.get_uint("exhaustive-bits",
                                               quick ? 9 : 11));
    const auto hybrid_bits =
        static_cast<std::size_t>(args.get_uint("hybrid-bits", quick ? 5 : 6));

    std::cout << util::banner("Parallel scaling: engines vs worker count");
    std::cout << "thread counts: " << args.get("thread-counts", "1,2,4,8")
              << "  reps: " << reps << "  hardware threads: "
              << util::hardware_threads() << "\n";

    obs::RunReport report("bench_parallel_scaling");
    report.record_args(args);
    obs::ScopedTimer total(report.counters(), "total");

    std::vector<EngineResult> engines;

    {
      const auto chain =
          multibit::AdderChain::homogeneous(adders::lpaa(6), exhaustive_bits);
      engines.push_back(measure(
          "exhaustive_sim",
          "LPAA6 x" + std::to_string(exhaustive_bits) + ", all 2^(2N+1) cases",
          thread_counts, reps, [&](unsigned threads, util::ShardTimings& t) {
            const auto r = sim::ExhaustiveSimulator::run(chain, 13, threads);
            t = r.shard_timings;
            return r.metrics.stage_failure_rate();
          }));
    }
    {
      const auto chain =
          multibit::AdderChain::homogeneous(adders::lpaa(1), 10);
      const auto profile = multibit::InputProfile::uniform(10, 0.3);
      engines.push_back(measure(
          "weighted_exhaustive", "LPAA1 x10, p=0.3", thread_counts, reps,
          [&](unsigned threads, util::ShardTimings&) {
            const auto r = baseline::WeightedExhaustive::analyze(
                chain, profile, 14, threads);
            return r.p_stage_success;
          }));
    }
    {
      const auto chain =
          multibit::AdderChain::homogeneous(adders::lpaa(5), 16);
      const auto profile = multibit::InputProfile::uniform(16, 0.2);
      engines.push_back(measure(
          "montecarlo",
          "LPAA5 x16, " + util::with_commas(samples) + " samples",
          thread_counts, reps, [&](unsigned threads, util::ShardTimings& t) {
            const auto r = sim::MonteCarloSimulator::run_parallel(
                chain, profile, samples, threads);
            t = r.shard_timings;
            return r.metrics.stage_failure_rate();
          }));
    }
    {
      const auto profile = multibit::InputProfile::uniform(hybrid_bits, 0.35);
      engines.push_back(measure(
          "hybrid_exhaustive",
          "7 LPAAs ^ " + std::to_string(hybrid_bits) + " stages, p=0.35",
          thread_counts, reps, [&](unsigned threads, util::ShardTimings&) {
            const auto design = explore::HybridOptimizer::exhaustive(
                profile, adders::builtin_lpaas(), {}, 50'000'000, threads);
            return design.p_error;
          }));
    }
    total.stop();

    bool all_deterministic = true;
    util::TextTable table({"engine", "threads", "best time", "speedup",
                           "deterministic"});
    for (const EngineResult& engine : engines) {
      all_deterministic = all_deterministic && engine.deterministic;
      const double base = engine.runs.front().best_seconds;
      for (const Measurement& m : engine.runs) {
        table.add_row({engine.name, std::to_string(m.threads),
                       util::duration(m.best_seconds),
                       util::fixed(m.best_seconds > 0.0
                                       ? base / m.best_seconds
                                       : 0.0,
                                   2) +
                           "x",
                       engine.deterministic ? "yes" : "NO"});
      }
    }
    std::cout << table;
    if (!all_deterministic) {
      std::cerr << "FAIL: some engine produced thread-count-dependent "
                   "results\n";
    }

    obs::Json engines_json = obs::Json::array();
    for (const EngineResult& engine : engines) {
      engines_json.push_back(to_json(engine));
    }
    // Executor-level counters: drive one instrumented pool directly so
    // the report also carries tasks/queue/busy-time statistics.
    util::ThreadPool pool(thread_counts.back());
    util::parallel_for(pool, 0, 4096, 64, [](std::uint64_t lo,
                                             std::uint64_t hi) {
      volatile double sink = 0.0;
      for (std::uint64_t i = lo; i < hi; ++i) {
        sink = sink + static_cast<double>(i);
      }
    });

    obs::Json& section = report.section("scaling");
    section.set("engines", std::move(engines_json));
    section.set("all_deterministic", obs::Json(all_deterministic));
    section.set("pool_sample", obs::to_json(pool.stats()));

    if (const auto path =
            obs::report_path(args, "BENCH_parallel_scaling.json")) {
      report.write_file(*path);
      std::cout << "json report written to " << *path << "\n";
    }
    return all_deterministic ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
