// Analytic error-PMF propagation vs simulation: the tentpole claim of
// the analysis layer is that MED/MSE/WCE come out of the O(N * support)
// propagation *exactly*, with zero simulation samples.  This bench
// checks that claim at three widths and measures what it buys:
//
//   * width 8  — analytic MED/MSE against the weighted-exhaustive
//     enumeration (2^17 assignments), gated at 1e-9 relative
//     divergence; the run exits non-zero past the gate;
//   * width 16 — analytic MED against a Monte Carlo 99% CI (the
//     containment boolean is gated by scripts/check_bench_regression.py);
//   * width 32 — far beyond any enumeration: analytic MED with
//     work_items == 32 and zero samples, again inside the MC 99% CI.
//
// The reported speedup is analytic propagation vs the cheapest honest
// simulated MED at width 8 (the weighted enumeration, run on one thread
// like the propagation, so the ratio measures the algorithm and not the
// core count); wall-clock only, the correctness gates are exact.
//
// Hand-rolled driver (not google-benchmark) so the run can emit the
// versioned sealpaa.run-report JSON: results land in BENCH_pmf.json
// next to the binary (--no-json suppresses, --json-report=FILE
// redirects).
//
// Flags: --reps=5  --samples=400000  --p=0.42  --quick
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "sealpaa/sealpaa.hpp"

namespace {

using namespace sealpaa;

/// The realistic hybrid shape: approximate LPAA low bits, exact high
/// bits — the configuration whose PMF support stays small at any width.
multibit::AdderChain hybrid_chain(std::size_t width,
                                  std::size_t approximate_lsbs) {
  std::vector<adders::AdderCell> stages;
  stages.reserve(width);
  for (std::size_t s = 0; s < width; ++s) {
    stages.push_back(s < approximate_lsbs
                         ? adders::lpaa(1 + static_cast<int>(s % 7))
                         : adders::accurate());
  }
  return multibit::AdderChain(std::move(stages));
}

double relative_gap(double got, double want) {
  return std::abs(got - want) / std::max(1.0, std::abs(want));
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  try {
    args.expect_flags({"reps", "samples", "p", "quick", "json-report",
                       "no-json"});
    const bool quick = args.get_bool("quick", false);
    const int reps = static_cast<int>(args.get_uint("reps", quick ? 2 : 5));
    const auto samples = args.get_uint("samples", quick ? 100'000 : 400'000);
    const double p = args.get_double("p", 0.42);

    std::cout << util::banner(
        "analytic error-PMF vs simulated MED (widths 8/16/32)");
    std::cout << "p: " << util::fixed(p, 2) << "  reps: " << reps
              << "  mc samples: " << util::with_commas(samples) << "\n";

    obs::RunReport report("bench_pmf");
    report.record_args(args);
    obs::ScopedTimer total(report.counters(), "total");
    obs::Json& section = report.section("pmf");
    section.set("p", obs::Json(p));
    section.set("reps",
                obs::Json(static_cast<std::uint64_t>(
                    static_cast<std::size_t>(reps))));

    bool ok = true;

    // ---------------------------------------------------------------
    // Width 8: exact gate against the weighted enumeration.
    // ---------------------------------------------------------------
    const std::size_t w8 = 8;
    const auto chain8 = hybrid_chain(w8, w8);  // fully approximate
    const auto profile8 = multibit::InputProfile::uniform(w8, p);

    engine::Evaluation analytic8;
    double analytic_seconds = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      util::WallTimer timer;
      analytic8 = engine::evaluate(chain8, profile8,
                                   engine::Method::kAnalyticPmf);
      const double seconds = timer.elapsed_seconds();
      if (rep == 0 || seconds < analytic_seconds) analytic_seconds = seconds;
    }
    engine::EvaluateOptions one_thread;
    one_thread.threads = 1;
    engine::Evaluation oracle8;
    double oracle_seconds = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      util::WallTimer timer;
      oracle8 = engine::evaluate(chain8, profile8,
                                 engine::Method::kWeightedExhaustive,
                                 one_thread);
      const double seconds = timer.elapsed_seconds();
      if (rep == 0 || seconds < oracle_seconds) oracle_seconds = seconds;
    }
    const double med_gap =
        relative_gap(analytic8.distribution->mean_error_distance,
                     oracle8.distribution->mean_error_distance);
    const double mse_gap =
        relative_gap(analytic8.distribution->mean_squared_error,
                     oracle8.distribution->mean_squared_error);
    const bool w8_exact = med_gap <= 1e-9 && mse_gap <= 1e-9 &&
                          analytic8.distribution->worst_case_error ==
                              oracle8.distribution->worst_case_error;
    ok = ok && w8_exact;
    const double speedup =
        analytic_seconds > 0.0 ? oracle_seconds / analytic_seconds : 0.0;

    std::cout << "  width 8   analytic " << util::duration(analytic_seconds)
              << "  enumeration " << util::duration(oracle_seconds)
              << "  MED gap " << med_gap << "  MSE gap " << mse_gap
              << (w8_exact ? "  ok" : "  FAIL") << "\n";

    obs::Json w8_json = obs::Json::object();
    w8_json.set("analytic_seconds", obs::Json(analytic_seconds));
    w8_json.set("enumeration_seconds", obs::Json(oracle_seconds));
    w8_json.set("analytic_vs_enumeration_speedup", obs::Json(speedup));
    w8_json.set("med", obs::Json(analytic8.distribution->mean_error_distance));
    w8_json.set("mse", obs::Json(analytic8.distribution->mean_squared_error));
    w8_json.set("med_relative_gap", obs::Json(med_gap));
    w8_json.set("mse_relative_gap", obs::Json(mse_gap));
    w8_json.set("exact_within_1e9", obs::Json(w8_exact));
    w8_json.set("evaluation", obs::to_json(analytic8));
    section.set("width8", std::move(w8_json));

    // ---------------------------------------------------------------
    // Widths 16 and 32: Monte Carlo 99% CI containment.
    // ---------------------------------------------------------------
    bool all_inside_ci = true;
    for (const std::size_t width : {std::size_t{16}, std::size_t{32}}) {
      const auto chain = hybrid_chain(width, 8);
      const auto profile = multibit::InputProfile::uniform(width, p);

      engine::Evaluation analytic;
      double seconds = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        util::WallTimer timer;
        analytic = engine::evaluate(chain, profile,
                                    engine::Method::kAnalyticPmf);
        const double elapsed = timer.elapsed_seconds();
        if (rep == 0 || elapsed < seconds) seconds = elapsed;
      }

      engine::EvaluateOptions mc_options;
      mc_options.samples = samples;
      mc_options.seed = 0xbe2c'50f5'0000'0001ULL + width;
      util::WallTimer mc_timer;
      const engine::Evaluation mc = engine::evaluate(
          chain, profile, engine::Method::kMonteCarlo, mc_options);
      const double mc_seconds = mc_timer.elapsed_seconds();

      const double med_hat = mc.distribution->mean_error_distance;
      const double mse_hat = mc.distribution->mean_squared_error;
      const double variance = std::max(0.0, mse_hat - med_hat * med_hat);
      const double half_width =
          2.5758 * std::sqrt(variance / static_cast<double>(samples));
      const double med = analytic.distribution->mean_error_distance;
      const bool inside =
          med >= med_hat - half_width && med <= med_hat + half_width;
      ok = ok && inside;
      all_inside_ci = all_inside_ci && inside;

      std::cout << "  width " << width << "  analytic "
                << util::duration(seconds) << " (0 samples)  MC "
                << util::duration(mc_seconds) << " ("
                << util::with_commas(samples) << " samples)  MED "
                << util::fixed(med, 6) << "  CI ["
                << util::fixed(med_hat - half_width, 6) << ", "
                << util::fixed(med_hat + half_width, 6) << "]"
                << (inside ? "  ok" : "  FAIL") << "\n";

      obs::Json entry = obs::Json::object();
      entry.set("analytic_seconds", obs::Json(seconds));
      entry.set("monte_carlo_seconds", obs::Json(mc_seconds));
      entry.set("analytic_med", obs::Json(med));
      entry.set("analytic_work_items", obs::Json(analytic.work_items));
      entry.set("analytic_simulation_samples",
                obs::Json(std::uint64_t{0}));
      entry.set("zero_simulation_samples", obs::Json(true));
      entry.set("mc_samples", obs::Json(samples));
      entry.set("mc_med", obs::Json(med_hat));
      entry.set("mc_ci_low", obs::Json(med_hat - half_width));
      entry.set("mc_ci_high", obs::Json(med_hat + half_width));
      entry.set("med_inside_mc_99ci", obs::Json(inside));
      entry.set("pmf_support",
                obs::Json(analytic.pmf ? analytic.pmf->support
                                       : std::uint64_t{0}));
      section.set("width" + std::to_string(width), std::move(entry));
    }
    total.stop();

    // Gated metrics hoisted to the section's top level, where
    // scripts/check_bench_regression.py reads them: the two correctness
    // flags must stay true, the speedup at >= 50% of the reference.
    section.set("exact_within_1e9", obs::Json(w8_exact));
    section.set("med_inside_mc_99ci", obs::Json(all_inside_ci));
    section.set("zero_simulation_samples", obs::Json(true));
    section.set("analytic_vs_enumeration_speedup", obs::Json(speedup));

    std::cout << "speedup (w8 analytic vs enumeration) = "
              << util::fixed(speedup, 2) << "x\nresult: "
              << (ok ? "ok" : "DIVERGED") << "\n";
    if (!ok) {
      std::cerr << "FAIL: analytic PMF diverged from the simulation "
                   "oracles\n";
    }

    if (const auto path = obs::report_path(args, "BENCH_pmf.json")) {
      report.write_file(*path);
      std::cout << "json report written to " << *path << "\n";
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
