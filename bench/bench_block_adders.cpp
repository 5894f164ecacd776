// Block-adder analytics vs enumeration: the tentpole claim of the
// block layer is that error rate and MED/MSE/WCE of *any* block-based
// adder — homogeneous ACA/ETAII/GeAr tilings and arbitrary
// heterogeneous (R_i, P_i) chains alike — come out of the
// O(N * states * support) conditioning DP exactly, with zero
// simulation.  This bench checks that claim and measures what it buys:
//
//   * width 10 — analytic ER/MED/MSE/WCE against the weighted
//     per-assignment enumeration (2^21 assignments per config), gated
//     at 1e-9 relative divergence across four topologies (GeAr, ACA,
//     ETAII and a heterogeneous chain); the run exits non-zero past
//     the gate;
//   * width 12, p = 0.5 — analytic error metrics against the 64-lane
//     bit-sliced block kernel's exhaustive sweep (2^24 pairs), the
//     oracle that scales past enumeration widths;
//   * width 32 — far beyond any enumeration: analytic metrics with
//     work_items == 32 and zero samples.
//
// The reported speedup is the analytic DP vs the weighted enumeration
// at width 10 (wall-clock only; the correctness gates are exact).
//
// Hand-rolled driver (not google-benchmark) so the run can emit the
// versioned sealpaa.run-report JSON: results land in
// BENCH_block_adders.json in the current directory (--no-json
// suppresses, --json-report=FILE redirects).
//
// Flags: --reps=5  --p=0.42  --quick
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "sealpaa/sealpaa.hpp"

namespace {

using namespace sealpaa;

double relative_gap(double got, double want) {
  return std::abs(got - want) / std::max(1.0, std::abs(want));
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  try {
    args.expect_flags({"reps", "p", "quick", "json-report", "no-json"});
    const bool quick = args.get_bool("quick", false);
    const int reps = static_cast<int>(args.get_uint("reps", quick ? 2 : 5));
    const double p = args.get_double("p", 0.42);

    std::cout << util::banner(
        "block-adder analytics vs enumeration (widths 10/12/32)");
    std::cout << "p: " << util::fixed(p, 2) << "  reps: " << reps << "\n";

    obs::RunReport report("bench_block_adders");
    report.record_args(args);
    obs::ScopedTimer total(report.counters(), "total");
    obs::Json& section = report.section("block_adders");
    section.set("p", obs::Json(p));
    section.set("reps",
                obs::Json(static_cast<std::uint64_t>(
                    static_cast<std::size_t>(reps))));

    bool ok = true;

    // ---------------------------------------------------------------
    // Width 10: exact gate against the weighted enumeration, across
    // the three named families plus a heterogeneous chain.
    // ---------------------------------------------------------------
    const int w10 = 10;
    const auto profile10 =
        multibit::InputProfile::uniform(static_cast<std::size_t>(w10), p);
    const std::vector<std::string> specs = {
        "gear:3:3", "aca:4", "etaii:3", "3:0,2:2,2:3,2:1,1:4"};

    bool exactness_ok = true;
    double analytic_seconds = 0.0;
    double enumeration_seconds = 0.0;
    obs::Json configs = obs::Json::array();
    for (const std::string& text : specs) {
      const auto spec = multibit::BlockChainSpec::parse(w10, text);

      analysis::BlockAnalysis analytic;
      double best_analytic = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        util::WallTimer timer;
        analytic = analysis::BlockErrorModel::analyze(spec, profile10);
        const double seconds = timer.elapsed_seconds();
        if (rep == 0 || seconds < best_analytic) best_analytic = seconds;
      }
      util::WallTimer oracle_timer;
      const analysis::ErrorPmf oracle =
          analysis::BlockErrorModel::exhaustive_pmf(spec, profile10);
      const double oracle_seconds = oracle_timer.elapsed_seconds();
      analytic_seconds += best_analytic;
      enumeration_seconds += oracle_seconds;

      const double er_gap =
          relative_gap(analytic.pmf.error_rate(), oracle.error_rate());
      const double med_gap = relative_gap(analytic.pmf.mean_error_distance(),
                                          oracle.mean_error_distance());
      const double mse_gap = relative_gap(analytic.pmf.mean_squared_error(),
                                          oracle.mean_squared_error());
      const bool exact =
          er_gap <= 1e-9 && med_gap <= 1e-9 && mse_gap <= 1e-9 &&
          analytic.pmf.worst_case_error() == oracle.worst_case_error();
      exactness_ok = exactness_ok && exact;

      std::cout << "  " << spec.describe() << "\n    analytic "
                << util::duration(best_analytic) << "  enumeration "
                << util::duration(oracle_seconds) << "  ER gap " << er_gap
                << "  MED gap " << med_gap << "  MSE gap " << mse_gap
                << (exact ? "  ok" : "  FAIL") << "\n";

      obs::Json entry = obs::Json::object();
      entry.set("spec", obs::Json(spec.to_string()));
      entry.set("analytic_seconds", obs::Json(best_analytic));
      entry.set("enumeration_seconds", obs::Json(oracle_seconds));
      entry.set("p_error", obs::Json(analytic.p_error));
      entry.set("med", obs::Json(analytic.pmf.mean_error_distance()));
      entry.set("mse", obs::Json(analytic.pmf.mean_squared_error()));
      entry.set("wce", obs::Json(analytic.pmf.worst_case_error()));
      entry.set("er_relative_gap", obs::Json(er_gap));
      entry.set("med_relative_gap", obs::Json(med_gap));
      entry.set("mse_relative_gap", obs::Json(mse_gap));
      entry.set("exact_within_1e9", obs::Json(exact));
      configs.push_back(std::move(entry));
    }
    section.set("width10_configs", std::move(configs));
    ok = ok && exactness_ok;
    const double speedup = analytic_seconds > 0.0
                               ? enumeration_seconds / analytic_seconds
                               : 0.0;

    // ---------------------------------------------------------------
    // Width 12, p = 0.5: analytic metrics vs the bit-sliced block
    // kernel's exhaustive sweep (the simulation oracle that replaces
    // per-assignment enumeration at scale).
    // ---------------------------------------------------------------
    const int w12 = 12;
    const auto spec12 = multibit::BlockChainSpec::parse(w12, "gear:4:4");
    // The bit-sliced sweep enumerates cin = 0 only, so the analytic
    // side must condition on the same event.
    const auto profile12 = multibit::InputProfile::uniform_with_cin(
        static_cast<std::size_t>(w12), 0.5, 0.0);
    const analysis::BlockAnalysis analytic12 =
        analysis::BlockErrorModel::analyze(spec12, profile12);
    util::WallTimer sliced_timer;
    const sim::ErrorMetrics sliced = sim::block_exhaustive(spec12);
    const double sliced_seconds = sliced_timer.elapsed_seconds();
    const bool sliced_matches =
        relative_gap(analytic12.pmf.error_rate(), sliced.error_rate()) <=
            1e-9 &&
        relative_gap(analytic12.pmf.mean_error_distance(),
                     sliced.mean_abs_error()) <= 1e-9 &&
        relative_gap(analytic12.pmf.mean_squared_error(),
                     sliced.mean_squared_error()) <= 1e-9 &&
        analytic12.pmf.worst_case_error() == sliced.worst_case_error();
    ok = ok && sliced_matches;
    std::cout << "  " << spec12.describe() << "  bit-sliced sweep "
              << util::duration(sliced_seconds) << " ("
              << util::with_commas(sliced.cases()) << " pairs)"
              << (sliced_matches ? "  ok" : "  FAIL") << "\n";

    obs::Json w12_json = obs::Json::object();
    w12_json.set("spec", obs::Json(spec12.to_string()));
    w12_json.set("bitsliced_seconds", obs::Json(sliced_seconds));
    w12_json.set("cases", obs::Json(sliced.cases()));
    w12_json.set("error_rate", obs::Json(analytic12.pmf.error_rate()));
    section.set("width12", std::move(w12_json));

    // ---------------------------------------------------------------
    // Width 32: no oracle exists; the analytic DP still answers in
    // linear work with zero samples.
    // ---------------------------------------------------------------
    const int w32 = 32;
    const auto spec32 = multibit::BlockChainSpec::parse(w32, "gear:8:8");
    const auto profile32 =
        multibit::InputProfile::uniform(static_cast<std::size_t>(w32), p);
    double seconds32 = 0.0;
    engine::EvaluateOptions options32;
    options32.blocks = spec32;
    engine::Evaluation eval32;
    for (int rep = 0; rep < reps; ++rep) {
      util::WallTimer timer;
      eval32 = engine::evaluate(
          multibit::AdderChain::homogeneous(adders::accurate(),
                                            static_cast<std::size_t>(w32)),
          profile32, engine::Method::kBlockAnalytic, options32);
      const double seconds = timer.elapsed_seconds();
      if (rep == 0 || seconds < seconds32) seconds32 = seconds;
    }
    std::cout << "  " << spec32.describe() << "  analytic "
              << util::duration(seconds32) << " (0 samples)  MED "
              << util::fixed(eval32.distribution->mean_error_distance, 6)
              << "\n";
    obs::Json w32_json = obs::Json::object();
    w32_json.set("spec", obs::Json(spec32.to_string()));
    w32_json.set("analytic_seconds", obs::Json(seconds32));
    w32_json.set("analytic_work_items", obs::Json(eval32.work_items));
    w32_json.set("zero_simulation_samples", obs::Json(true));
    w32_json.set("evaluation", obs::to_json(eval32));
    section.set("width32", std::move(w32_json));
    total.stop();

    // Gated metrics hoisted to the section's top level, where
    // scripts/check_bench_regression.py reads them: the correctness
    // flags must stay true, the speedup at >= 50% of the reference.
    section.set("exact_within_1e9", obs::Json(exactness_ok));
    section.set("bitsliced_matches_analytic", obs::Json(sliced_matches));
    section.set("zero_simulation_samples", obs::Json(true));
    section.set("analytic_vs_enumeration_speedup", obs::Json(speedup));

    std::cout << "speedup (w10 analytic vs enumeration) = "
              << util::fixed(speedup, 2) << "x\nresult: "
              << (ok ? "ok" : "DIVERGED") << "\n";
    if (!ok) {
      std::cerr << "FAIL: block analytics diverged from the enumeration "
                   "oracles\n";
    }

    if (const auto path = obs::report_path(args, "BENCH_block_adders.json")) {
      report.write_file(*path);
      std::cout << "json report written to " << *path << "\n";
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
