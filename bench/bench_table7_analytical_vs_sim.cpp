// Reproduces Table 7: P(E) of LPAA 1-7 for N = 2..12 with all input
// probabilities at 0.1 — proposed analytical method vs 1M-case
// simulation (paper's setup) side by side.
//
// Writes BENCH_table7_analytical_vs_sim.json by default (--no-json
// suppresses, --json-report=FILE redirects).
#include <iostream>

#include "sealpaa/sealpaa.hpp"

int main(int argc, char** argv) {
  using namespace sealpaa;
  const util::CliArgs args(argc, argv);
  try {
    args.expect_flags({"samples", "p", "json-report", "no-json"});
    const std::uint64_t samples = args.get_uint("samples", 1'000'000);
    const double p = args.get_double("p", 0.1);

    obs::RunReport report("bench_table7_analytical_vs_sim");
    report.record_args(args);

    std::cout << util::banner(
        "Table 7: Analytical vs simulation, A_i = B_i = Cin = " +
        util::fixed(p, 1) + ", " + util::with_commas(samples) + " MC cases");

    std::vector<std::string> header = {"Bits"};
    for (int cell = 1; cell <= 7; ++cell) {
      header.push_back("LPAA" + std::to_string(cell) + " Analyt.");
      header.push_back("LPAA" + std::to_string(cell) + " Sim.");
    }
    util::TextTable table(header);
    for (std::size_t c = 0; c < header.size(); ++c) {
      table.set_align(c, util::Align::Right);
    }

    obs::Json rows = obs::Json::array();
    obs::ScopedTimer sweep_timer(report.counters(), "table7");
    for (std::size_t bits = 2; bits <= 12; bits += 2) {
      const auto profile = multibit::InputProfile::uniform(bits, p);
      std::vector<std::string> row = {std::to_string(bits)};
      for (int cell = 1; cell <= 7; ++cell) {
        const double analytical =
            analysis::RecursiveAnalyzer::error_probability(
                adders::lpaa(cell), profile);
        const auto chain =
            multibit::AdderChain::homogeneous(adders::lpaa(cell), bits);
        const auto mc = sim::MonteCarloSimulator::run(
            chain, profile, samples,
            /*seed=*/static_cast<std::uint64_t>(0x7ab1e7) *
                    static_cast<std::uint64_t>(bits) +
                static_cast<std::uint64_t>(cell));
        row.push_back(util::fixed(analytical, 5));
        row.push_back(util::fixed(mc.metrics.stage_failure_rate(), 5));

        obs::Json entry = obs::Json::object();
        entry.set("bits", obs::Json(static_cast<std::uint64_t>(bits)));
        entry.set("cell", obs::Json("LPAA" + std::to_string(cell)));
        entry.set("analytical_p_error", obs::Json(analytical));
        entry.set("simulated_p_error",
                  obs::Json(mc.metrics.stage_failure_rate()));
        entry.set("simulated_ci", obs::to_json(mc.stage_failure_ci));
        entry.set("samples", obs::Json(mc.samples));
        entry.set("seconds", obs::Json(mc.seconds));
        rows.push_back(std::move(entry));
        report.counters().add("table7/samples", mc.samples);
        report.counters().add("table7/configurations");
      }
      table.add_row(std::move(row));
    }
    sweep_timer.stop();
    std::cout << table;
    std::cout << "\nPaper's analytical column is reproduced exactly (see "
                 "tests/test_recursive.cpp, Table7 golden test); simulation "
                 "columns agree to ~3 decimals as in the paper.\n";

    obs::Json& section = report.section("table7");
    section.set("p", obs::Json(p));
    section.set("samples_per_configuration", obs::Json(samples));
    section.set("rows", std::move(rows));

    if (const auto path = obs::report_path(
            args, "BENCH_table7_analytical_vs_sim.json")) {
      report.write_file(*path);
      std::cout << "json report written to " << *path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
