// Reproduces Table 2: error cases / power / area of the LPAA cells, and
// extends it with the per-cell error probability at p = 0.5 (8-bit chain)
// plus the resulting power-error Pareto front.
//
// Writes BENCH_table2_characteristics.json by default (--no-json
// suppresses, --json-report=FILE redirects).
#include <iostream>

#include "sealpaa/sealpaa.hpp"

int main(int argc, char** argv) {
  using namespace sealpaa;
  const util::CliArgs args(argc, argv);
  try {
    args.expect_flags({"bits", "p", "json-report", "no-json"});
    const auto bits = static_cast<std::size_t>(args.get_uint("bits", 8));
    const double p = args.get_double("p", 0.5);

    obs::RunReport report("bench_table2_characteristics");
    report.record_args(args);

    std::cout << util::banner("Table 2: Characteristics of LPAA cells [7]");
    util::TextTable table({"LPAA Type", "Error Cases", "Power (nW)",
                           "Area (GE)"});
    for (std::size_t c = 1; c <= 3; ++c) {
      table.set_align(c, util::Align::Right);
    }
    for (const auto& row : adders::builtin_characteristics()) {
      table.add_row(
          {row.cell_name, std::to_string(row.error_cases),
           row.power_nw ? util::fixed(*row.power_nw, 0) : "n/a",
           row.area_ge ? util::fixed(*row.area_ge, 2) : "n/a"});
    }
    std::cout << table;

    const auto profile = multibit::InputProfile::uniform(bits, p);
    util::ShardTimings sweep_timings;
    const auto points = explore::homogeneous_sweep(profile, &sweep_timings);
    std::cout << "\nExtension: " << bits << "-bit homogeneous chains at p = "
              << util::fixed(p, 2) << "\n";
    util::TextTable sweep({"Design", "P(Error)", "Power (nW)", "Area (GE)"});
    for (std::size_t c = 1; c <= 3; ++c) {
      sweep.set_align(c, util::Align::Right);
    }
    for (const auto& point : points) {
      sweep.add_row({point.name, util::prob6(point.p_error),
                     point.has_cost ? util::fixed(point.power_nw, 0) : "n/a",
                     point.has_cost ? util::fixed(point.area_ge, 2) : "n/a"});
    }
    std::cout << sweep;

    explore::ParetoStats pareto_stats;
    const auto front =
        explore::pareto_front(points, /*use_area=*/true, &pareto_stats);
    std::cout << "\nPower/area/error Pareto front: ";
    for (const auto& point : front) std::cout << point.name << " ";
    std::cout << "\n";

    obs::Json& section = report.section("table2");
    section.set("bits", obs::Json(static_cast<std::uint64_t>(bits)));
    section.set("p", obs::Json(p));
    section.set("design_points", obs::to_json(points));
    section.set("pareto_front", obs::to_json(front));
    section.set("pareto_stats", obs::to_json(pareto_stats));
    section.set("sweep_timings", obs::to_json(sweep_timings));
    report.counters().add("table2/designs_swept", points.size());
    report.counters().add("table2/front_size", front.size());

    if (const auto path = obs::report_path(
            args, "BENCH_table2_characteristics.json")) {
      report.write_file(*path);
      std::cout << "json report written to " << *path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
