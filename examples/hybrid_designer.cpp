// Hybrid adder designer: given a per-bit input-probability profile and
// an optional power budget, search for the best per-stage mix of LPAA
// cells (the use-case the paper's §5 motivates).
//
// The search runs on the engine layer: the exhaustive optimizer walks a
// DFS of palette indices over engine::IncrementalAnalyzer, one walk for
// every objective, and the beam fallback keeps each survivor's carry
// state, so an expansion costs one stage advance from its parent.  The winner is re-checked through engine::evaluate — the
// same uniform entry point the CLI's --method flag uses — and the search
// counters are printed (and reported as JSON) so the prefix reuse is
// visible: stage advances against candidates scored.
//
//   ./example_hybrid_designer [--bits=8] [--budget-nw=3000]
//       [--profile=0.5,0.5,0.4,0.3,0.2,0.1,0.05,0.05]
//       [--json-report=FILE | --no-json]
#include <iostream>
#include <sstream>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/explore/hybrid.hpp"
#include "sealpaa/explore/pareto.hpp"
#include "sealpaa/obs/report.hpp"
#include "sealpaa/obs/serialize.hpp"
#include "sealpaa/util/cli.hpp"
#include "sealpaa/util/format.hpp"
#include "sealpaa/util/table.hpp"

namespace {

std::vector<double> parse_profile(const std::string& csv, std::size_t bits) {
  if (csv.empty()) {
    // Default DSP-like profile: noisy LSBs, sparse MSBs.
    std::vector<double> p(bits);
    for (std::size_t i = 0; i < bits; ++i) {
      p[i] = 0.5 - 0.45 * static_cast<double>(i) /
                       static_cast<double>(bits > 1 ? bits - 1 : 1);
    }
    return p;
  }
  std::vector<double> p;
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) p.push_back(std::stod(token));
  return p;
}

void print_search_stats(const sealpaa::explore::SearchStats& stats) {
  using sealpaa::util::with_commas;
  std::cout << "  search: " << with_commas(stats.candidates_evaluated)
            << " candidates, " << with_commas(stats.stages_computed)
            << " stage advances\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sealpaa;
  const util::CliArgs args(argc, argv);
  try {
    args.expect_flags(
        {"bits", "profile", "budget-nw", "json-report", "no-json"});
    const std::size_t bits = static_cast<std::size_t>(args.get_int("bits", 8));
    const std::vector<double> p_bits =
        parse_profile(args.get("profile", ""), bits);
    if (p_bits.size() != bits) {
      std::cerr << "profile must list exactly " << bits << " probabilities\n";
      return 1;
    }
    const multibit::InputProfile profile(p_bits, p_bits, p_bits.front());

    std::cout << "Input profile P(bit = 1), LSB..MSB: ";
    for (double p : p_bits) std::cout << util::fixed(p, 2) << " ";
    std::cout << "\n\n";

    obs::RunReport report("example_hybrid_designer");
    report.record_args(args);

    // Homogeneous baselines.
    util::TextTable baselines(
        {"Homogeneous design", "P(Error)", "Power (nW)"});
    baselines.set_align(1, util::Align::Right);
    baselines.set_align(2, util::Align::Right);
    for (const auto& point : explore::homogeneous_sweep(profile)) {
      baselines.add_row({point.name, util::prob6(point.p_error),
                         point.has_cost ? util::fixed(point.power_nw, 0)
                                        : "n/a"});
    }
    std::cout << baselines << "\n";

    // Unconstrained hybrid optimum.
    const auto best = bits <= 9
        ? explore::HybridOptimizer::exhaustive(profile,
                                               adders::builtin_lpaas())
        : explore::HybridOptimizer::beam(profile, adders::builtin_lpaas(), {},
                                         512);
    std::cout << "Best hybrid (approximate cells only):\n  "
              << best.chain().describe() << "\n  P(Error) = "
              << util::prob6(best.p_error) << "\n";
    print_search_stats(best.stats);

    // Cross-check the winner through the uniform engine entry point.
    const engine::Evaluation check =
        engine::evaluate(best.chain(), profile, engine::Method::kRecursive);
    std::cout << "  engine::evaluate(recursive) agrees: "
              << (check.p_error == best.p_error ? "yes" : "NO") << "\n\n";

    obs::Json& section = report.section("hybrid_designer");
    section.set("bits", obs::Json(static_cast<std::uint64_t>(bits)));
    section.set("best", obs::to_json(best));
    section.set("search", obs::to_json(best.stats));
    section.set("recursive_check", obs::to_json(check));

    // Power-constrained search over the cells with Table 2 data.
    if (args.has("budget-nw")) {
      const double budget = args.get_double("budget-nw", 3000.0);
      std::vector<adders::AdderCell> costed;
      costed.push_back(adders::accurate());
      for (int i = 1; i <= 5; ++i) costed.push_back(adders::lpaa(i));
      explore::DesignConstraints constraints;
      constraints.max_power_nw = budget;
      try {
        const auto constrained = bits <= 9
            ? explore::HybridOptimizer::exhaustive(profile, costed,
                                                   constraints)
            : explore::HybridOptimizer::beam(profile, costed, constraints,
                                             512);
        std::cout << "Best under " << util::fixed(budget, 0) << " nW:\n  "
                  << constrained.chain().describe() << "\n  P(Error) = "
                  << util::prob6(constrained.p_error) << "   power = "
                  << util::fixed(*constrained.power_nw, 0) << " nW\n";
        print_search_stats(constrained.stats);
        section.set("constrained", obs::to_json(constrained));
      } catch (const std::runtime_error& e) {
        std::cout << "No design fits the budget: " << e.what() << "\n";
      }
    } else {
      std::cout << "(pass --budget-nw=<nanowatts> for a power-constrained "
                   "search over LPAA1-5 + AccuFA)\n";
    }

    if (const auto path = obs::report_path(args)) {
      report.write_file(*path);
      std::cout << "json report written to " << *path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
