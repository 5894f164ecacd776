// sealpaa — the consolidated command-line front end of the library,
// the "rapid adoption" deliverable the paper's §1.2 motivates.
//
//   sealpaa_cli cells
//   sealpaa_cli analyze --cell=LPAA6 --bits=8 --p=0.5 [--method=NAME]
//                       [--trace] [--rho=0.3]
//   sealpaa_cli sweep   --cell=LPAA1 --p=0.1 --max-bits=16
//   sealpaa_cli bounds  --cell=LPAA6 --p=0.5 --epsilon=0.1 [--bits=16]
//   sealpaa_cli hybrid  --bits=8 [--profile=0.9,...] [--budget-nw=2500]
//   sealpaa_cli gear    --n=16 --r=4 --p=4 [--p-input=0.5]
//   sealpaa_cli blocks  --bits=16 --blocks=4:0,4:4,4:4,4:4 [--p=0.5]
//                       [--search --max-l=8 [--beam=64] [--exhaustive]]
//   sealpaa_cli sim     --cell=LPAA1 --bits=8 --p=0.5 [--samples=1000000]
//   sealpaa_cli synth   --kind=cell|chain|gear --cell=... --bits=... [--out=f.v]
//
// Global flags (every subcommand):
//   --threads=N          worker pool width for the parallel engines
//   --json-report=FILE   write a versioned machine-readable run report
//
// Flags are validated strictly: unknown flags and malformed numeric
// values ("--samples=1e6") abort with a diagnostic instead of being
// silently ignored or truncated.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "sealpaa/sealpaa.hpp"

namespace {

using namespace sealpaa;

int usage() {
  std::cout <<
      "sealpaa - statistical error analysis for low power approximate "
      "adders (DAC'17)\n\n"
      "commands:\n"
      "  cells                       list built-in cells + characteristics\n"
      "  analyze  --cell --bits --p  error probability of a homogeneous chain\n"
      "           [--method] [--trace] (--rho adds operand correlation;\n"
      "           [--rho] [--kernel]   --method picks the engine: recursive,\n"
      "           [--blocks]           inclusion-exclusion, exhaustive,\n"
      "                              weighted-exhaustive, monte-carlo,\n"
      "                              analytic-pmf, block-analytic — the\n"
      "                              last two report MED/MSE/WCE/PSNR with\n"
      "                              no simulation; block-analytic takes\n"
      "                              its topology from --blocks=SPEC)\n"
      "  sweep    --cell --p         P(E) vs width table\n"
      "           [--max-bits]\n"
      "  bounds   --cell --p         max cascadable width / approximable LSBs\n"
      "           --epsilon [--bits]\n"
      "  hybrid   --bits [--profile] best per-stage cell mix\n"
      "           [--budget-nw]        (--objective=err|med|mse ranks designs\n"
      "           [--objective]        by P(Error) or by the analytic PMF;\n"
      "           [--search]           --search=bnb|beam|greedy|exhaustive:\n"
      "           [--checkpoint]       bnb is the provably-optimal quality\n"
      "           [--checkpoint-every] mode, beam/greedy fast previews;\n"
      "           [--suspend-after-units] --checkpoint=FILE persists bnb\n"
      "           [--resume]           state, --resume continues from it)\n"
      "  gear     --n --r --p        GeAr exact error + correction stats\n"
      "           [--p-input]\n"
      "  blocks   --bits --blocks    exact block-adder error statistics\n"
      "           [--p]                (--blocks=R:P,R:P,... or a family:\n"
      "           [--search]           aca:K, etaii:X, gear:R:P); --search\n"
      "           [--max-l] [--beam]   runs the (R_i,P_i) partition DSE\n"
      "           [--objective]        under the --max-l latency budget\n"
      "           [--exhaustive]       (--exhaustive: exact enumeration)\n"
      "  sim      --cell --bits --p  Monte Carlo + exhaustive simulation\n"
      "           [--samples] [--seed] [--no-exhaustive] [--timings]\n"
      "           [--kernel]          (--kernel=scalar|bitsliced picks the\n"
      "                              evaluation backend; bitsliced runs 64\n"
      "                              input vectors per pass, same metrics)\n"
      "  synth    --kind --cell      emit Verilog (cell|chain|gear)\n"
      "           [--bits|--n --r --p] [--out] [--tb]\n\n"
      "global flags:\n"
      "  --threads=N                 worker pool width for the parallel\n"
      "                              engines (default: hardware threads)\n"
      "  --json-report=FILE          also write a machine-readable report\n"
      "                              (schema sealpaa.run-report v1)\n";
  return 2;
}

// Flags every subcommand accepts on top of its own vocabulary.
constexpr std::string_view kGlobalFlags[] = {"threads", "json-report",
                                             "no-json"};

void check_flags(const util::CliArgs& args,
                 std::initializer_list<std::string_view> specific) {
  std::vector<std::string_view> allowed(specific);
  allowed.insert(allowed.end(), std::begin(kGlobalFlags),
                 std::end(kGlobalFlags));
  args.expect_flags(allowed);
}

const adders::AdderCell& cell_arg(const util::CliArgs& args) {
  const std::string name = args.get("cell", "LPAA1");
  const adders::AdderCell* cell = adders::find_builtin(name);
  if (cell == nullptr) {
    throw std::invalid_argument("unknown cell '" + name +
                                "' (try: sealpaa_cli cells)");
  }
  return *cell;
}

std::string ci_text(const prob::Interval& ci) {
  if (ci.empty()) return "n/a (no samples)";
  return "[" + util::prob6(ci.low) + ", " + util::prob6(ci.high) + "]";
}

int cmd_cells(const util::CliArgs& args, obs::RunReport& report) {
  check_flags(args, {});
  util::TextTable table({"Cell", "Error cases", "Power (nW)", "Area (GE)",
                         "Description"});
  obs::Json rows = obs::Json::array();
  for (const adders::AdderCell& cell : adders::all_builtin_cells()) {
    const auto* row = adders::find_characteristics(cell);
    table.add_row({cell.name(), std::to_string(cell.error_case_count()),
                   row != nullptr && row->power_nw
                       ? util::fixed(*row->power_nw, 0)
                       : "n/a",
                   row != nullptr && row->area_ge
                       ? util::fixed(*row->area_ge, 2)
                       : "n/a",
                   cell.description()});
    obs::Json entry = obs::Json::object();
    entry.set("name", obs::Json(cell.name()));
    entry.set("error_cases", obs::Json(cell.error_case_count()));
    entry.set("power_nw", row != nullptr && row->power_nw
                              ? obs::Json(*row->power_nw)
                              : obs::Json());
    entry.set("area_ge", row != nullptr && row->area_ge
                             ? obs::Json(*row->area_ge)
                             : obs::Json());
    rows.push_back(std::move(entry));
  }
  std::cout << table;
  report.section("cells").set("rows", std::move(rows));
  return 0;
}

void print_trace(const std::vector<analysis::StageTrace>& trace) {
  if (trace.empty()) return;
  util::TextTable table({"stage", "P(!C & Succ)", "P(C & Succ)"});
  table.set_align(1, util::Align::Right);
  table.set_align(2, util::Align::Right);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    table.add_row({std::to_string(i), util::prob6(trace[i].carry_out.c0),
                   util::prob6(trace[i].carry_out.c1)});
  }
  std::cout << table;
}

int cmd_analyze(const util::CliArgs& args, obs::RunReport& report) {
  check_flags(args,
              {"cell", "bits", "p", "trace", "rho", "method", "samples",
               "seed", "kernel", "blocks"});
  const adders::AdderCell& cell = cell_arg(args);
  const auto bits = static_cast<std::size_t>(args.get_uint("bits", 8));
  const double p = args.get_double("p", 0.5);
  const multibit::InputProfile marginals =
      multibit::InputProfile::uniform(bits, p);
  const auto chain = multibit::AdderChain::homogeneous(cell, bits);

  obs::Json& section = report.section("analyze");
  section.set("cell", obs::Json(cell.name()));
  section.set("bits", obs::Json(static_cast<std::uint64_t>(bits)));
  section.set("p", obs::Json(p));

  if (args.has("rho")) {
    // Operand correlation is a recursive-analyzer extension; the other
    // registry methods only model independent inputs.
    if (args.has("method") && args.get("method", "") != "recursive") {
      throw std::invalid_argument(
          "--rho requires --method=recursive (correlated analysis)");
    }
    const double rho = args.get_double("rho", 0.0);
    const auto joint = multibit::JointInputProfile::correlated(marginals, rho);
    analysis::AnalyzeOptions options;
    options.record_trace = args.get_bool("trace", false);
    obs::ScopedTimer timer(report.counters(), "analyze");
    const analysis::AnalysisResult result =
        analysis::RecursiveAnalyzer::analyze(chain, joint, options);
    timer.stop();
    std::cout << chain.describe() << "  p=" << util::fixed(p, 3)
              << "  rho=" << util::fixed(rho, 2) << "\n";
    std::cout << "P(Success) = " << util::prob6(result.p_success)
              << "\nP(Error)   = " << util::prob6(result.p_error) << "\n";
    print_trace(result.trace);
    section.set("rho", obs::Json(rho));
    section.set("p_success", obs::Json(result.p_success));
    section.set("p_error", obs::Json(result.p_error));
    return 0;
  }

  // --blocks implies block-analytic; typing the method stays optional.
  const engine::Method method = engine::parse_method(args.get(
      "method", args.has("blocks") ? "block-analytic" : "recursive"));
  engine::EvaluateOptions options;
  options.record_trace = args.get_bool("trace", false);
  options.samples = args.get_uint("samples", 1'000'000);
  options.seed = args.get_uint("seed", 0x5ea1'c0de'2017'dacULL);
  options.threads = args.threads();
  options.kernel = sim::parse_kernel(args.get("kernel", "bitsliced"));
  if (method == engine::Method::kBlockAnalytic) {
    if (!args.has("blocks")) {
      throw std::invalid_argument(
          "--method=block-analytic requires --blocks=R:P,R:P,... "
          "(or aca:K / etaii:X / gear:R:P)");
    }
    options.blocks = multibit::BlockChainSpec::parse(static_cast<int>(bits),
                                                     args.get("blocks", ""));
    section.set("blocks", obs::Json(options.blocks->to_string()));
  } else if (args.has("blocks")) {
    throw std::invalid_argument("--blocks requires --method=block-analytic");
  }
  obs::ScopedTimer timer(report.counters(), "analyze");
  const engine::Evaluation result =
      engine::evaluate(chain, marginals, method, options);
  timer.stop();
  report.counters().add("analyze/work_items", result.work_items);
  if (options.blocks) {
    std::cout << options.blocks->describe() << "  p=" << util::fixed(p, 3)
              << "  method=" << engine::method_name(method) << "\n";
  } else {
    std::cout << chain.describe() << "  p=" << util::fixed(p, 3)
              << "  method=" << engine::method_name(method) << "\n";
  }
  std::cout << "P(Success) = " << util::prob6(result.p_success)
            << "\nP(Error)   = " << util::prob6(result.p_error) << "\n";
  if (method == engine::Method::kMonteCarlo) {
    std::cout << "95% CI     = " << ci_text(result.stage_failure_ci) << "\n";
  }
  if (result.distribution) {
    const engine::DistributionStats& d = *result.distribution;
    std::cout << "value-level error distribution:\n"
              << "  P(err != 0) = " << util::prob6(d.error_rate) << "\n"
              << "  MED  E[|err|]  = " << util::fixed(d.mean_error_distance, 6)
              << "\n"
              << "  MSE  E[err^2]  = " << util::fixed(d.mean_squared_error, 6)
              << "\n"
              << "  WCE  max|err|  = " << d.worst_case_error << "\n";
    if (std::isfinite(d.psnr_db)) {
      std::cout << "  PSNR = " << util::fixed(d.psnr_db, 2) << " dB\n";
    } else {
      std::cout << "  PSNR = inf (exact)\n";
    }
  }
  if (result.pmf) {
    const engine::PmfSummary& pmf = *result.pmf;
    std::cout << "error PMF: support=" << pmf.support
              << "  mass=" << util::fixed(pmf.total_mass, 12)
              << "  entropy=" << util::fixed(pmf.entropy_bits, 4) << " bits\n";
    for (const analysis::ErrorPmf::Entry& entry : pmf.top) {
      std::cout << "  err=" << entry.value << "  p="
                << util::prob6(entry.probability) << "\n";
    }
  }
  print_trace(result.trace);
  section.set("method", obs::Json(std::string(engine::method_name(method))));
  section.set("kernel",
              obs::Json(std::string(sim::kernel_name(options.kernel))));
  section.set("evaluation", obs::to_json(result));
  section.set("p_success", obs::Json(result.p_success));
  section.set("p_error", obs::Json(result.p_error));
  return 0;
}

int cmd_sweep(const util::CliArgs& args, obs::RunReport& report) {
  check_flags(args, {"cell", "p", "max-bits"});
  const adders::AdderCell& cell = cell_arg(args);
  const double p = args.get_double("p", 0.5);
  const auto max_bits = static_cast<std::size_t>(args.get_uint("max-bits", 16));
  util::TextTable table({"bits", "P(Error)"});
  table.set_align(0, util::Align::Right);
  table.set_align(1, util::Align::Right);
  obs::Json rows = obs::Json::array();
  obs::ScopedTimer timer(report.counters(), "sweep");
  for (std::size_t bits = 1; bits <= max_bits; ++bits) {
    const double p_error = analysis::RecursiveAnalyzer::error_probability(
        cell, multibit::InputProfile::uniform(bits, p));
    table.add_row({std::to_string(bits), util::prob6(p_error)});
    obs::Json entry = obs::Json::object();
    entry.set("bits", obs::Json(static_cast<std::uint64_t>(bits)));
    entry.set("p_error", obs::Json(p_error));
    rows.push_back(std::move(entry));
    report.counters().add("sweep/widths_analyzed");
  }
  timer.stop();
  std::cout << table;
  obs::Json& section = report.section("sweep");
  section.set("cell", obs::Json(cell.name()));
  section.set("p", obs::Json(p));
  section.set("rows", std::move(rows));
  return 0;
}

int cmd_bounds(const util::CliArgs& args, obs::RunReport& report) {
  check_flags(args, {"cell", "p", "epsilon", "bits"});
  const adders::AdderCell& cell = cell_arg(args);
  const double p = args.get_double("p", 0.5);
  const double epsilon = args.get_double("epsilon", 0.1);
  const auto bits = static_cast<std::size_t>(args.get_uint("bits", 16));
  // Both bounds return a count >= 0.
  const auto width = static_cast<std::size_t>(
      analysis::max_cascadable_width(cell, p, epsilon));
  const auto lsbs = static_cast<std::size_t>(
      analysis::max_approximate_lsbs(cell, bits, p, epsilon));
  std::cout << "tolerance epsilon = " << util::fixed(epsilon, 4) << ", p = "
            << util::fixed(p, 3) << "\n";
  std::cout << "max cascadable width of " << cell.name() << ": " << width
            << " bits\n";
  std::cout << "max approximate LSBs in a " << bits << "-bit hybrid: " << lsbs
            << "\n";
  obs::Json& section = report.section("bounds");
  section.set("cell", obs::Json(cell.name()));
  section.set("p", obs::Json(p));
  section.set("epsilon", obs::Json(epsilon));
  section.set("max_cascadable_width",
              obs::Json(static_cast<std::uint64_t>(width)));
  section.set("max_approximate_lsbs",
              obs::Json(static_cast<std::uint64_t>(lsbs)));
  return 0;
}

int cmd_hybrid(const util::CliArgs& args, obs::RunReport& report) {
  check_flags(args, {"bits", "profile", "budget-nw", "objective", "search",
                     "checkpoint", "checkpoint-every", "suspend-after-units",
                     "resume"});
  const auto bits = static_cast<std::size_t>(args.get_uint("bits", 8));
  std::vector<double> p_bits;
  const std::string profile_csv = args.get("profile", "");
  if (profile_csv.empty()) {
    p_bits.assign(bits, 0.5);
  } else {
    std::stringstream stream(profile_csv);
    std::string token;
    while (std::getline(stream, token, ',')) p_bits.push_back(std::stod(token));
    if (p_bits.size() != bits) {
      throw std::invalid_argument("--profile must list exactly " +
                                  std::to_string(bits) + " values");
    }
  }
  const multibit::InputProfile profile(p_bits, p_bits, p_bits.front());
  explore::DesignConstraints constraints;
  std::vector<adders::AdderCell> candidates(adders::builtin_lpaas().begin(),
                                            adders::builtin_lpaas().end());
  if (args.has("budget-nw")) {
    constraints.max_power_nw = args.get_double("budget-nw", 3000.0);
    candidates.clear();
    for (int i = 1; i <= 5; ++i) candidates.push_back(adders::lpaa(i));
    candidates.push_back(adders::accurate());
  }
  const explore::Objective objective =
      explore::parse_objective(args.get("objective", "err"));
  // --search=bnb is the quality mode (provably optimal, branch-and-bound
  // with checkpoint/resume); beam (default) and greedy are fast previews;
  // exhaustive is the reference enumeration for small widths.
  const std::string search = args.get("search", "beam");
  const std::string checkpoint_path = args.get("checkpoint", "");
  if (search != "bnb") {
    for (const char* flag :
         {"checkpoint", "checkpoint-every", "suspend-after-units", "resume"}) {
      if (args.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " requires --search=bnb");
      }
    }
  }
  explore::HybridDesign design;
  bool complete = true;
  bool has_design = true;
  obs::ScopedTimer search_timer(report.counters(), "hybrid/search");
  if (search == "bnb") {
    explore::BnbOptions options;
    options.threads = args.threads();
    options.checkpoint_every_units = args.get_uint("checkpoint-every", 0);
    options.suspend_after_units = args.get_uint("suspend-after-units", 0);
    if (!checkpoint_path.empty()) {
      options.checkpoint_sink = [&checkpoint_path](
                                    const explore::BnbCheckpoint& ckpt) {
        obs::write_bnb_checkpoint(checkpoint_path, ckpt);
      };
    }
    explore::BnbResult result;
    if (args.get_bool("resume", false)) {
      if (checkpoint_path.empty()) {
        throw std::invalid_argument("--resume requires --checkpoint=FILE");
      }
      const explore::BnbCheckpoint ckpt =
          obs::read_bnb_checkpoint(checkpoint_path);
      result = explore::BranchBoundOptimizer::resume(
          profile, candidates, ckpt, constraints, objective, options);
    } else {
      result = explore::BranchBoundOptimizer::optimize(
          profile, candidates, constraints, objective, options);
    }
    complete = result.complete;
    has_design = result.has_incumbent;
    design = std::move(result.design);
  } else if (search == "beam") {
    design = explore::HybridOptimizer::beam(profile, candidates, constraints,
                                            512, objective);
  } else if (search == "greedy") {
    design = explore::HybridOptimizer::greedy(profile, candidates,
                                              constraints, objective);
  } else if (search == "exhaustive") {
    design = explore::HybridOptimizer::exhaustive(profile, candidates,
                                                  constraints, 50'000'000,
                                                  args.threads(), objective);
  } else {
    throw std::invalid_argument(
        "--search must be bnb, beam, greedy or exhaustive");
  }
  search_timer.stop();
  if (!complete) {
    std::cout << "search suspended after "
              << design.stats.nodes_expanded << " expanded nodes";
    if (!checkpoint_path.empty()) {
      std::cout << "; checkpoint written to " << checkpoint_path
                << " (resume with --resume)";
    }
    std::cout << "\n";
  }
  if (has_design) {
    std::cout << "best hybrid (objective="
              << explore::objective_name(objective)
              << ", search=" << search << "): "
              << design.chain().describe() << "\n"
              << "P(Error) = " << util::prob6(design.p_error) << "\n";
    if (design.med) {
      std::cout << "MED = " << util::fixed(*design.med, 6) << "\n";
    }
    if (design.mse) {
      std::cout << "MSE = " << util::fixed(*design.mse, 6) << "\n";
    }
    if (design.wce) {
      std::cout << "WCE = " << *design.wce << "\n";
    }
    if (design.power_nw) {
      std::cout << "power = " << util::fixed(*design.power_nw, 0) << " nW\n";
    }
  }
  obs::Json& section = report.section("hybrid");
  section.set("search_mode", obs::Json(search));
  section.set("complete", obs::Json(complete));
  section.set("design", has_design ? obs::to_json(design) : obs::Json());
  // Every SearchStats counter is reported explicitly — including the
  // zero-valued ones — so report consumers see the same key set no
  // matter which optimizer ran.
  report.counters().add("hybrid/candidates_evaluated",
                        design.stats.candidates_evaluated);
  report.counters().add("hybrid/candidates_rejected",
                        design.stats.candidates_rejected);
  report.counters().add("hybrid/cache_hits", design.stats.cache_hits);
  report.counters().add("hybrid/cache_misses", design.stats.cache_misses);
  report.counters().add("hybrid/stages_computed",
                        design.stats.stages_computed);
  report.counters().add("hybrid/soa_batches", design.stats.soa_batches);
  report.counters().add("hybrid/soa_lanes", design.stats.soa_lanes);
  report.counters().add("hybrid/soa_max_lanes", design.stats.soa_max_lanes);
  report.counters().add("hybrid/nodes_expanded", design.stats.nodes_expanded);
  report.counters().add("hybrid/nodes_pruned", design.stats.nodes_pruned);
  report.counters().add("hybrid/bound_cutoffs", design.stats.bound_cutoffs);
  report.counters().add("hybrid/steal_count", design.stats.steal_count);
  return 0;
}

int cmd_gear(const util::CliArgs& args, obs::RunReport& report) {
  check_flags(args, {"n", "r", "p", "p-input"});
  const gear::GearConfig config(static_cast<int>(args.get_int("n", 16)),
                                static_cast<int>(args.get_int("r", 4)),
                                static_cast<int>(args.get_int("p", 4)));
  const double p_input = args.get_double("p-input", 0.5);
  const auto profile = multibit::InputProfile::uniform(
      static_cast<std::size_t>(config.n()), p_input);
  obs::ScopedTimer timer(report.counters(), "gear");
  const auto analysis = gear::GearAnalyzer::analyze(config, profile);
  const double recovery =
      gear::expected_recovery_cycles(analysis.cycle_distribution);
  timer.stop();
  // GearAnalyzer ignores profile.p_cin(): GeAr's sub-adders all start
  // from carry-in 0.
  std::cout << config.describe() << "  p = " << util::fixed(p_input, 3)
            << "  p_cin = 0 (fixed by the topology)\n";
  std::cout << "P(Error) exact        = "
            << util::prob6(analysis.p_error_exact_dp) << "\n";
  std::cout << "P(Error) indep approx = "
            << util::prob6(analysis.p_error_independent_approx) << "\n";
  std::cout << "E[recovery cycles]    = " << util::fixed(recovery, 4) << "\n";
  obs::Json& section = report.section("gear");
  section.set("config", obs::Json(config.describe()));
  section.set("p_input", obs::Json(p_input));
  section.set("p_cin", obs::Json(0.0));
  section.set("p_error_exact", obs::Json(analysis.p_error_exact_dp));
  section.set("p_error_independent_approx",
              obs::Json(analysis.p_error_independent_approx));
  section.set("expected_recovery_cycles", obs::Json(recovery));
  return 0;
}

int cmd_blocks(const util::CliArgs& args, obs::RunReport& report) {
  check_flags(args, {"bits", "p", "blocks", "search", "max-l", "beam",
                     "objective", "exhaustive"});
  const auto bits = static_cast<std::size_t>(args.get_uint("bits", 16));
  const double p = args.get_double("p", 0.5);
  const auto profile = multibit::InputProfile::uniform(bits, p);
  obs::Json& section = report.section("blocks");
  section.set("bits", obs::Json(static_cast<std::uint64_t>(bits)));
  section.set("p", obs::Json(p));
  // Block 0's carry-in, shared with the exact reference.
  section.set("p_cin", obs::Json(profile.p_cin()));

  if (args.get_bool("search", false)) {
    explore::BlockSearchOptions options;
    options.max_sub_adder_width =
        static_cast<int>(args.get_int("max-l", 8));
    options.beam_width = args.get_uint("beam", 64);
    options.objective = explore::parse_objective(args.get("objective", "err"));
    const bool exhaustive = args.get_bool("exhaustive", false);
    obs::ScopedTimer timer(report.counters(), "blocks/search");
    const explore::BlockDesign design =
        exhaustive ? explore::BlockOptimizer::exhaustive(profile, options)
                   : explore::BlockOptimizer::beam(profile, options);
    timer.stop();
    const multibit::BlockChainSpec spec = design.spec();
    std::cout << "best partition (objective="
              << explore::objective_name(options.objective)
              << ", max sub-adder " << options.max_sub_adder_width
              << " bits, " << (exhaustive ? "exhaustive" : "beam")
              << ", p_cin = " << util::fixed(profile.p_cin(), 3)
              << "): " << spec.describe() << "\n"
              << "P(Error) = " << util::prob6(design.p_error) << "\n"
              << "MED = " << util::fixed(design.med, 6) << "\n"
              << "MSE = " << util::fixed(design.mse, 6) << "\n";
    section.set("search", obs::Json(exhaustive ? "exhaustive" : "beam"));
    section.set("objective",
                obs::Json(std::string(
                    explore::objective_name(options.objective))));
    section.set("max_sub_adder_width",
                obs::Json(static_cast<std::uint64_t>(
                    options.max_sub_adder_width)));
    section.set("best_blocks", obs::Json(spec.to_string()));
    section.set("objective_value", obs::Json(design.objective_value));
    section.set("p_error", obs::Json(design.p_error));
    section.set("med", obs::Json(design.med));
    section.set("mse", obs::Json(design.mse));
    report.counters().add("blocks/candidates_evaluated",
                          design.stats.candidates_evaluated);
    report.counters().add("blocks/candidates_rejected",
                          design.stats.candidates_rejected);
    return 0;
  }

  const multibit::BlockChainSpec spec = multibit::BlockChainSpec::parse(
      static_cast<int>(bits), args.get("blocks", "gear:4:4"));
  engine::EvaluateOptions options;
  options.blocks = spec;
  const auto chain =
      multibit::AdderChain::homogeneous(adders::accurate(), bits);
  obs::ScopedTimer timer(report.counters(), "blocks/analyze");
  const engine::Evaluation result = engine::evaluate(
      chain, profile, engine::Method::kBlockAnalytic, options);
  // The per-block mismatch marginals are a blocks-command extra the
  // engine projection doesn't carry; recompute without the PMF (cheap).
  analysis::BlockAnalysisOptions marginal_opts;
  marginal_opts.compute_pmf = false;
  const analysis::BlockAnalysis marginals =
      analysis::BlockErrorModel::analyze(spec, profile, marginal_opts);
  timer.stop();
  report.counters().add("blocks/work_items", result.work_items);

  std::cout << spec.describe() << "  p=" << util::fixed(p, 3)
            << "  p_cin=" << util::fixed(profile.p_cin(), 3) << "\n";
  std::cout << "P(Error) exact        = " << util::prob6(result.p_error)
            << "\n";
  std::cout << "P(Error) indep approx = "
            << util::prob6(marginals.p_error_independent_approx) << "\n";
  obs::Json mismatch = obs::Json::array();
  for (std::size_t i = 0; i < marginals.block_mismatch.size(); ++i) {
    std::cout << "  block " << i << " mismatch = "
              << util::prob6(marginals.block_mismatch[i]) << "\n";
    mismatch.push_back(obs::Json(marginals.block_mismatch[i]));
  }
  if (result.distribution) {
    const engine::DistributionStats& d = *result.distribution;
    std::cout << "MED  E[|err|] = " << util::fixed(d.mean_error_distance, 6)
              << "\nMSE  E[err^2] = " << util::fixed(d.mean_squared_error, 6)
              << "\nWCE  max|err| = " << d.worst_case_error << "\n";
    if (std::isfinite(d.psnr_db)) {
      std::cout << "PSNR = " << util::fixed(d.psnr_db, 2) << " dB\n";
    } else {
      std::cout << "PSNR = inf (exact)\n";
    }
  }
  section.set("spec", obs::Json(spec.to_string()));
  section.set("block_mismatch", std::move(mismatch));
  section.set("p_error_independent_approx",
              obs::Json(marginals.p_error_independent_approx));
  section.set("evaluation", obs::to_json(result));
  section.set("p_success", obs::Json(result.p_success));
  section.set("p_error", obs::Json(result.p_error));
  return 0;
}

int cmd_sim(const util::CliArgs& args, obs::RunReport& report) {
  check_flags(args,
              {"cell", "bits", "p", "samples", "seed", "no-exhaustive",
               "timings", "kernel"});
  const adders::AdderCell& cell = cell_arg(args);
  const auto bits = static_cast<std::size_t>(args.get_uint("bits", 8));
  const double p = args.get_double("p", 0.5);
  const std::uint64_t samples = args.get_uint("samples", 1'000'000);
  const std::uint64_t seed = args.get_uint("seed", 0x5ea1'c0de'2017'dacULL);
  const unsigned threads = args.threads();
  const sim::Kernel kernel = sim::parse_kernel(args.get("kernel", "bitsliced"));

  const auto chain = multibit::AdderChain::homogeneous(cell, bits);
  const auto profile = multibit::InputProfile::uniform(bits, p);
  const double analytical =
      analysis::RecursiveAnalyzer::error_probability(cell, profile);

  std::cout << chain.describe() << "  p=" << util::fixed(p, 3)
            << "  threads=" << threads << "\n";
  std::cout << "P(Error) analytical   = " << util::prob6(analytical) << "\n";

  obs::Json& section = report.section("sim");
  section.set("cell", obs::Json(cell.name()));
  section.set("bits", obs::Json(static_cast<std::uint64_t>(bits)));
  section.set("p", obs::Json(p));
  section.set("threads", obs::Json(threads));
  section.set("kernel", obs::Json(std::string(sim::kernel_name(kernel))));
  section.set("analytical_p_error", obs::Json(analytical));

  obs::ScopedTimer mc_timer(report.counters(), "sim/montecarlo");
  const auto mc =
      sim::MonteCarloSimulator::run_parallel(chain, profile, samples, threads,
                                             seed, kernel);
  mc_timer.stop();
  report.counters().add("sim/montecarlo/samples", mc.samples);
  report.counters().add("sim/montecarlo/lane_batches", mc.lane_batches);
  report.counters().add("sim/montecarlo/masked_lanes", mc.masked_lanes);
  std::cout << "P(Error) Monte Carlo  = "
            << util::prob6(mc.metrics.stage_failure_rate()) << "  ("
            << util::with_commas(samples) << " samples, 95% CI "
            << ci_text(mc.stage_failure_ci) << ", "
            << util::fixed(mc.seconds, 3) << "s)\n";
  if (args.get_bool("timings", false)) {
    std::cout << "  " << mc.shard_timings.summary() << "\n";
  }
  section.set("montecarlo", obs::to_json(mc));

  if (!args.get_bool("no-exhaustive", false) && bits <= 13) {
    obs::ScopedTimer ex_timer(report.counters(), "sim/exhaustive");
    const auto exhaustive =
        sim::ExhaustiveSimulator::run(chain, 13, threads, kernel);
    ex_timer.stop();
    report.counters().add("sim/exhaustive/cases",
                          exhaustive.metrics.cases());
    report.counters().add("sim/exhaustive/lane_batches",
                          exhaustive.lane_batches);
    report.counters().add("sim/exhaustive/masked_lanes",
                          exhaustive.masked_lanes);
    std::cout << "P(Error) exhaustive   = "
              << util::prob6(exhaustive.metrics.stage_failure_rate())
              << "  (" << util::with_commas(exhaustive.metrics.cases())
              << " cases, " << util::fixed(exhaustive.seconds, 3) << "s)";
    if (!profile.is_uniform(0.5)) {
      std::cout << "  [exhaustive assumes p=0.5]";
    }
    std::cout << "\n";
    if (args.get_bool("timings", false)) {
      std::cout << "  " << exhaustive.shard_timings.summary() << "\n";
    }
    section.set("exhaustive", obs::to_json(exhaustive));
  }
  return 0;
}

int cmd_synth(const util::CliArgs& args, obs::RunReport& report) {
  check_flags(args, {"kind", "cell", "bits", "n", "r", "p", "out", "tb"});
  const std::string kind = args.get("kind", "cell");
  rtl::Netlist netlist;
  std::string module_name;
  if (kind == "cell") {
    const adders::AdderCell& cell = cell_arg(args);
    netlist = rtl::synthesize_cell(cell);
    module_name = cell.name() + "_cell";
  } else if (kind == "chain") {
    const adders::AdderCell& cell = cell_arg(args);
    const auto bits = static_cast<std::size_t>(args.get_uint("bits", 8));
    netlist =
        rtl::synthesize_chain(multibit::AdderChain::homogeneous(cell, bits));
    module_name = cell.name() + "_rca" + std::to_string(bits);
  } else if (kind == "gear") {
    const gear::GearConfig config(static_cast<int>(args.get_int("n", 8)),
                                  static_cast<int>(args.get_int("r", 2)),
                                  static_cast<int>(args.get_int("p", 2)));
    netlist = rtl::synthesize_gear(config);
    module_name = "gear_n" + std::to_string(config.n());
  } else {
    throw std::invalid_argument("unknown --kind=" + kind +
                                " (cell|chain|gear)");
  }
  netlist = rtl::optimize(netlist);
  std::string verilog = rtl::to_verilog(netlist, module_name);
  if (args.get_bool("tb", false)) {
    verilog += "\n" + rtl::to_verilog_testbench(netlist, module_name);
  }
  // --out was documented but silently ignored; honour it.
  const std::string out_path = args.get("out", "");
  if (out_path.empty()) {
    std::cout << verilog;
  } else {
    std::ofstream out(out_path);
    if (!out) {
      throw std::runtime_error("cannot open '" + out_path + "' for writing");
    }
    out << verilog;
    if (!out) {
      throw std::runtime_error("write to '" + out_path + "' failed");
    }
    std::cout << "wrote " << module_name << " to " << out_path << "\n";
  }
  obs::Json& section = report.section("synth");
  section.set("kind", obs::Json(kind));
  section.set("module", obs::Json(module_name));
  section.set("verilog_bytes",
              obs::Json(static_cast<std::uint64_t>(verilog.size())));
  if (!out_path.empty()) section.set("out", obs::Json(out_path));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  if (args.positional().empty()) return usage();
  const std::string command = args.positional().front();
  try {
    // Size the shared pool before any engine touches it; every parallel
    // path (simulators, oracles, DSE) then inherits --threads.
    util::set_default_threads(args.threads());
    // Resolve the report destination first so a malformed --json-report
    // aborts before any work runs.
    const auto report_path = obs::report_path(args);
    obs::RunReport report("sealpaa_cli " + command);
    report.record_args(args);
    obs::ScopedTimer total(report.counters(), "total");

    int status = 2;
    if (command == "cells") {
      status = cmd_cells(args, report);
    } else if (command == "analyze") {
      status = cmd_analyze(args, report);
    } else if (command == "sweep") {
      status = cmd_sweep(args, report);
    } else if (command == "bounds") {
      status = cmd_bounds(args, report);
    } else if (command == "hybrid") {
      status = cmd_hybrid(args, report);
    } else if (command == "gear") {
      status = cmd_gear(args, report);
    } else if (command == "blocks") {
      status = cmd_blocks(args, report);
    } else if (command == "sim") {
      status = cmd_sim(args, report);
    } else if (command == "synth") {
      status = cmd_synth(args, report);
    } else {
      return usage();
    }
    total.stop();

    if (status == 0 && report_path) {
      report.write_file(*report_path);
      std::cerr << "json report written to " << *report_path << "\n";
    }
    return status;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
