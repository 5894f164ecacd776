// Measures what prefix reuse buys the beam DSE: the same beam search run
// (a) naively, re-analyzing every partial design from bit 0 with the
// batch recursive analyzer — the per-chain cost model the optimizer had
// before the engine layer — and (b) through
// explore::HybridOptimizer::beam, whose survivors carry their carry
// state, so each expansion is one stage advance from its parent.
//
// The two searches must return the *identical* winning design and
// p_error (bit-identical scores, same tie-breaks); the bench exits
// non-zero when they disagree or when the beam computed more stages
// than it scored expansions, so CI catches both a silently diverging
// rewrite and a beam that lost its parent states.  The speedup itself is
// reported, not gated (machine-dependent).  (The file and section keep
// their historical prefix-cache names, which the committed reference
// and the regression checker key on.)
//
// Hand-rolled driver (not google-benchmark) so the run can emit the
// versioned sealpaa.run-report JSON: results land in
// BENCH_dse_prefix_cache.json in the current directory (--no-json
// suppresses, --json-report=FILE redirects).
//
// Flags: --bits=16  --beam=128  --reps=3  --p=0.35  --quick
#include <algorithm>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "sealpaa/sealpaa.hpp"

namespace {

using namespace sealpaa;

/// Beam search scored exclusively with RecursiveAnalyzer::analyze on the
/// truncated chain/profile — every expansion pays O(stage) work.  Mirrors
/// HybridOptimizer::beam's expansion order, comparator and tie-breaks
/// exactly (no constraints), so any output difference is a correctness
/// bug, not a search-policy difference.
struct NaiveResult {
  std::vector<std::size_t> choice;
  double p_error = 1.0;
  std::uint64_t stage_advances = 0;  // total stages re-analyzed
};

NaiveResult naive_beam(const multibit::InputProfile& profile,
                       std::span<const adders::AdderCell> candidates,
                       std::size_t beam_width) {
  const std::size_t n = profile.width();
  NaiveResult result;

  const auto truncated_profile = [&](std::size_t width) {
    const std::vector<double> p_a(profile.all_p_a().begin(),
                                  profile.all_p_a().begin() +
                                      static_cast<std::ptrdiff_t>(width));
    const std::vector<double> p_b(profile.all_p_b().begin(),
                                  profile.all_p_b().begin() +
                                      static_cast<std::ptrdiff_t>(width));
    return multibit::InputProfile(p_a, p_b, profile.p_cin());
  };
  const auto chain_of = [&](const std::vector<std::size_t>& choice) {
    std::vector<adders::AdderCell> stages;
    stages.reserve(choice.size());
    for (const std::size_t c : choice) stages.push_back(candidates[c]);
    return multibit::AdderChain(std::move(stages));
  };

  struct Partial {
    std::vector<std::size_t> choice;
    double score = 0.0;  // success mass after the prefix
  };
  std::vector<Partial> beam_set{Partial{{}, 1.0}};

  double best_success = -1.0;
  std::vector<std::size_t> best_choice;

  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Partial> expanded;
    expanded.reserve(beam_set.size() * candidates.size());
    for (const Partial& partial : beam_set) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        Partial next;
        next.choice = partial.choice;
        next.choice.push_back(c);
        result.stage_advances += next.choice.size();
        // Each candidate evaluation is self-contained, exactly as the
        // public analyze(chain, profile) API requires: build the partial
        // chain and its matching truncated profile, run the recursion
        // from bit 0.
        if (i + 1 == n) {
          const double p_success = analysis::RecursiveAnalyzer::analyze(
                                       chain_of(next.choice), profile)
                                       .p_success;
          if (p_success > best_success) {
            best_success = p_success;
            best_choice = next.choice;
          }
        } else {
          next.score = analysis::RecursiveAnalyzer::analyze(
                           chain_of(next.choice), truncated_profile(i + 1))
                           .final_carry.success_mass();
          expanded.push_back(std::move(next));
        }
      }
    }
    if (i + 1 == n) break;
    const std::size_t keep = std::min(beam_width, expanded.size());
    std::partial_sort(expanded.begin(),
                      expanded.begin() + static_cast<std::ptrdiff_t>(keep),
                      expanded.end(), [](const Partial& a, const Partial& b) {
                        return a.score > b.score;
                      });
    expanded.resize(keep);
    beam_set = std::move(expanded);
  }

  result.choice = best_choice;
  result.p_error =
      analysis::RecursiveAnalyzer::analyze(chain_of(best_choice), profile)
          .p_error;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  try {
    args.expect_flags({"bits", "beam", "reps", "p", "quick", "json-report",
                       "no-json"});
    const bool quick = args.get_bool("quick", false);
    const auto bits =
        static_cast<std::size_t>(args.get_uint("bits", quick ? 10 : 16));
    const auto beam_width =
        static_cast<std::size_t>(args.get_uint("beam", quick ? 32 : 128));
    const int reps = static_cast<int>(args.get_uint("reps", quick ? 1 : 3));
    const double p = args.get_double("p", 0.35);

    const auto profile = multibit::InputProfile::uniform(bits, p);
    const std::span<const adders::AdderCell> candidates =
        adders::builtin_lpaas();

    std::cout << util::banner("DSE prefix reuse: naive re-analysis vs "
                              "state-carrying beam");
    std::cout << "bits: " << bits << "  beam: " << beam_width
              << "  candidates: " << candidates.size() << "  p: "
              << util::fixed(p, 2) << "  reps: " << reps << "\n";

    obs::RunReport report("bench_dse_prefix_cache");
    report.record_args(args);
    obs::ScopedTimer total(report.counters(), "total");

    NaiveResult naive;
    double naive_seconds = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      util::WallTimer timer;
      naive = naive_beam(profile, candidates, beam_width);
      const double seconds = timer.elapsed_seconds();
      if (rep == 0 || seconds < naive_seconds) naive_seconds = seconds;
    }
    std::cout << "  naive per-chain recursion  " << util::duration(naive_seconds)
              << "  (" << util::with_commas(naive.stage_advances)
              << " stage advances)\n";

    explore::HybridDesign design;
    double engine_seconds = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      util::WallTimer timer;
      design = explore::HybridOptimizer::beam(profile, candidates, {},
                                              beam_width);
      const double seconds = timer.elapsed_seconds();
      if (rep == 0 || seconds < engine_seconds) engine_seconds = seconds;
    }
    std::cout << "  state-carrying beam        "
              << util::duration(engine_seconds) << "  ("
              << util::with_commas(design.stats.stages_computed)
              << " stage advances, "
              << util::with_commas(design.stats.candidates_evaluated)
              << " expansions)\n";
    total.stop();

    // Correctness gates: same winner, same p_error, at most one stage
    // per scored expansion.
    bool identical = design.stages.size() == naive.choice.size() &&
                     design.p_error == naive.p_error;
    if (identical) {
      for (std::size_t i = 0; i < naive.choice.size(); ++i) {
        identical = identical &&
                    design.stages[i] == candidates[naive.choice[i]];
      }
    }
    const bool one_stage_each =
        design.stats.stages_computed <= design.stats.candidates_evaluated;
    const double speedup =
        engine_seconds > 0.0 ? naive_seconds / engine_seconds : 0.0;

    std::cout << "winner: " << design.chain().describe() << "\n"
              << "P(Error) = " << util::prob6(design.p_error) << "\n"
              << "speedup  = " << util::fixed(speedup, 2) << "x  identical: "
              << (identical ? "yes" : "NO") << "  stages per expansion <= 1: "
              << (one_stage_each ? "yes" : "NO") << "\n";
    if (!identical) {
      std::cerr << "FAIL: beam diverged from naive recursion "
                   "(naive P(Error) = " << util::prob6(naive.p_error)
                << ")\n";
    }
    if (!one_stage_each) {
      std::cerr << "FAIL: beam computed more stages than it scored "
                   "expansions\n";
    }

    obs::Json& section = report.section("dse_prefix_cache");
    section.set("bits", obs::Json(static_cast<std::uint64_t>(bits)));
    section.set("beam_width",
                obs::Json(static_cast<std::uint64_t>(beam_width)));
    section.set("candidates",
                obs::Json(static_cast<std::uint64_t>(candidates.size())));
    section.set("p", obs::Json(p));
    section.set("reps", obs::Json(static_cast<std::uint64_t>(
                            static_cast<std::size_t>(reps))));
    section.set("naive_seconds", obs::Json(naive_seconds));
    section.set("engine_seconds", obs::Json(engine_seconds));
    section.set("speedup", obs::Json(speedup));
    section.set("identical", obs::Json(identical));
    section.set("naive_stage_advances", obs::Json(naive.stage_advances));
    section.set("design", obs::to_json(design));
    section.set("search", obs::to_json(design.stats));

    if (const auto path =
            obs::report_path(args, "BENCH_dse_prefix_cache.json")) {
      report.write_file(*path);
      std::cout << "json report written to " << *path << "\n";
    }
    return identical && one_stage_each ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
