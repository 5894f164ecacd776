// Proves the branch-and-bound DSE earns its "quality mode" title: on
// exhaustively checkable spaces it must reproduce the exhaustive
// optimizer's optimum bit-for-bit for all three objectives while
// expanding at least 10x fewer nodes, and a suspended + resumed run must
// reproduce the uninterrupted search exactly.
//
// Four gated legs per run:
//   optimum identity   bnb stages/scores == exhaustive (err at width 14
//                      over a 3-cell palette, med/mse at width 10 under
//                      a power budget);
//   node ratio         exhaustive leaves scored vs bnb nodes touched
//                      (expanded + leaf-scored), gated at >= 10x per
//                      objective;
//   uniform pin        err at width 16, uniform p = 0.5, LPAA1-7 (7^16
//                      designs, beyond exhaustive reach) returns the
//                      recorded optimum: 16 x LPAA1, P(Succ) bits
//                      3fb1583100000000;
//   determinism        the 8-thread run returns the 1-thread design and
//                      a kill/resume cycle matches the uninterrupted
//                      run's incumbent and nodes_expanded.
// Wall-clock numbers (speedup_vs_exhaustive_*, thread_scaling_8t) are
// reported for the regression gate; the scaling key and the uniform
// leg's nodes_expanded_err_uniform / bnb_seconds_err_uniform are
// informational.
//
// Hand-rolled driver (not google-benchmark) so the run can emit the
// versioned sealpaa.run-report JSON: results land in BENCH_bnb.json next
// to the binary (--no-json suppresses, --json-report=FILE redirects).
//
// Flags: --reps=3  --quick
#include <bit>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "sealpaa/sealpaa.hpp"

namespace {

using namespace sealpaa;

/// Deterministic non-uniform profile (realistic operand statistics) for
/// the legs checked against the exhaustive optimum.  Uniform p = 0.5 has
/// its own leg: there many designs keep nearly the same carry mass
/// c0 + c1 deep into the chain, and only the exact best-completion bound
/// separates them (exact score ties are still explored).
multibit::InputProfile bench_profile(std::size_t width) {
  std::vector<double> p_a;
  std::vector<double> p_b;
  for (std::size_t i = 0; i < width; ++i) {
    p_a.push_back(0.10 + 0.08 * static_cast<double>(i % 10));
    p_b.push_back(0.90 - 0.07 * static_cast<double>(i % 10));
  }
  return multibit::InputProfile(p_a, p_b, 0.25);
}

double min_of_reps(int reps, const std::function<double()>& run) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double seconds = run();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

bool same_design(const explore::HybridDesign& a,
                 const explore::HybridDesign& b) {
  if (a.stages.size() != b.stages.size()) return false;
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    if (a.stages[i].name() != b.stages[i].name()) return false;
  }
  return a.p_success == b.p_success && a.med == b.med && a.mse == b.mse;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  try {
    args.expect_flags({"reps", "quick", "json-report", "no-json"});
    const bool quick = args.get_bool("quick", false);
    const int reps = static_cast<int>(args.get_uint("reps", quick ? 1 : 3));

    // Two regimes, one per bound family.
    //
    // err: an all-approximate 3-cell palette keeps the exhaustive
    // reference tractable at width 14 (3^14 ~ 4.8M designs) while
    // spanning the paper's regimes (LPAA1 high-p, LPAA7 low-p, LPAA3
    // in between).  The err bound is the best completion over this
    // palette with budgets relaxed; a palette holding AccuFA would make
    // it the carry mass c0 + c1 (AccuFA completes any prefix losslessly).
    //
    // med/mse: the residue bound only sees error mass that is NOT a
    // multiple of 2^d, so it cannot prune when the optimum's MED is
    // itself dominated by high-bit errors — which is exactly what an
    // unconstrained approximate-only palette produces.  The bound's
    // regime (and the paper's use case, Sec. 6) is the power-budgeted
    // search where accurate cells are affordable for the high bits and
    // the optimum MED is small; the budget below admits AccuFA on all
    // but the four lowest stages (1385 nW/stage) with LPAA3 (198 nW)
    // covering the rest.
    const std::vector<adders::AdderCell> err_palette = {
        adders::lpaa(1), adders::lpaa(3), adders::lpaa(7)};
    const std::vector<adders::AdderCell> pmf_palette = {
        adders::accurate(), adders::lpaa(2), adders::lpaa(3)};
    const std::size_t pmf_width = quick ? std::size_t{8} : std::size_t{10};
    explore::DesignConstraints pmf_constraints;
    pmf_constraints.max_power_nw =
        1385.0 * static_cast<double>(pmf_width - 4) + 198.0 * 4;
    struct Leg {
      explore::Objective objective;
      std::size_t width;
      const std::vector<adders::AdderCell>& palette;
      explore::DesignConstraints constraints;
    };
    const std::vector<Leg> legs = {
        {explore::Objective::kErrorRate,
         quick ? std::size_t{10} : std::size_t{14}, err_palette, {}},
        {explore::Objective::kMed, pmf_width, pmf_palette, pmf_constraints},
        {explore::Objective::kMse, pmf_width, pmf_palette, pmf_constraints},
    };

    std::cout << util::banner(
        "branch-and-bound DSE: exact optimum vs exhaustive enumeration");
    std::cout << "palettes: " << err_palette.size() << " cells (err), "
              << pmf_palette.size() << " cells + "
              << util::fixed(*pmf_constraints.max_power_nw, 0)
              << " nW budget (med/mse)  reps: " << reps
              << (quick ? "  (quick)" : "") << "\n";

    obs::RunReport report("bench_bnb");
    report.record_args(args);
    obs::ScopedTimer total(report.counters(), "total");
    obs::Json& section = report.section("bnb");

    bool identical = true;
    bool threads_identical = true;
    bool resume_identical = true;
    double min_node_ratio = 0.0;
    bool first_ratio = true;

    for (const Leg& leg : legs) {
      const std::string name(explore::objective_name(leg.objective));
      const multibit::InputProfile profile = bench_profile(leg.width);

      // Exhaustive is pinned to 1 thread so speedup_vs_exhaustive_* is a
      // single-thread vs single-thread comparison and does not shrink on
      // machines with more cores than the committed reference run.
      const explore::HybridDesign exact = explore::HybridOptimizer::exhaustive(
          profile, leg.palette, leg.constraints, 50'000'000, 1, leg.objective);
      explore::BnbOptions one_thread;
      one_thread.threads = 1;
      const explore::BnbResult bnb = explore::BranchBoundOptimizer::optimize(
          profile, leg.palette, leg.constraints, leg.objective, one_thread);
      identical = identical && bnb.complete && same_design(bnb.design, exact);

      // Nodes the two searches touched: exhaustive scores every design;
      // bnb pays one bound test per expanded node plus the leaf scores.
      const double exhaustive_nodes =
          static_cast<double>(exact.stats.candidates_evaluated);
      const double bnb_nodes =
          static_cast<double>(bnb.design.stats.nodes_expanded +
                              bnb.design.stats.candidates_evaluated);
      const double node_ratio =
          bnb_nodes > 0.0 ? exhaustive_nodes / bnb_nodes : 0.0;
      if (first_ratio || node_ratio < min_node_ratio) {
        min_node_ratio = node_ratio;
        first_ratio = false;
      }

      const double exhaustive_seconds = min_of_reps(reps, [&] {
        const util::WallTimer timer;
        volatile double guard =
            explore::HybridOptimizer::exhaustive(profile, leg.palette,
                                                 leg.constraints, 50'000'000,
                                                 1, leg.objective)
                .p_success;
        (void)guard;
        return timer.elapsed_seconds();
      });
      const double bnb_seconds = min_of_reps(reps, [&] {
        const util::WallTimer timer;
        volatile double guard =
            explore::BranchBoundOptimizer::optimize(profile, leg.palette,
                                                    leg.constraints,
                                                    leg.objective, one_thread)
                .design.p_success;
        (void)guard;
        return timer.elapsed_seconds();
      });
      const double speedup = bnb_seconds > 0.0
                                 ? exhaustive_seconds / bnb_seconds
                                 : 0.0;

      std::cout << "  " << name << " w" << leg.width << ":  exhaustive "
                << util::duration(exhaustive_seconds) << " ("
                << exact.stats.candidates_evaluated << " designs)  bnb "
                << util::duration(bnb_seconds) << " ("
                << bnb.design.stats.nodes_expanded << " expanded, "
                << bnb.design.stats.candidates_evaluated << " scored)  "
                << util::fixed(node_ratio, 1) << "x fewer nodes, "
                << util::fixed(speedup, 1) << "x faster\n";

      section.set("node_ratio_" + name, obs::Json(node_ratio));
      section.set("speedup_vs_exhaustive_" + name, obs::Json(speedup));
      section.set("nodes_expanded_" + name,
                  obs::Json(bnb.design.stats.nodes_expanded));
      section.set("bound_cutoffs_" + name,
                  obs::Json(bnb.design.stats.bound_cutoffs));
    }

    // Uniform leg: the dse-err shape, checked against its recorded
    // optimum instead of an exhaustive run.
    bool uniform_pinned = false;
    {
      const multibit::InputProfile profile =
          multibit::InputProfile::uniform(16, 0.5);
      explore::BnbOptions one_thread;
      one_thread.threads = 1;
      const explore::BnbResult bnb = explore::BranchBoundOptimizer::optimize(
          profile, adders::builtin_lpaas(), {},
          explore::Objective::kErrorRate, one_thread);
      uniform_pinned = bnb.complete && bnb.design.stages.size() == 16 &&
                       std::bit_cast<std::uint64_t>(bnb.design.p_success) ==
                           0x3fb1583100000000ULL;
      for (const adders::AdderCell& stage : bnb.design.stages) {
        uniform_pinned = uniform_pinned && stage.name() == "LPAA1";
      }
      const double bnb_seconds = min_of_reps(reps, [&] {
        const util::WallTimer timer;
        volatile double guard =
            explore::BranchBoundOptimizer::optimize(
                profile, adders::builtin_lpaas(), {},
                explore::Objective::kErrorRate, one_thread)
                .design.p_success;
        (void)guard;
        return timer.elapsed_seconds();
      });
      std::cout << "  err uniform w16 (7 cells, p = 0.5):  bnb "
                << util::duration(bnb_seconds) << " ("
                << bnb.design.stats.nodes_expanded << " expanded, "
                << bnb.design.stats.candidates_evaluated
                << " scored)  recorded optimum: "
                << (uniform_pinned ? "yes" : "NO") << "\n";
      section.set("nodes_expanded_err_uniform",
                  obs::Json(bnb.design.stats.nodes_expanded));
      section.set("bound_cutoffs_err_uniform",
                  obs::Json(bnb.design.stats.bound_cutoffs));
      section.set("bnb_seconds_err_uniform", obs::Json(bnb_seconds));
    }

    // Parallel-scaling leg: the widest err search at 1 vs 8 workers must
    // return the same design; the wall-clock ratio is informational
    // (CI machines may have 2 cores).
    {
      const Leg& leg = legs.front();
      const multibit::InputProfile profile = bench_profile(leg.width);
      explore::BnbOptions one_thread;
      one_thread.threads = 1;
      explore::BnbOptions eight_threads;
      eight_threads.threads = 8;
      const explore::BnbResult one = explore::BranchBoundOptimizer::optimize(
          profile, leg.palette, leg.constraints, leg.objective, one_thread);
      const explore::BnbResult eight = explore::BranchBoundOptimizer::optimize(
          profile, leg.palette, leg.constraints, leg.objective, eight_threads);
      threads_identical = same_design(one.design, eight.design);
      const double t1 = min_of_reps(reps, [&] {
        const util::WallTimer timer;
        volatile double guard =
            explore::BranchBoundOptimizer::optimize(profile, leg.palette,
                                                    leg.constraints,
                                                    leg.objective, one_thread)
                .design.p_success;
        (void)guard;
        return timer.elapsed_seconds();
      });
      const double t8 = min_of_reps(reps, [&] {
        const util::WallTimer timer;
        volatile double guard =
            explore::BranchBoundOptimizer::optimize(profile, leg.palette,
                                                    leg.constraints,
                                                    leg.objective,
                                                    eight_threads)
                .design.p_success;
        (void)guard;
        return timer.elapsed_seconds();
      });
      const double scaling = t8 > 0.0 ? t1 / t8 : 0.0;
      std::cout << "  8-thread design identical: "
                << (threads_identical ? "yes" : "NO")
                << "  thread_scaling_8t = " << util::fixed(scaling, 2)
                << "x\n";
      section.set("thread_scaling_8t", obs::Json(scaling));
    }

    // Kill/resume leg: suspend after 3 units, resume from the
    // checkpoint, and require the uninterrupted run's incumbent and
    // nodes_expanded total exactly.
    {
      const Leg& leg = legs.front();
      const multibit::InputProfile profile = bench_profile(leg.width);
      explore::BnbOptions suspend;
      suspend.threads = 1;
      suspend.suspend_after_units = 3;
      const explore::BnbResult interrupted =
          explore::BranchBoundOptimizer::optimize(profile, leg.palette,
                                                  leg.constraints,
                                                  leg.objective, suspend);
      explore::BnbOptions one_thread;
      one_thread.threads = 1;
      const explore::BnbResult resumed = explore::BranchBoundOptimizer::resume(
          profile, leg.palette, interrupted.checkpoint, leg.constraints,
          leg.objective, one_thread);
      const explore::BnbResult uninterrupted =
          explore::BranchBoundOptimizer::optimize(profile, leg.palette,
                                                  leg.constraints,
                                                  leg.objective, one_thread);
      resume_identical =
          !interrupted.complete && resumed.complete &&
          same_design(resumed.design, uninterrupted.design) &&
          resumed.design.stats.nodes_expanded ==
              uninterrupted.design.stats.nodes_expanded &&
          resumed.design.stats.candidates_evaluated ==
              uninterrupted.design.stats.candidates_evaluated;
      std::cout << "  kill/resume reproduces uninterrupted run: "
                << (resume_identical ? "yes" : "NO") << "\n";
    }
    total.stop();

    const bool ratio_ok = min_node_ratio >= 10.0;
    std::cout << "optimum identical to exhaustive: "
              << (identical ? "yes" : "NO") << "  min node ratio = "
              << util::fixed(min_node_ratio, 1) << "x  (gate: >= 10x "
              << (ratio_ok ? "ok" : "FAIL") << ")\n";
    if (!identical) {
      std::cerr << "FAIL: bnb diverged from the exhaustive optimum\n";
    }
    if (!ratio_ok) {
      std::cerr << "FAIL: node ratio below 10x\n";
    }
    if (!threads_identical) {
      std::cerr << "FAIL: 8-thread design differs from 1-thread\n";
    }
    if (!resume_identical) {
      std::cerr << "FAIL: resume did not reproduce the uninterrupted run\n";
    }
    if (!uniform_pinned) {
      std::cerr << "FAIL: uniform width-16 err search missed the recorded "
                   "optimum\n";
    }

    section.set("reps", obs::Json(static_cast<std::uint64_t>(
                            static_cast<std::size_t>(reps))));
    section.set("quick", obs::Json(quick));
    section.set("min_node_ratio", obs::Json(min_node_ratio));
    section.set("identical", obs::Json(identical));
    section.set("node_ratio_ok", obs::Json(ratio_ok));
    section.set("threads_identical", obs::Json(threads_identical));
    section.set("resume_identical", obs::Json(resume_identical));
    section.set("err_uniform_pinned", obs::Json(uniform_pinned));

    if (const auto path = obs::report_path(args, "BENCH_bnb.json")) {
      report.write_file(*path);
      std::cout << "json report written to " << *path << "\n";
    }
    return identical && ratio_ok && threads_identical && resume_identical &&
                   uniform_pinned
               ? 0
               : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
