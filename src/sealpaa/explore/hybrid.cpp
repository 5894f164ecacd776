#include "sealpaa/explore/hybrid.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "sealpaa/adders/characteristics.hpp"
#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/analysis/mkl.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/engine/incremental.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/explore/detail.hpp"
#include "sealpaa/util/parallel.hpp"

namespace sealpaa::explore {

namespace {

/// Finalized-prefix metric for the PMF-ranked objectives (kMed / kMse).
double pmf_metric(const analysis::ErrorPmf& pmf, Objective objective) {
  return objective == Objective::kMse ? pmf.mean_squared_error()
                                      : pmf.mean_error_distance();
}

}  // namespace

// Shared with branch_bound.cpp through explore/detail.hpp so every
// optimizer scores leaves, finalizes designs and applies constraints
// through the exact same code (bit-consistent scores and rejection
// decisions).
namespace detail {

double leaf_score(engine::IncrementalAnalyzer& path, std::size_t c,
                  Objective objective, std::uint64_t& stages) {
  if (objective == Objective::kErrorRate) return path.final_success_with(c);
  path.push(c);  // the PMF metric needs the whole chain
  ++stages;
  const double metric = pmf_metric(path.error_pmf(), objective);
  path.pop();
  return metric;
}

CellCost cost_of(const adders::AdderCell& cell) {
  const adders::CellCharacteristics* row =
      adders::find_characteristics(cell);
  if (row == nullptr) return {};
  return {row->power_nw, row->area_ge};
}

bool usable(const CellCost& cost, const DesignConstraints& constraints) {
  if (constraints.max_power_nw && !cost.power) return false;
  if (constraints.max_area_ge && !cost.area) return false;
  return true;
}

HybridDesign finalize(std::vector<adders::AdderCell> stages,
                      const multibit::InputProfile& profile,
                      Objective objective) {
  HybridDesign design;
  design.stages = std::move(stages);
  design.objective = objective;
  // p_error/p_success go through the same recursion call sequence
  // regardless of the objective (kAnalyticPmf shares kRecursive's exact
  // code path), so switching objectives never perturbs the reported
  // error probability.
  const multibit::AdderChain chain(design.stages);
  try {
    const engine::Evaluation result =
        engine::evaluate(chain, profile, engine::Method::kAnalyticPmf);
    design.p_success = result.p_success;
    design.p_error = result.p_error;
    design.med = result.distribution->mean_error_distance;
    design.mse = result.distribution->mean_squared_error;
    design.wce = result.distribution->worst_case_error;
  } catch (const std::length_error&) {
    // PMF support guard tripped: report the probability-only result.
    const engine::Evaluation result =
        engine::evaluate(chain, profile, engine::Method::kRecursive);
    design.p_success = result.p_success;
    design.p_error = result.p_error;
  }
  double power = 0.0;
  double area = 0.0;
  bool have_power = true;
  bool have_area = true;
  for (const adders::AdderCell& cell : design.stages) {
    const CellCost cost = cost_of(cell);
    if (cost.power) {
      power += *cost.power;
    } else {
      have_power = false;
    }
    if (cost.area) {
      area += *cost.area;
    } else {
      have_area = false;
    }
  }
  if (have_power) design.power_nw = power;
  if (have_area) design.area_ge = area;
  return design;
}

void require_candidates(std::span<const adders::AdderCell> candidates) {
  if (candidates.empty()) {
    throw std::invalid_argument("HybridOptimizer: no candidate cells");
  }
}

}  // namespace detail

namespace {
using detail::CellCost;
using detail::cost_of;
using detail::finalize;
using detail::improves;
using detail::leaf_score;
using detail::require_candidates;
using detail::usable;
}  // namespace

std::string_view objective_name(Objective objective) {
  switch (objective) {
    case Objective::kErrorRate: return "err";
    case Objective::kMed: return "med";
    case Objective::kMse: return "mse";
  }
  throw std::invalid_argument("explore::objective_name: unknown objective");
}

Objective parse_objective(std::string_view name) {
  if (name == "err") return Objective::kErrorRate;
  if (name == "med") return Objective::kMed;
  if (name == "mse") return Objective::kMse;
  throw std::invalid_argument("unknown objective '" + std::string(name) +
                              "' (valid: err, med, mse)");
}

HybridDesign HybridOptimizer::exhaustive(
    const multibit::InputProfile& profile,
    std::span<const adders::AdderCell> candidates,
    const DesignConstraints& constraints, std::uint64_t max_combinations,
    unsigned threads, Objective objective) {
  require_candidates(candidates);
  const std::size_t n = profile.width();
  const std::uint64_t k = candidates.size();
  const double combos =
      std::pow(static_cast<double>(k), static_cast<double>(n));
  if (combos > static_cast<double>(max_combinations)) {
    throw std::invalid_argument(
        "HybridOptimizer::exhaustive: search space too large; use beam()");
  }
  std::uint64_t total = 1;
  for (std::size_t i = 0; i < n; ++i) total *= k;

  std::vector<bool> cell_usable;
  std::vector<double> power_of;  // 0.0 placeholder for unusable cells
  std::vector<double> area_of;
  cell_usable.reserve(candidates.size());
  power_of.reserve(candidates.size());
  area_of.reserve(candidates.size());
  for (const adders::AdderCell& cell : candidates) {
    const CellCost cost = cost_of(cell);
    const bool ok = usable(cost, constraints);
    cell_usable.push_back(ok);
    power_of.push_back(ok && cost.power ? *cost.power : 0.0);
    area_of.push_back(ok && cost.area ? *cost.area : 0.0);
  }
  const bool track_power = constraints.max_power_nw.has_value();
  const bool track_area = constraints.max_area_ge.has_value();
  const bool maximize = objective == Objective::kErrorRate;

  // Historical design index (mixed radix k, stage 0 the least-significant
  // digit), kept as the explicit tie-break key so the reported winner is
  // the same design the sequential stage-0-fastest odometer would have
  // found first — independent of the walk order and the thread count.
  std::vector<std::uint64_t> pow_k(n);
  {
    std::uint64_t p = 1;
    for (std::size_t i = 0; i < n; ++i) {
      pow_k[i] = p;
      p *= k;
    }
  }

  struct Best {
    double score = 0.0;  // P(Success) (err) or the PMF metric (med/mse)
    std::uint64_t index = 0;  // historical stage-0-fastest design index
    bool found = false;
    std::uint64_t evaluated = 0;  // designs scored
    std::uint64_t rejected = 0;   // designs pruned by the constraints
    std::uint64_t stages = 0;     // analyzer pushes performed
  };

  // The walk enumerates designs with stage n-1 as the *fastest* digit, so
  // consecutive designs differ only in a suffix and the shared prefix
  // stays pushed on the incremental analyzer — amortized O(1) stage
  // advances per design instead of O(N).
  const std::uint64_t grain = std::max<std::uint64_t>(1, total / 64);
  const Best best = util::with_pool(threads, [&](util::ThreadPool& pool) {
    return util::parallel_map_reduce(
        pool, 0, total, grain, Best{},
        [&](std::uint64_t index_begin, std::uint64_t index_end) {
          Best shard;
          std::vector<std::size_t> choice(n);
          {
            std::uint64_t rest = index_begin;
            for (std::size_t i = n; i-- > 0;) {
              choice[i] = static_cast<std::size_t>(rest % k);
              rest /= k;
            }
          }
          std::uint64_t orig_index = 0;
          std::size_t unusable_stages = 0;
          for (std::size_t i = 0; i < n; ++i) {
            orig_index += static_cast<std::uint64_t>(choice[i]) * pow_k[i];
            if (!cell_usable[choice[i]]) ++unusable_stages;
          }
          // Running budget prefix sums: *_pre[i] covers stages [0, i).
          // Rebuilt from the first changed stage on every odometer step,
          // left to right — the same summation order as a fresh per-design
          // accumulation, so rejection decisions are bit-identical to the
          // historical per-chain loop.
          std::vector<double> power_pre(n + 1, 0.0);
          std::vector<double> area_pre(n + 1, 0.0);
          const auto rebuild_budgets = [&](std::size_t from) {
            if (track_power) {
              for (std::size_t i = from; i < n; ++i) {
                power_pre[i + 1] = power_pre[i] + power_of[choice[i]];
              }
            }
            if (track_area) {
              for (std::size_t i = from; i < n; ++i) {
                area_pre[i + 1] = area_pre[i] + area_of[choice[i]];
              }
            }
          };
          rebuild_budgets(0);

          engine::IncrementalAnalyzer inc(profile, candidates,
                                          /*track_pmf=*/!maximize);
          for (std::size_t i = 0; i + 1 < n; ++i) {
            inc.push(choice[i]);
            ++shard.stages;
          }

          for (std::uint64_t index = index_begin; index < index_end;
               ++index) {
            bool reject = unusable_stages > 0;
            if (!reject && track_power &&
                power_pre[n] > *constraints.max_power_nw) {
              reject = true;
            }
            if (!reject && track_area &&
                area_pre[n] > *constraints.max_area_ge) {
              reject = true;
            }
            if (reject) {
              ++shard.rejected;
            } else {
              ++shard.evaluated;
              const double score =
                  leaf_score(inc, choice[n - 1], objective, shard.stages);
              if (improves(shard.found, shard.score, shard.index, score,
                           orig_index, maximize)) {
                shard.score = score;
                shard.index = orig_index;
                shard.found = true;
              }
            }
            if (index + 1 == index_end) break;

            // Odometer step, stage n-1 fastest; `pos` ends at the most
            // significant changed stage.
            std::size_t pos = n;
            for (;;) {
              --pos;
              if (!cell_usable[choice[pos]]) --unusable_stages;
              if (choice[pos] + 1 < k) {
                ++choice[pos];
                orig_index += pow_k[pos];
                if (!cell_usable[choice[pos]]) ++unusable_stages;
                break;
              }
              choice[pos] = 0;
              orig_index -= (k - 1) * pow_k[pos];
              if (!cell_usable[choice[pos]]) ++unusable_stages;
            }
            rebuild_budgets(pos);
            if (pos + 1 < n) {
              inc.rewind(pos);
              for (std::size_t i = pos; i + 1 < n; ++i) {
                inc.push(choice[i]);
                ++shard.stages;
              }
            }
          }
          return shard;
        },
        [maximize](Best& acc, Best&& shard) {
          acc.evaluated += shard.evaluated;
          acc.rejected += shard.rejected;
          acc.stages += shard.stages;
          if (shard.found && improves(acc.found, acc.score, acc.index,
                                      shard.score, shard.index, maximize)) {
            acc.score = shard.score;
            acc.index = shard.index;
            acc.found = true;
          }
        });
  });

  if (!best.found) {
    throw std::runtime_error(
        "HybridOptimizer::exhaustive: no design satisfies the constraints");
  }
  std::vector<adders::AdderCell> stages;
  stages.reserve(n);
  std::uint64_t rest = best.index;
  for (std::size_t i = 0; i < n; ++i) {
    stages.push_back(candidates[static_cast<std::size_t>(rest % k)]);
    rest /= k;
  }
  HybridDesign design = finalize(std::move(stages), profile, objective);
  design.stats.candidates_evaluated = best.evaluated;
  design.stats.candidates_rejected = best.rejected;
  design.stats.stages_computed = best.stages;
  return design;
}

namespace detail {

std::vector<std::size_t> beam_choices(
    const multibit::InputProfile& profile,
    std::span<const adders::AdderCell> candidates,
    const DesignConstraints& constraints, std::size_t beam_width,
    Objective objective, SearchStats& stats) {
  require_candidates(candidates);
  if (beam_width == 0) {
    throw std::invalid_argument("HybridOptimizer::beam: beam width 0");
  }
  const std::size_t n = profile.width();
  const bool by_pmf = objective != Objective::kErrorRate;

  std::vector<CellCost> costs;
  std::vector<analysis::MklMatrices> mkls;
  costs.reserve(candidates.size());
  mkls.reserve(candidates.size());
  for (const adders::AdderCell& cell : candidates) {
    costs.push_back(cost_of(cell));
    mkls.push_back(analysis::MklMatrices::from_cell(cell));
  }
  const std::vector<analysis::OperandWeights> weights =
      analysis::operand_weights(profile);

  // A partial design carries the state after its stages — the
  // success-filtered carry (err) or the joint-carry error-PMF state
  // (med/mse) — so an extension costs one step from its parent.
  struct Partial {
    std::vector<std::size_t> choice;
    analysis::CarryState carry;
    std::shared_ptr<const analysis::ErrorPmfState> pmf;
    double power = 0.0;
    double area = 0.0;
  };
  // The full choice vector is only materialized for the `beam_width`
  // survivors of each round, so the 1-in-|candidates| losers never pay
  // an allocation for it.
  struct Extension {
    std::size_t parent = 0;
    std::size_t choice = 0;
    double score = 0.0;  // success mass (err) or prefix PMF metric
    analysis::CarryState carry;
    std::shared_ptr<const analysis::ErrorPmfState> pmf;
    double power = 0.0;
    double area = 0.0;
  };
  const auto better = [by_pmf](double a, double b) {
    return by_pmf ? a < b : a > b;
  };

  Partial root;
  if (by_pmf) {
    root.pmf = std::make_shared<const analysis::ErrorPmfState>(
        analysis::make_error_pmf_state(profile.p_cin()));
  } else {
    root.carry = {1.0 - profile.p_cin(), profile.p_cin()};  // Equation 5
  }
  std::vector<Partial> beam_set{std::move(root)};
  std::vector<Extension> expanded;

  bool have_best = false;
  double best_score = 0.0;
  std::vector<std::size_t> best_choice;

  for (std::size_t i = 0; i < n; ++i) {
    const bool last = i + 1 == n;
    expanded.clear();
    expanded.reserve(beam_set.size() * candidates.size());
    for (std::size_t parent = 0; parent < beam_set.size(); ++parent) {
      const Partial& partial = beam_set[parent];
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (!usable(costs[c], constraints)) {
          ++stats.candidates_rejected;
          continue;
        }
        double power = partial.power;
        double area = partial.area;
        if (constraints.max_power_nw) {
          power += *costs[c].power;
          if (power > *constraints.max_power_nw) {
            ++stats.candidates_rejected;
            continue;
          }
        }
        if (constraints.max_area_ge) {
          area += *costs[c].area;
          if (area > *constraints.max_area_ge) {
            ++stats.candidates_rejected;
            continue;
          }
        }
        ++stats.candidates_evaluated;
        // Ranking score: remaining success mass (err, maximized; Equation
        // 12 at the last stage) or the finalized prefix PMF's metric
        // (med/mse, minimized).
        Extension ext{parent, c, 0.0, {}, nullptr, power, area};
        if (by_pmf) {
          ext.pmf = std::make_shared<const analysis::ErrorPmfState>(
              analysis::next_error_pmf_state(*partial.pmf, candidates[c],
                                             profile.p_a(i),
                                             profile.p_b(i)));
          ++stats.stages_computed;
          ext.score =
              pmf_metric(analysis::finalize_error_pmf(*ext.pmf), objective);
        } else if (last) {
          ext.score = analysis::final_success(mkls[c], weights[i],
                                              partial.carry);
        } else {
          ext.carry = analysis::advance_stage(mkls[c], weights[i],
                                              partial.carry);
          ++stats.stages_computed;
          ext.score = ext.carry.success_mass();
        }
        if (!last) {
          expanded.push_back(std::move(ext));
        } else if (!have_best || better(ext.score, best_score)) {
          have_best = true;
          best_score = ext.score;
          best_choice = partial.choice;
          best_choice.push_back(c);
        }
      }
    }
    if (last) break;
    if (expanded.empty()) {
      throw std::runtime_error(
          "HybridOptimizer::beam: constraints eliminated every design");
    }
    const std::size_t keep = std::min(beam_width, expanded.size());
    std::partial_sort(expanded.begin(),
                      expanded.begin() + static_cast<std::ptrdiff_t>(keep),
                      expanded.end(),
                      [&better](const Extension& a, const Extension& b) {
                        return better(a.score, b.score);
                      });
    expanded.resize(keep);
    std::vector<Partial> survivors;
    survivors.reserve(keep);
    for (Extension& ext : expanded) {
      Partial next;
      next.choice = beam_set[ext.parent].choice;
      next.choice.push_back(ext.choice);
      next.carry = ext.carry;
      next.pmf = std::move(ext.pmf);
      next.power = ext.power;
      next.area = ext.area;
      survivors.push_back(std::move(next));
    }
    beam_set = std::move(survivors);
  }

  if (best_choice.empty()) {
    throw std::runtime_error(
        "HybridOptimizer::beam: no design satisfies the constraints");
  }
  return best_choice;
}

}  // namespace detail

HybridDesign HybridOptimizer::beam(const multibit::InputProfile& profile,
                                   std::span<const adders::AdderCell> candidates,
                                   const DesignConstraints& constraints,
                                   std::size_t beam_width,
                                   Objective objective) {
  SearchStats stats;
  const std::vector<std::size_t> choices = detail::beam_choices(
      profile, candidates, constraints, beam_width, objective, stats);
  std::vector<adders::AdderCell> stages;
  stages.reserve(choices.size());
  for (const std::size_t c : choices) stages.push_back(candidates[c]);
  HybridDesign design = finalize(std::move(stages), profile, objective);
  design.stats = stats;
  return design;
}

HybridDesign HybridOptimizer::greedy(const multibit::InputProfile& profile,
                                     std::span<const adders::AdderCell> candidates,
                                     const DesignConstraints& constraints,
                                     Objective objective) {
  return beam(profile, candidates, constraints, 1, objective);
}

}  // namespace sealpaa::explore
