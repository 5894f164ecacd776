#include "sealpaa/explore/block_search.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace sealpaa::explore {

namespace {

/// Lexicographic order on block lists — the deterministic tie-break.
bool blocks_less(const std::vector<multibit::SubBlock>& a,
                 const std::vector<multibit::SubBlock>& b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const multibit::SubBlock& x, const multibit::SubBlock& y) {
        if (x.result_width != y.result_width) {
          return x.result_width < y.result_width;
        }
        return x.prediction_width < y.prediction_width;
      });
}

/// Exact objective value of a complete partition; returns false (design
/// rejected) when the spec violates a structural rail such as the
/// live-window cap.
bool score_exact(const multibit::InputProfile& profile,
                 const std::vector<multibit::SubBlock>& blocks,
                 const BlockSearchOptions& options, double& value) {
  analysis::BlockAnalysisOptions opts;
  opts.pmf = options.pmf;
  opts.compute_pmf = options.objective != Objective::kErrorRate;
  try {
    const analysis::BlockAnalysis result = analysis::BlockErrorModel::analyze(
        multibit::BlockChainSpec(blocks), profile, opts);
    switch (options.objective) {
      case Objective::kErrorRate:
        value = result.p_error;
        break;
      case Objective::kMed:
        value = result.pmf.mean_error_distance();
        break;
      case Objective::kMse:
        value = result.pmf.mean_squared_error();
        break;
    }
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

BlockDesign finish(const multibit::InputProfile& profile,
                   std::vector<multibit::SubBlock> blocks, double value,
                   const BlockSearchOptions& options, SearchStats stats) {
  BlockDesign design;
  design.blocks = std::move(blocks);
  design.objective_value = value;
  analysis::BlockAnalysisOptions opts;
  opts.pmf = options.pmf;
  const analysis::BlockAnalysis result = analysis::BlockErrorModel::analyze(
      design.spec(), profile, opts);
  design.p_error = result.p_error;
  design.med = result.pmf.mean_error_distance();
  design.mse = result.pmf.mean_squared_error();
  design.stats = stats;
  return design;
}

void validate(const multibit::InputProfile& profile,
              const BlockSearchOptions& options, const char* who) {
  if (options.max_sub_adder_width < 1) {
    throw std::invalid_argument(std::string(who) +
                                ": max_sub_adder_width must be >= 1");
  }
  if (profile.width() < 1 || profile.width() > 62) {
    throw std::invalid_argument(std::string(who) +
                                ": profile width must be in [1, 62]");
  }
}

}  // namespace

BlockDesign BlockOptimizer::exhaustive(const multibit::InputProfile& profile,
                                       const BlockSearchOptions& options) {
  validate(profile, options, "BlockOptimizer::exhaustive");
  const int n = static_cast<int>(profile.width());
  const int l_max = options.max_sub_adder_width;

  // Count feasible partitions of [s, n) first so a too-wide search
  // fails fast instead of running for hours.
  std::vector<std::uint64_t> count(static_cast<std::size_t>(n) + 1, 0);
  count[static_cast<std::size_t>(n)] = 1;
  for (int s = n - 1; s >= 0; --s) {
    std::uint64_t total = 0;
    for (int r = 1; r <= std::min(l_max, n - s); ++r) {
      const std::uint64_t p_choices =
          s == 0 ? 1
                 : static_cast<std::uint64_t>(std::min(s, l_max - r)) + 1;
      const std::uint64_t sub = count[static_cast<std::size_t>(s + r)];
      if (sub != 0 && p_choices > (options.max_designs * 2) / sub) {
        total = options.max_designs + 1;  // saturate, no overflow
        break;
      }
      total += p_choices * sub;
      if (total > options.max_designs) break;
    }
    count[static_cast<std::size_t>(s)] = std::min(
        total, options.max_designs + 1);
  }
  if (count[0] > options.max_designs) {
    throw std::invalid_argument(
        "BlockOptimizer::exhaustive: feasible design count exceeds the "
        "guard (" +
        std::to_string(options.max_designs) +
        "); raise max_designs or use beam()");
  }

  SearchStats stats;
  std::vector<multibit::SubBlock> current;
  std::vector<multibit::SubBlock> best_blocks;
  double best_value = 0.0;
  bool have_best = false;

  const auto dfs = [&](const auto& self, int s) -> void {
    if (s == n) {
      double value = 0.0;
      ++stats.candidates_evaluated;
      if (!score_exact(profile, current, options, value)) {
        ++stats.candidates_rejected;
        return;
      }
      if (!have_best || value < best_value ||
          (value == best_value && blocks_less(current, best_blocks))) {
        have_best = true;
        best_value = value;
        best_blocks = current;
      }
      return;
    }
    for (int r = 1; r <= std::min(l_max, n - s); ++r) {
      const int p_max = s == 0 ? 0 : std::min(s, l_max - r);
      for (int p = 0; p <= p_max; ++p) {
        current.push_back({r, p});
        self(self, s + r);
        current.pop_back();
      }
    }
  };
  dfs(dfs, 0);

  if (!have_best) {
    throw std::invalid_argument(
        "BlockOptimizer::exhaustive: no feasible partition (budget too "
        "tight for the width)");
  }
  return finish(profile, std::move(best_blocks), best_value, options, stats);
}

BlockDesign BlockOptimizer::beam(const multibit::InputProfile& profile,
                                 const BlockSearchOptions& options) {
  validate(profile, options, "BlockOptimizer::beam");
  const int n = static_cast<int>(profile.width());
  const int l_max = options.max_sub_adder_width;
  const std::vector<double> carry_at =
      analysis::exact_carry_probabilities(profile, profile.p_cin());

  struct Partial {
    std::vector<multibit::SubBlock> blocks;
    double p_all_ok = 1.0;  // prod(1 - mismatch_i), the ranking heuristic
  };
  const auto partial_less = [](const Partial& a, const Partial& b) {
    if (a.p_all_ok != b.p_all_ok) return a.p_all_ok > b.p_all_ok;
    return blocks_less(a.blocks, b.blocks);
  };

  SearchStats stats;
  std::vector<std::vector<Partial>> frontier(
      static_cast<std::size_t>(n) + 1);
  frontier[0].push_back(Partial{});

  for (int s = 0; s < n; ++s) {
    auto& bucket = frontier[static_cast<std::size_t>(s)];
    if (bucket.empty()) continue;
    std::sort(bucket.begin(), bucket.end(), partial_less);
    if (bucket.size() > options.beam_width) {
      bucket.resize(options.beam_width);
    }
    for (const Partial& partial : bucket) {
      for (int r = 1; r <= std::min(l_max, n - s); ++r) {
        const int p_max = s == 0 ? 0 : std::min(s, l_max - r);
        for (int p = 0; p <= p_max; ++p) {
          Partial next;
          next.blocks = partial.blocks;
          next.blocks.push_back({r, p});
          next.p_all_ok = partial.p_all_ok;
          if (s > 0) {
            // The block's result starts at s behind a p-bit window.
            next.p_all_ok *=
                1.0 - analysis::window_mismatch(profile, carry_at, s - p, s);
          }
          frontier[static_cast<std::size_t>(s + r)].push_back(
              std::move(next));
        }
      }
    }
    bucket.clear();  // partials at s are fully expanded
  }

  auto& complete = frontier[static_cast<std::size_t>(n)];
  if (complete.empty()) {
    throw std::invalid_argument(
        "BlockOptimizer::beam: no feasible partition (budget too tight "
        "for the width)");
  }
  std::sort(complete.begin(), complete.end(), partial_less);
  if (complete.size() > options.beam_width) {
    complete.resize(options.beam_width);
  }

  std::vector<multibit::SubBlock> best_blocks;
  double best_value = 0.0;
  bool have_best = false;
  for (const Partial& candidate : complete) {
    double value = 0.0;
    ++stats.candidates_evaluated;
    if (!score_exact(profile, candidate.blocks, options, value)) {
      ++stats.candidates_rejected;
      continue;
    }
    if (!have_best || value < best_value ||
        (value == best_value && blocks_less(candidate.blocks, best_blocks))) {
      have_best = true;
      best_value = value;
      best_blocks = candidate.blocks;
    }
  }
  if (!have_best) {
    throw std::invalid_argument(
        "BlockOptimizer::beam: every surviving candidate was rejected");
  }
  return finish(profile, std::move(best_blocks), best_value, options, stats);
}

}  // namespace sealpaa::explore
