// Internal helpers shared by the hybrid-chain optimizers (hybrid.cpp and
// branch_bound.cpp).  Not part of the public explore API — subject to
// change without notice; include only from explore/*.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sealpaa/adders/cell.hpp"
#include "sealpaa/engine/incremental.hpp"
#include "sealpaa/explore/hybrid.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace sealpaa::explore::detail {

/// Score of the design that closes `path` (at depth width() - 1) with
/// palette cell `c`: err closes the carry with Equation 12 without
/// pushing `c`; med/mse push it, read the finalized PMF's metric and pop,
/// adding that push to `stages`.
[[nodiscard]] double leaf_score(engine::IncrementalAnalyzer& path,
                                std::size_t c, Objective objective,
                                std::uint64_t& stages);

/// (score, historical index) order: "better score, or equal score and
/// lower index", err maximizing and med/mse minimizing.  A total order,
/// so folding candidates in any schedule yields the same winner.
[[nodiscard]] inline bool improves(bool found, double best_score,
                                   std::uint64_t best_index, double score,
                                   std::uint64_t index,
                                   bool maximize) noexcept {
  if (!found) return true;
  if (score != best_score) {
    return maximize ? score > best_score : score < best_score;
  }
  return index < best_index;
}

struct CellCost {
  std::optional<double> power;
  std::optional<double> area;
};

/// Table 2 characteristics lookup; both fields nullopt for cells without
/// a row.
[[nodiscard]] CellCost cost_of(const adders::AdderCell& cell);

/// A candidate is usable under `constraints` if every constrained
/// dimension has data for it.
[[nodiscard]] bool usable(const CellCost& cost,
                          const DesignConstraints& constraints);

/// Evaluates a complete stage assignment into a HybridDesign
/// (p_error/p_success, the analytic MED/MSE/WCE when the PMF support
/// guard allows, summed power/area).  stats is left default — the
/// optimizer that produced the design fills it.
[[nodiscard]] HybridDesign finalize(std::vector<adders::AdderCell> stages,
                                    const multibit::InputProfile& profile,
                                    Objective objective);

/// Throws std::invalid_argument when the candidate palette is empty.
void require_candidates(std::span<const adders::AdderCell> candidates);

/// The search behind HybridOptimizer::beam: its winner as palette
/// indices, stage 0 first, not finalized.  Adds its work to `stats`.
/// Throws what beam() throws, before it finalizes.
[[nodiscard]] std::vector<std::size_t> beam_choices(
    const multibit::InputProfile& profile,
    std::span<const adders::AdderCell> candidates,
    const DesignConstraints& constraints, std::size_t beam_width,
    Objective objective, SearchStats& stats);

}  // namespace sealpaa::explore::detail
