// Pareto analysis over (error probability, power, area) for homogeneous
// and hybrid multi-bit adder designs, combining the paper's Table 2
// characteristics with the recursive error analysis.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/util/parallel.hpp"

namespace sealpaa::explore {

/// One evaluated design in the exploration space.
struct DesignPoint {
  std::string name;
  double p_error = 0.0;
  double power_nw = 0.0;
  double area_ge = 0.0;
  bool has_cost = true;  // false when the cell lacks Table 2 data
};

/// Execution accounting of one front computation, for the observability
/// layer's DSE section.
struct ParetoStats {
  std::size_t points_in = 0;         // candidates handed to the filter
  std::size_t points_with_cost = 0;  // candidates actually compared
  std::size_t front_size = 0;        // non-dominated survivors
  double seconds = 0.0;              // wall clock of the filter
};

/// Non-dominated subset: a point dominates another when it is no worse
/// in every compared dimension (error, power and — when `use_area` —
/// area) and strictly better in at least one.  Points without cost data
/// never enter the front when costs are compared.  When `stats` is
/// non-null it receives the filter accounting.
[[nodiscard]] std::vector<DesignPoint> pareto_front(
    std::vector<DesignPoint> points, bool use_area = true,
    ParetoStats* stats = nullptr);

/// Evaluates every built-in cell as an N-bit homogeneous chain under
/// `profile` and returns the design points (error from the recursive
/// analyzer, power/area scaled from Table 2), one engine::evaluate call
/// per cell in registry order.  When `timings` is non-null it receives
/// the sweep's wall time as a single shard covering every candidate.
[[nodiscard]] std::vector<DesignPoint> homogeneous_sweep(
    const multibit::InputProfile& profile,
    util::ShardTimings* timings = nullptr);

}  // namespace sealpaa::explore
