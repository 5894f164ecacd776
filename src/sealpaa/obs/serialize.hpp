// JSON projections of the library's report/metric types — the glue
// between the engines (which keep returning plain structs) and the
// RunReport sink.  Every entry point that honours --json-report builds
// its sections from these.
#pragma once

#include <vector>

#include "sealpaa/engine/chain_evaluator.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/explore/hybrid.hpp"
#include "sealpaa/explore/pareto.hpp"
#include "sealpaa/obs/json.hpp"
#include "sealpaa/prob/stats.hpp"
#include "sealpaa/sim/exhaustive.hpp"
#include "sealpaa/sim/metrics.hpp"
#include "sealpaa/sim/montecarlo.hpp"
#include "sealpaa/util/op_counter.hpp"
#include "sealpaa/util/parallel.hpp"

namespace sealpaa::obs {

/// {"low": .., "high": .., "width": ..} — or null for the empty interval,
/// so zero-sample runs serialize as "no CI" rather than NaN or [0, 1].
[[nodiscard]] Json to_json(const prob::Interval& interval);

/// {"multiplications": .., "additions": .., "comparisons": ..,
///  "memory_units": ..}
[[nodiscard]] Json to_json(const util::OpCounts& counts);

/// {"threads": .., "wall_seconds": .., "cpu_seconds": .., "speedup": ..,
///  "shards": [{"shard": .., "items": .., "seconds": ..}, ...]}
[[nodiscard]] Json to_json(const util::ShardTimings& timings);

/// {"tasks_executed": .., "queue_high_water": ..,
///  "total_busy_seconds": .., "worker_busy_seconds": [..]}
[[nodiscard]] Json to_json(const util::ThreadPool::Stats& stats);

/// All quality measures of a metrics accumulator: cases, error counts,
/// rates, moments and the worst-case error.
[[nodiscard]] Json to_json(const sim::ErrorMetrics& metrics);

/// Full Monte Carlo report: samples, seconds, metrics, both Wilson CIs
/// and the per-shard timing breakdown.
[[nodiscard]] Json to_json(const sim::MonteCarloReport& report);

/// Full exhaustive-sweep report.
[[nodiscard]] Json to_json(const sim::ExhaustiveSimReport& report);

/// PMF-cache accounting of an engine::ChainEvaluator.
[[nodiscard]] Json to_json(const engine::CacheStats& stats);

/// Uniform engine evaluation: method name, probabilities, work measure,
/// (Monte Carlo only) the stage-failure CI, and — when the method
/// produced them — the value-level "distribution" block (error rate,
/// MED, MSE, WCE, PSNR) and the "pmf" summary (support size, mass,
/// entropy, extrema, top-k mass points).
[[nodiscard]] Json to_json(const engine::Evaluation& evaluation);

/// Search accounting of one optimizer run: all twelve counters, zeros
/// included.
[[nodiscard]] Json to_json(const explore::SearchStats& stats);

/// A fully evaluated hybrid design including its search stats.
[[nodiscard]] Json to_json(const explore::HybridDesign& design);

/// One DSE design point; cost fields are null when Table 2 lacks data.
[[nodiscard]] Json to_json(const explore::DesignPoint& point);

/// Array of design points.
[[nodiscard]] Json to_json(const std::vector<explore::DesignPoint>& points);

/// Pareto filter accounting.
[[nodiscard]] Json to_json(const explore::ParetoStats& stats);

}  // namespace sealpaa::obs
