// The in-process layer ladder of the traced run: replays a workload's
// requests through the public functions of service (wire, dispatcher),
// engine, analysis and sim, one span around each call, and turns the
// spans into per-layer costs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

namespace bench {

struct LadderResult {
  /// Per-layer metric name -> value (units as in BENCHMARK.json).
  std::map<std::string, double> metrics;
  std::uint64_t requests = 0;
  /// Replayed results or dispatcher responses that differ from the
  /// precomputed engine::evaluate result.
  std::uint64_t failed = 0;
};

/// Replays `bursts` (a prefix of the workload's schedule), or as many
/// of them as fit in `budget_s`, through the wire, engine and dispatcher
/// calls, then probes the engine, analysis and sim layers on the
/// workload's configs.  A layer reached only by a method the workload
/// never sends gets no metric.
[[nodiscard]] LadderResult run_ladder(const ServiceWorkload& workload,
                                      const std::vector<Burst>& bursts,
                                      double budget_s, Tracer& tracer);

}  // namespace bench
