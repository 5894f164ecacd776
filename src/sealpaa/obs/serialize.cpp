#include "sealpaa/obs/serialize.hpp"

namespace sealpaa::obs {

Json to_json(const prob::Interval& interval) {
  if (interval.empty()) return Json();  // null: no data, not [0, 1]
  Json out = Json::object();
  out.set("low", Json(interval.low));
  out.set("high", Json(interval.high));
  out.set("width", Json(interval.width()));
  return out;
}

Json to_json(const util::OpCounts& counts) {
  Json out = Json::object();
  out.set("multiplications", Json(counts.multiplications));
  out.set("additions", Json(counts.additions));
  out.set("comparisons", Json(counts.comparisons));
  out.set("memory_units", Json(counts.memory_units));
  out.set("total_arithmetic", Json(counts.total_arithmetic()));
  return out;
}

Json to_json(const util::ShardTimings& timings) {
  Json out = Json::object();
  out.set("threads", Json(timings.threads));
  out.set("wall_seconds", Json(timings.wall_seconds));
  out.set("cpu_seconds", Json(timings.cpu_seconds()));
  out.set("max_shard_seconds", Json(timings.max_shard_seconds()));
  out.set("speedup", Json(timings.speedup()));
  Json shards = Json::array();
  for (const util::ShardTiming& shard : timings.shards) {
    Json entry = Json::object();
    entry.set("shard", Json(shard.shard));
    entry.set("items", Json(shard.items));
    entry.set("seconds", Json(shard.seconds));
    shards.push_back(std::move(entry));
  }
  out.set("shards", std::move(shards));
  return out;
}

Json to_json(const util::ThreadPool::Stats& stats) {
  Json out = Json::object();
  out.set("tasks_executed", Json(stats.tasks_executed));
  out.set("queue_high_water", Json(stats.queue_high_water));
  out.set("total_busy_seconds", Json(stats.total_busy_seconds()));
  Json workers = Json::array();
  for (const double seconds : stats.worker_busy_seconds) {
    workers.push_back(Json(seconds));
  }
  out.set("worker_busy_seconds", std::move(workers));
  return out;
}

Json to_json(const sim::ErrorMetrics& metrics) {
  Json out = Json::object();
  out.set("cases", Json(metrics.cases()));
  out.set("value_errors", Json(metrics.value_errors()));
  out.set("stage_failures", Json(metrics.stage_failures()));
  out.set("error_rate", Json(metrics.error_rate()));
  out.set("stage_failure_rate", Json(metrics.stage_failure_rate()));
  out.set("mean_error", Json(metrics.mean_error()));
  out.set("mean_abs_error", Json(metrics.mean_abs_error()));
  out.set("mean_squared_error", Json(metrics.mean_squared_error()));
  out.set("worst_case_error", Json(metrics.worst_case_error()));
  return out;
}

Json to_json(const sim::MonteCarloReport& report) {
  Json out = Json::object();
  out.set("samples", Json(report.samples));
  out.set("seconds", Json(report.seconds));
  out.set("kernel", Json(std::string(sim::kernel_name(report.kernel))));
  out.set("lane_batches", Json(report.lane_batches));
  out.set("masked_lanes", Json(report.masked_lanes));
  out.set("metrics", to_json(report.metrics));
  out.set("stage_failure_ci", to_json(report.stage_failure_ci));
  out.set("value_error_ci", to_json(report.value_error_ci));
  if (!report.shard_timings.shards.empty()) {
    out.set("shard_timings", to_json(report.shard_timings));
  }
  return out;
}

Json to_json(const sim::ExhaustiveSimReport& report) {
  Json out = Json::object();
  out.set("seconds", Json(report.seconds));
  out.set("bit_operations", Json(report.bit_operations));
  out.set("kernel", Json(std::string(sim::kernel_name(report.kernel))));
  out.set("lane_batches", Json(report.lane_batches));
  out.set("masked_lanes", Json(report.masked_lanes));
  out.set("metrics", to_json(report.metrics));
  if (!report.shard_timings.shards.empty()) {
    out.set("shard_timings", to_json(report.shard_timings));
  }
  return out;
}

Json to_json(const engine::CacheStats& stats) {
  Json out = Json::object();
  out.set("hits", Json(stats.hits));
  out.set("misses", Json(stats.misses));
  out.set("hit_rate", Json(stats.hit_rate()));
  out.set("insertions", Json(stats.insertions));
  out.set("evictions", Json(stats.evictions));
  out.set("stages_computed", Json(stats.stages_computed));
  out.set("chains_evaluated", Json(stats.chains_evaluated));
  return out;
}

Json to_json(const engine::Evaluation& evaluation) {
  Json out = Json::object();
  out.set("method", Json(std::string(engine::method_name(evaluation.method))));
  out.set("exact", Json(engine::method_info(evaluation.method).exact));
  out.set("p_error", Json(evaluation.p_error));
  out.set("p_success", Json(evaluation.p_success));
  out.set("work_items", Json(evaluation.work_items));
  if (!evaluation.stage_failure_ci.empty()) {
    out.set("stage_failure_ci", to_json(evaluation.stage_failure_ci));
  }
  if (evaluation.distribution) {
    const engine::DistributionStats& d = *evaluation.distribution;
    Json dist = Json::object();
    dist.set("error_rate", Json(d.error_rate));
    dist.set("mean_error", Json(d.mean_error));
    dist.set("mean_error_distance", Json(d.mean_error_distance));
    dist.set("mean_squared_error", Json(d.mean_squared_error));
    dist.set("worst_case_error", Json(d.worst_case_error));
    dist.set("psnr_db", Json(d.psnr_db));  // null when infinite (MSE == 0)
    out.set("distribution", std::move(dist));
  }
  if (evaluation.pmf) {
    const engine::PmfSummary& p = *evaluation.pmf;
    Json pmf = Json::object();
    pmf.set("support", Json(p.support));
    pmf.set("total_mass", Json(p.total_mass));
    pmf.set("entropy_bits", Json(p.entropy_bits));
    pmf.set("min_value", Json(p.min_value));
    pmf.set("max_value", Json(p.max_value));
    Json top = Json::array();
    for (const analysis::ErrorPmf::Entry& entry : p.top) {
      Json point = Json::object();
      point.set("value", Json(entry.value));
      point.set("probability", Json(entry.probability));
      top.push_back(std::move(point));
    }
    pmf.set("top", std::move(top));
    out.set("pmf", std::move(pmf));
  }
  return out;
}

Json to_json(const explore::SearchStats& stats) {
  Json out = Json::object();
  out.set("candidates_evaluated", Json(stats.candidates_evaluated));
  out.set("candidates_rejected", Json(stats.candidates_rejected));
  out.set("cache_hits", Json(stats.cache_hits));
  out.set("cache_misses", Json(stats.cache_misses));
  out.set("stages_computed", Json(stats.stages_computed));
  out.set("soa_batches", Json(stats.soa_batches));
  out.set("soa_lanes", Json(stats.soa_lanes));
  out.set("soa_max_lanes", Json(stats.soa_max_lanes));
  // Branch-and-bound accounting.  Emitted unconditionally — zero-valued
  // counters appear explicitly so report consumers can rely on the key
  // set being the full SearchStats regardless of which optimizer ran.
  out.set("nodes_expanded", Json(stats.nodes_expanded));
  out.set("nodes_pruned", Json(stats.nodes_pruned));
  out.set("bound_cutoffs", Json(stats.bound_cutoffs));
  out.set("steal_count", Json(stats.steal_count));
  return out;
}

Json to_json(const explore::HybridDesign& design) {
  Json out = Json::object();
  Json stages = Json::array();
  for (const adders::AdderCell& cell : design.stages) {
    stages.push_back(Json(cell.name()));
  }
  out.set("stages", std::move(stages));
  out.set("p_error", Json(design.p_error));
  out.set("p_success", Json(design.p_success));
  out.set("objective",
          Json(std::string(explore::objective_name(design.objective))));
  out.set("med", design.med ? Json(*design.med) : Json());
  out.set("mse", design.mse ? Json(*design.mse) : Json());
  out.set("wce", design.wce ? Json(*design.wce) : Json());
  out.set("power_nw",
          design.power_nw ? Json(*design.power_nw) : Json());
  out.set("area_ge", design.area_ge ? Json(*design.area_ge) : Json());
  out.set("search", to_json(design.stats));
  return out;
}

Json to_json(const explore::DesignPoint& point) {
  Json out = Json::object();
  out.set("name", Json(point.name));
  out.set("p_error", Json(point.p_error));
  out.set("power_nw", point.has_cost ? Json(point.power_nw) : Json());
  out.set("area_ge", point.has_cost ? Json(point.area_ge) : Json());
  return out;
}

Json to_json(const std::vector<explore::DesignPoint>& points) {
  Json out = Json::array();
  for (const explore::DesignPoint& point : points) {
    out.push_back(to_json(point));
  }
  return out;
}

Json to_json(const explore::ParetoStats& stats) {
  Json out = Json::object();
  out.set("points_in", Json(static_cast<std::uint64_t>(stats.points_in)));
  out.set("points_with_cost",
          Json(static_cast<std::uint64_t>(stats.points_with_cost)));
  out.set("front_size", Json(static_cast<std::uint64_t>(stats.front_size)));
  out.set("seconds", Json(stats.seconds));
  return out;
}

}  // namespace sealpaa::obs
