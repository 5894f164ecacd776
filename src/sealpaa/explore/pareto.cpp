#include "sealpaa/explore/pareto.hpp"

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/adders/characteristics.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/util/parallel.hpp"
#include "sealpaa/util/timer.hpp"

namespace sealpaa::explore {

namespace {

bool dominates(const DesignPoint& a, const DesignPoint& b, bool use_area) {
  if (a.p_error > b.p_error) return false;
  if (a.power_nw > b.power_nw) return false;
  if (use_area && a.area_ge > b.area_ge) return false;
  const bool strictly =
      a.p_error < b.p_error || a.power_nw < b.power_nw ||
      (use_area && a.area_ge < b.area_ge);
  return strictly;
}

}  // namespace

std::vector<DesignPoint> pareto_front(std::vector<DesignPoint> points,
                                      bool use_area, ParetoStats* stats) {
  util::WallTimer timer;
  std::vector<DesignPoint> front;
  std::size_t with_cost = 0;
  for (const DesignPoint& candidate : points) {
    if (!candidate.has_cost) continue;
    ++with_cost;
    bool dominated = false;
    for (const DesignPoint& other : points) {
      if (!other.has_cost) continue;
      if (&other != &candidate && dominates(other, candidate, use_area)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(candidate);
  }
  if (stats != nullptr) {
    stats->points_in = points.size();
    stats->points_with_cost = with_cost;
    stats->front_size = front.size();
    stats->seconds = timer.elapsed_seconds();
  }
  return front;
}

std::vector<DesignPoint> homogeneous_sweep(
    const multibit::InputProfile& profile, util::ShardTimings* timings) {
  const std::span<const adders::AdderCell> cells = adders::all_builtin_cells();
  const double n = static_cast<double>(profile.width());
  util::WallTimer timer;
  std::vector<DesignPoint> points;
  points.reserve(cells.size());
  for (const adders::AdderCell& cell : cells) {
    DesignPoint point;
    point.name = cell.name();
    point.p_error =
        engine::evaluate(cell, profile, engine::Method::kRecursive).p_error;
    const adders::CellCharacteristics* row =
        adders::find_characteristics(cell);
    if (row != nullptr && row->power_nw && row->area_ge) {
      point.power_nw = *row->power_nw * n;
      point.area_ge = *row->area_ge * n;
    } else {
      point.has_cost = false;
    }
    points.push_back(std::move(point));
  }
  if (timings != nullptr) {
    // The sweep is one serial pass, not a fork/join region: report a
    // single shard covering the whole registry.
    timings->threads = 1;
    timings->wall_seconds = timer.elapsed_seconds();
    timings->shards = {util::ShardTiming{
        0, static_cast<std::uint64_t>(cells.size()),
        timings->wall_seconds}};
  }
  return points;
}

}  // namespace sealpaa::explore
