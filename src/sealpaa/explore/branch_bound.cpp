#include "sealpaa/explore/branch_bound.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/analysis/mkl.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/engine/incremental.hpp"
#include "sealpaa/explore/detail.hpp"
#include "sealpaa/util/parallel.hpp"

namespace sealpaa::explore {

namespace {

// Relative slack widening the admissible bounds before a cutoff: the
// best-completion value and the residual-error sum bound the leaf score
// in exact arithmetic, but each is a different floating-point summation
// than the leaf score it bounds, so a mathematically-tied completion
// could land epsilon past the computed bound.  Pruning only beyond the
// slack keeps every tie explored, which is what makes the (score, min
// index) incumbent bit-identical to the exhaustive DFS.
constexpr double kErrBoundSlack = 1e-12;
constexpr double kPmfBoundSlack = 1e-9;

// Relative margin by which a frontier point must fall below the chord
// of its neighbours before it is dropped.  The chord test's own rounding
// is a few ulps, so every dropped point is below the chord in exact
// arithmetic and the frontier's maximum never loses a completion.
constexpr double kChordMargin = 1e-9;

constexpr std::uint64_t kSatMax = std::numeric_limits<std::uint64_t>::max();

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) noexcept {
  return a > kSatMax - b ? kSatMax : a + b;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  return a > kSatMax / b ? kSatMax : a * b;
}

/// Schema-v1 checkpoint fingerprint of a palette cell: bit r is row r's
/// sum, bit 8+r is row r's carry-out.  Cells with equal fingerprints are
/// the same cell to the search (names play no part).
std::uint16_t fingerprint(const adders::AdderCell& cell) noexcept {
  std::uint16_t key = 0;
  const adders::AdderCell::Rows& rows = cell.rows();
  for (std::size_t r = 0; r < adders::AdderCell::kRows; ++r) {
    if (rows[r].sum) key |= static_cast<std::uint16_t>(1u << r);
    if (rows[r].carry) key |= static_cast<std::uint16_t>(1u << (8 + r));
  }
  return key;
}

/// Admissible lower bound on the final MED/MSE from a depth-`depth`
/// prefix PMF state: every future error contribution (stage deltas for
/// i >= depth and the carry-out fold) is a multiple of 2^depth, so each
/// unit of prefix mass at value e ends at values congruent to e
/// (mod 2^depth) and contributes at least min(r, 2^depth - r)^q.
double residual_bound(const analysis::ErrorPmfState& state, std::size_t depth,
                      Objective objective) {
  if (depth == 0) return 0.0;
  // 2^62 still divides 2^d for d > 62, so clamping keeps the congruence
  // (and the bound admissible) while staying representable.  In practice
  // advance_error_pmf throws past 62 stages anyway.
  if (depth > 62) depth = 62;
  const std::int64_t mod = std::int64_t{1} << depth;
  const bool mse = objective == Objective::kMse;
  double bound = 0.0;
  for (const analysis::ErrorPmf& segment : state.joint) {
    for (const analysis::ErrorPmf::Entry& entry : segment.entries()) {
      // Two's complement: the low `depth` bits are the residue in
      // [0, mod), negative values included.
      const std::int64_t r = entry.value & (mod - 1);
      const double dist = static_cast<double>(std::min(r, mod - r));
      bound += entry.probability * (mse ? dist * dist : dist);
    }
  }
  return bound;
}

/// What one completion of stages d..n-1 keeps of the success mass: s0
/// per unit of mass entering stage d at carry 0, s1 per unit at carry 1.
/// P(Succ) is linear in the carry state (Equations 10-12), so a depth-d
/// node at carry state c ends at c0 * s0 + c1 * s1.
struct Completion {
  double s0 = 0.0;
  double s1 = 0.0;

  [[nodiscard]] double from(const analysis::CarryState& carry) const noexcept {
    return carry.c0 * s0 + carry.c1 * s1;
  }
};

/// True when `q` lies below the chord from `p` to `r` (p.s0 > q.s0 >
/// r.s0, p.s1 < q.s1 < r.s1) by more than kChordMargin: then for every
/// carry state c >= 0, c.q <= max(c.p, c.r).
bool below_chord(const Completion& p, const Completion& q,
                 const Completion& r) noexcept {
  return (q.s1 - p.s1) * (p.s0 - r.s0) * (1.0 + kChordMargin) <
         (p.s0 - q.s0) * (r.s1 - p.s1);
}

/// Reduces `points` to the ones that maximize c0 * s0 + c1 * s1 for some
/// carry state c >= 0 (the upper-right convex frontier), ordered by s0
/// descending.  Dominated points and points below a chord go; the
/// maximum over the result equals the maximum over `points` for every c.
std::vector<Completion> upper_right_frontier(std::vector<Completion> points) {
  std::sort(points.begin(), points.end(),
            [](const Completion& x, const Completion& y) {
              return x.s0 != y.s0 ? x.s0 > y.s0 : x.s1 > y.s1;
            });
  std::vector<Completion> frontier;
  for (const Completion& r : points) {
    if (!frontier.empty() && r.s1 <= frontier.back().s1) continue;
    while (frontier.size() >= 2 &&
           below_chord(frontier[frontier.size() - 2], frontier.back(), r)) {
      frontier.pop_back();
    }
    frontier.push_back(r);
  }
  return frontier;
}

/// Frontier of every completion, over the usable cells, of stages d..n-1
/// for each depth d (budgets relaxed).  The carry recursion run backward
/// once: stage n-1 closes with Equation 12 from each unit carry state,
/// and stage d maps a completion s of stages d+1..n-1 through cell c to
/// (advance_stage(c, (1,0)).s, advance_stage(c, (0,1)).s).
std::vector<std::vector<Completion>> completion_frontiers(
    const multibit::InputProfile& profile,
    std::span<const adders::AdderCell> candidates,
    const std::vector<char>& cell_usable) {
  const std::size_t n = profile.width();
  std::vector<std::vector<Completion>> frontiers(n);
  const std::vector<analysis::OperandWeights> weights =
      analysis::operand_weights(profile);
  std::vector<analysis::MklMatrices> mkls;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (cell_usable[c]) {
      mkls.push_back(analysis::MklMatrices::from_cell(candidates[c]));
    }
  }
  constexpr analysis::CarryState kFrom0{1.0, 0.0};
  constexpr analysis::CarryState kFrom1{0.0, 1.0};
  std::vector<Completion> points;
  for (const analysis::MklMatrices& mkl : mkls) {
    points.push_back({analysis::final_success(mkl, weights[n - 1], kFrom0),
                      analysis::final_success(mkl, weights[n - 1], kFrom1)});
  }
  frontiers[n - 1] = upper_right_frontier(std::move(points));
  for (std::size_t d = n - 1; d-- > 0;) {
    points.clear();
    for (const analysis::MklMatrices& mkl : mkls) {
      const analysis::CarryState a =
          analysis::advance_stage(mkl, weights[d], kFrom0);
      const analysis::CarryState b =
          analysis::advance_stage(mkl, weights[d], kFrom1);
      for (const Completion& s : frontiers[d + 1]) {
        points.push_back({s.from(a), s.from(b)});
      }
    }
    frontiers[d] = upper_right_frontier(std::move(points));
  }
  return frontiers;
}

/// Admissible upper bound on P(Succ) below a depth-d node at carry state
/// `carry`: the best completion in the depth-d frontier.  0 when no cell
/// is usable (no completion exists).
double best_completion(const std::vector<Completion>& frontier,
                       const analysis::CarryState& carry) noexcept {
  double best = 0.0;
  for (const Completion& s : frontier) best = std::max(best, s.from(carry));
  return best;
}

/// Immutable per-run context shared by every worker.
struct Ctx {
  Ctx(const multibit::InputProfile& profile_in,
      std::span<const adders::AdderCell> candidates_in,
      const DesignConstraints& constraints_in, Objective objective_in)
      : profile(profile_in),
        candidates(candidates_in),
        constraints(constraints_in),
        objective(objective_in) {}

  const multibit::InputProfile& profile;
  std::span<const adders::AdderCell> candidates;
  const DesignConstraints& constraints;
  Objective objective = Objective::kErrorRate;
  bool maximize = true;  // err maximizes success; med/mse minimize
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t split_depth = 0;
  std::uint64_t units = 0;
  bool track_power = false;
  bool track_area = false;
  std::vector<char> cell_usable;
  std::vector<double> power_of;
  std::vector<double> area_of;
  /// Saturating k^i for the historical (stage-0 least significant)
  /// design index; pow_k[i] for i in [0, n].
  std::vector<std::uint64_t> pow_k;
  /// Saturating k^(n - d): leaves below a depth-d node; [0, n].
  std::vector<std::uint64_t> leaves_below;
  /// err only: frontier[d] bounds every completion of a depth-d node;
  /// [0, n).
  std::vector<std::vector<Completion>> frontier;
};

Ctx make_ctx(const multibit::InputProfile& profile,
             std::span<const adders::AdderCell> candidates,
             const DesignConstraints& constraints, Objective objective) {
  Ctx ctx{profile, candidates, constraints, objective};
  ctx.maximize = objective == Objective::kErrorRate;
  ctx.n = profile.width();
  ctx.k = candidates.size();
  ctx.track_power = constraints.max_power_nw.has_value();
  ctx.track_area = constraints.max_area_ge.has_value();
  ctx.cell_usable.reserve(ctx.k);
  ctx.power_of.reserve(ctx.k);
  ctx.area_of.reserve(ctx.k);
  for (const adders::AdderCell& cell : candidates) {
    const detail::CellCost cost = detail::cost_of(cell);
    const bool ok = detail::usable(cost, constraints);
    ctx.cell_usable.push_back(ok ? 1 : 0);
    ctx.power_of.push_back(ok && cost.power ? *cost.power : 0.0);
    ctx.area_of.push_back(ok && cost.area ? *cost.area : 0.0);
  }
  ctx.pow_k.resize(ctx.n + 1);
  ctx.leaves_below.resize(ctx.n + 1);
  ctx.pow_k[0] = 1;
  for (std::size_t i = 0; i < ctx.n; ++i) {
    ctx.pow_k[i + 1] = sat_mul(ctx.pow_k[i], ctx.k);
  }
  for (std::size_t d = 0; d <= ctx.n; ++d) {
    ctx.leaves_below[d] = ctx.pow_k[ctx.n - d];
  }
  // Static unit split: the smallest depth giving at least 64 subtree
  // units.  A function of (k, n) only — never of the thread count — so
  // the unit list, and with it the single-threaded visit order and every
  // checkpoint, is the same however many workers run.
  std::size_t depth = 0;
  std::uint64_t units = 1;
  while (units < 64 && depth + 1 < ctx.n) {
    units = sat_mul(units, ctx.k);
    ++depth;
  }
  ctx.split_depth = depth;
  ctx.units = units;
  if (ctx.maximize) {
    ctx.frontier = completion_frontiers(profile, candidates, ctx.cell_usable);
  }
  return ctx;
}

/// Admissible bound below the depth-`depth` node that `path` holds: the
/// best completion (err) or the residue bound (med/mse).
double node_bound(const Ctx& ctx, const engine::IncrementalAnalyzer& path,
                  std::size_t depth) {
  return ctx.maximize
             ? best_completion(ctx.frontier[depth], path.carry())
             : residual_bound(path.pmf_state_at(depth), depth, ctx.objective);
}

/// True when nothing below a node with bound `bound` can beat an
/// incumbent scoring `incumbent`.  Strict, and widened by the bound's
/// slack, so bound ties are always explored.
bool cannot_beat(const Ctx& ctx, double bound, double incumbent) noexcept {
  return ctx.maximize ? bound * (1.0 + kErrBoundSlack) < incumbent
                      : bound * (1.0 - kPmfBoundSlack) > incumbent;
}

/// Historical index of a complete design (stage 0 the least significant
/// digit), summed in stage order like the search's prefix index.
std::uint64_t design_index(const Ctx& ctx,
                           std::span<const std::uint8_t> design) {
  std::uint64_t index = 0;
  for (std::size_t i = 0; i < design.size(); ++i) {
    index = sat_add(index, sat_mul(design[i], ctx.pow_k[i]));
  }
  return index;
}

/// Additive merge of per-unit accounting (nodes_pruned and
/// candidates_rejected saturate).  The search probes no cache and runs
/// no lanes, so cache_* and soa_* are never set.
void merge_stats(SearchStats& into, const SearchStats& from) noexcept {
  into.candidates_evaluated += from.candidates_evaluated;
  into.candidates_rejected =
      sat_add(into.candidates_rejected, from.candidates_rejected);
  into.stages_computed += from.stages_computed;
  into.nodes_expanded += from.nodes_expanded;
  into.nodes_pruned = sat_add(into.nodes_pruned, from.nodes_pruned);
  into.bound_cutoffs += from.bound_cutoffs;
  into.steal_count += from.steal_count;
}

struct Incumbent {
  bool found = false;
  double score = 0.0;
  std::uint64_t index = 0;
  std::vector<std::size_t> choices;
};

/// True when a candidate scoring `score` at historical index `index`
/// ties the incumbent and both indices have saturated, so the indices
/// cannot tell which design comes first.
bool saturated_tie(bool found, double best_score, std::uint64_t best_index,
                   double score, std::uint64_t index) noexcept {
  return found && score == best_score && index == kSatMax &&
         best_index == kSatMax;
}

/// detail::improves against `best` for the design `prefix` · `last`,
/// exact past 2^64 designs: a saturated tie goes to the design whose
/// choices, read from stage n-1 down, come first — the order the true
/// index gives.
template <typename Choice>
bool improves(const Incumbent& best, double score, std::uint64_t index,
              std::span<const Choice> prefix, std::size_t last,
              bool maximize) {
  if (!saturated_tie(best.found, best.score, best.index, score, index)) {
    return detail::improves(best.found, best.score, best.index, score, index,
                            maximize);
  }
  if (last != best.choices.back()) return last < best.choices.back();
  for (std::size_t i = prefix.size(); i-- > 0;) {
    const auto c = static_cast<std::size_t>(prefix[i]);
    if (c != best.choices[i]) return c < best.choices[i];
  }
  return false;
}

/// Contiguous range of unit indices owned by one worker.
struct UnitRange {
  std::uint64_t next = 0;
  std::uint64_t end = 0;
};

/// Mutable run state shared by the workers.  One mutex guards all of it:
/// every access happens at unit granularity (claim / steal / publish /
/// complete), which is orders of magnitude coarser than the per-node
/// work, so contention is negligible.
struct Shared {
  std::mutex mutex;
  Incumbent incumbent;
  std::vector<char> unit_done;
  std::vector<UnitRange> ranges;
  std::uint64_t units_completed = 0;
  std::uint64_t units_since_checkpoint = 0;
  SearchStats stats;
  bool suspended = false;
  std::exception_ptr error;
};

BnbCheckpoint build_checkpoint_locked(const Ctx& ctx, const Shared& shared) {
  BnbCheckpoint ckpt;
  ckpt.objective = std::string(objective_name(ctx.objective));
  ckpt.width = ctx.n;
  ckpt.palette.reserve(ctx.k);
  for (const adders::AdderCell& cell : ctx.candidates) {
    ckpt.palette.push_back(fingerprint(cell));
  }
  ckpt.p_a = ctx.profile.all_p_a();
  ckpt.p_b = ctx.profile.all_p_b();
  ckpt.p_cin = ctx.profile.p_cin();
  ckpt.max_power_nw = ctx.constraints.max_power_nw;
  ckpt.max_area_ge = ctx.constraints.max_area_ge;
  ckpt.split_depth = ctx.split_depth;
  ckpt.total_units = ctx.units;
  ckpt.incumbent_found = shared.incumbent.found;
  ckpt.incumbent_choices = shared.incumbent.choices;
  ckpt.incumbent_score = shared.incumbent.score;
  ckpt.incumbent_index = shared.incumbent.index;
  for (std::uint64_t u = 0; u < ctx.units; ++u) {
    if (shared.unit_done[u]) ckpt.completed_units.push_back(u);
  }
  ckpt.stats = shared.stats;
  return ckpt;
}

void validate_checkpoint(const Ctx& ctx, const BnbCheckpoint& ckpt) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(
        std::string("BranchBoundOptimizer::resume: checkpoint mismatch: ") +
        what);
  };
  if (ckpt.objective != objective_name(ctx.objective)) fail("objective");
  if (ckpt.width != ctx.n) fail("width");
  if (ckpt.palette.size() != ctx.k) fail("palette size");
  for (std::size_t c = 0; c < ctx.k; ++c) {
    if (ckpt.palette[c] != fingerprint(ctx.candidates[c])) {
      fail("palette cell");
    }
  }
  if (ckpt.p_a != ctx.profile.all_p_a() ||
      ckpt.p_b != ctx.profile.all_p_b() ||
      ckpt.p_cin != ctx.profile.p_cin()) {
    fail("input profile");
  }
  if (ckpt.max_power_nw != ctx.constraints.max_power_nw ||
      ckpt.max_area_ge != ctx.constraints.max_area_ge) {
    fail("constraints");
  }
  if (ckpt.split_depth != ctx.split_depth ||
      ckpt.total_units != ctx.units) {
    fail("unit split");
  }
  if (ckpt.incumbent_found &&
      ckpt.incumbent_choices.size() != ctx.n) {
    fail("incumbent choices");
  }
  for (const std::size_t c : ckpt.incumbent_choices) {
    if (c >= ctx.k) fail("incumbent choice index");
  }
  for (const std::uint64_t u : ckpt.completed_units) {
    if (u >= ctx.units) fail("completed unit index");
  }
}

/// One worker: keeps its DFS path on an IncrementalAnalyzer (not
/// thread-safe) — the carry state, and for med/mse the error-PMF state,
/// of every stage on the path — and drains units from its range,
/// stealing when empty.
class Worker {
 public:
  Worker(const Ctx& ctx, Shared& shared, const BnbOptions& options,
         std::size_t id)
      : ctx_(ctx), shared_(shared), options_(options), id_(id),
        path_(ctx.profile, ctx.candidates, /*track_pmf=*/!ctx.maximize) {
    choices_.reserve(ctx.n);
  }

  void run() {
    for (;;) {
      const std::optional<std::uint64_t> unit = claim();
      if (!unit) return;
      process_unit(*unit);
    }
  }

 private:
  /// Claims the next unit: own range first (ascending order — at one
  /// worker this is a pure sequential sweep over all units), then steals
  /// the upper half of the largest remaining victim range.
  std::optional<std::uint64_t> claim() {
    std::lock_guard<std::mutex> lock(shared_.mutex);
    if (shared_.suspended) return std::nullopt;
    for (;;) {
      UnitRange& own = shared_.ranges[id_];
      while (own.next < own.end) {
        const std::uint64_t u = own.next++;
        if (!shared_.unit_done[u]) return u;  // resume skips done units
      }
      std::size_t victim = shared_.ranges.size();
      std::uint64_t best_remaining = 0;
      for (std::size_t v = 0; v < shared_.ranges.size(); ++v) {
        if (v == id_) continue;
        const UnitRange& range = shared_.ranges[v];
        const std::uint64_t remaining = range.end - range.next;
        if (remaining > best_remaining) {
          best_remaining = remaining;
          victim = v;
        }
      }
      if (victim == shared_.ranges.size()) return std::nullopt;  // drained
      UnitRange& from = shared_.ranges[victim];
      ++shared_.stats.steal_count;
      if (best_remaining == 1) {
        const std::uint64_t u = from.next++;
        if (!shared_.unit_done[u]) return u;
        continue;
      }
      // Victim keeps the lower (earlier) half it is already walking.
      const std::uint64_t mid = from.next + (best_remaining + 1) / 2;
      own.next = mid;
      own.end = from.end;
      from.end = mid;
    }
  }

  void process_unit(std::uint64_t unit) {
    unit_stats_ = SearchStats{};
    {
      std::lock_guard<std::mutex> lock(shared_.mutex);
      refresh_incumbent_locked();
    }
    choices_.clear();
    std::uint64_t rest = unit;
    for (std::size_t i = 0; i < ctx_.split_depth; ++i) {
      choices_.push_back(static_cast<std::size_t>(rest % ctx_.k));
      rest /= ctx_.k;
    }
    // Constraint screen over the fixed prefix, left to right — the same
    // running-sum order as the exhaustive odometer, so the rejected leaf
    // set is bit-identical.
    double power = 0.0;
    double area = 0.0;
    bool rejected = false;
    for (std::size_t i = 0; i < ctx_.split_depth && !rejected; ++i) {
      const std::size_t c = choices_[i];
      if (!ctx_.cell_usable[c]) {
        rejected = true;
        break;
      }
      if (ctx_.track_power) {
        power += ctx_.power_of[c];
        if (power > *ctx_.constraints.max_power_nw) rejected = true;
      }
      if (!rejected && ctx_.track_area) {
        area += ctx_.area_of[c];
        if (area > *ctx_.constraints.max_area_ge) rejected = true;
      }
    }
    if (rejected) {
      unit_stats_.candidates_rejected =
          sat_add(unit_stats_.candidates_rejected,
                  ctx_.leaves_below[ctx_.split_depth]);
    } else {
      path_.rewind(0);
      for (const std::size_t c : choices_) push(c);
      dfs(unit, power, area);
    }
    complete_unit(unit);
  }

  /// Appends candidate `c` as the path's next stage.  Every stage the
  /// search computes is one push, so a unit's stages_computed depends
  /// on the unit alone.
  void push(std::size_t c) {
    path_.push(c);
    ++unit_stats_.stages_computed;
  }

  void refresh_incumbent_locked() {
    inc_found_ = shared_.incumbent.found;
    inc_score_ = shared_.incumbent.score;
    inc_index_ = shared_.incumbent.index;
  }

  void dfs(std::uint64_t prefix_index, double power, double area) {
    const std::size_t d = choices_.size();
    if (inc_found_) {
      if (cannot_beat(ctx_, node_bound(ctx_, path_, d), inc_score_)) {
        ++unit_stats_.bound_cutoffs;
        unit_stats_.nodes_pruned =
            sat_add(unit_stats_.nodes_pruned, ctx_.leaves_below[d]);
        return;
      }
    }
    ++unit_stats_.nodes_expanded;
    if (d + 1 == ctx_.n) {
      score_leaves(prefix_index, power, area);
      return;
    }
    for (std::size_t c = 0; c < ctx_.k; ++c) {
      if (!ctx_.cell_usable[c]) {
        unit_stats_.candidates_rejected = sat_add(
            unit_stats_.candidates_rejected, ctx_.leaves_below[d + 1]);
        continue;
      }
      double next_power = power;
      double next_area = area;
      if (ctx_.track_power) {
        next_power += ctx_.power_of[c];
        if (next_power > *ctx_.constraints.max_power_nw) {
          unit_stats_.candidates_rejected = sat_add(
              unit_stats_.candidates_rejected, ctx_.leaves_below[d + 1]);
          continue;
        }
      }
      if (ctx_.track_area) {
        next_area += ctx_.area_of[c];
        if (next_area > *ctx_.constraints.max_area_ge) {
          unit_stats_.candidates_rejected = sat_add(
              unit_stats_.candidates_rejected, ctx_.leaves_below[d + 1]);
          continue;
        }
      }
      choices_.push_back(c);
      push(c);
      dfs(sat_add(prefix_index, sat_mul(c, ctx_.pow_k[d])), next_power,
          next_area);
      path_.pop();
      choices_.pop_back();
    }
  }

  /// Scores all surviving extensions of the depth-(n-1) prefix: err
  /// closes the path's carry with Equation 12, med/mse push the leaf and
  /// finalize its PMF.
  void score_leaves(std::uint64_t prefix_index, double power, double area) {
    const std::size_t d = choices_.size();
    for (std::size_t c = 0; c < ctx_.k; ++c) {
      if (!ctx_.cell_usable[c]) {
        ++unit_stats_.candidates_rejected;
        continue;
      }
      if (ctx_.track_power &&
          power + ctx_.power_of[c] > *ctx_.constraints.max_power_nw) {
        ++unit_stats_.candidates_rejected;
        continue;
      }
      if (ctx_.track_area &&
          area + ctx_.area_of[c] > *ctx_.constraints.max_area_ge) {
        ++unit_stats_.candidates_rejected;
        continue;
      }
      ++unit_stats_.candidates_evaluated;
      const double score = detail::leaf_score(path_, c, ctx_.objective,
                                              unit_stats_.stages_computed);
      consider(score, sat_add(prefix_index, sat_mul(c, ctx_.pow_k[d])), c);
    }
  }

  void consider(double score, std::uint64_t index, std::size_t last_choice) {
    // A saturated tie is settled by the choices, under the lock.
    if (!saturated_tie(inc_found_, inc_score_, inc_index_, score, index) &&
        !detail::improves(inc_found_, inc_score_, inc_index_, score, index,
                          ctx_.maximize)) {
      return;
    }
    std::lock_guard<std::mutex> lock(shared_.mutex);
    Incumbent& best = shared_.incumbent;
    if (improves(best, score, index, std::span<const std::size_t>(choices_),
                 last_choice, ctx_.maximize)) {
      best.found = true;
      best.score = score;
      best.index = index;
      best.choices = choices_;
      best.choices.push_back(last_choice);
    }
    refresh_incumbent_locked();
  }

  void complete_unit(std::uint64_t unit) {
    std::lock_guard<std::mutex> lock(shared_.mutex);
    shared_.unit_done[unit] = 1;
    ++shared_.units_completed;
    merge_stats(shared_.stats, unit_stats_);
    if (options_.suspend_after_units != 0 && !shared_.suspended &&
        shared_.units_completed >= options_.suspend_after_units) {
      shared_.suspended = true;
    }
    if (options_.checkpoint_every_units != 0 && options_.checkpoint_sink &&
        ++shared_.units_since_checkpoint >= options_.checkpoint_every_units) {
      shared_.units_since_checkpoint = 0;
      options_.checkpoint_sink(build_checkpoint_locked(ctx_, shared_));
    }
  }

  const Ctx& ctx_;
  Shared& shared_;
  const BnbOptions& options_;
  std::size_t id_;
  engine::IncrementalAnalyzer path_;  // the states of choices_, by depth
  // Live local view of the incumbent (score/index only) used for
  // pruning; refreshed under the lock at unit starts and publishes.
  bool inc_found_ = false;
  double inc_score_ = 0.0;
  std::uint64_t inc_index_ = 0;
  SearchStats unit_stats_;
  std::vector<std::size_t> choices_;
};

/// True when `design` keeps within every budget, its costs summed in
/// stage order like the search's running screen.
bool fits_budgets(const Ctx& ctx, std::span<const std::uint8_t> design) {
  double power = 0.0;
  double area = 0.0;
  for (const std::size_t c : design) {
    if (ctx.track_power) {
      power += ctx.power_of[c];
      if (power > *ctx.constraints.max_power_nw) return false;
    }
    if (ctx.track_area) {
      area += ctx.area_of[c];
      if (area > *ctx.constraints.max_area_ge) return false;
    }
  }
  return true;
}

/// The hybrid family the seed scores besides the beam winner: the
/// designs X^a · Y^b · Z^m, stage 0 first, over the usable cells.  Z is
/// the cell with the fewest error rows (the lowest index on ties: AccuFA
/// when the palette has it).  Each (X, a) gives X^a · Z^(n-a) when that
/// fits every budget, and otherwise, for each Y, the design with the
/// most Z stages that fits.  Deduplicated and ordered most trailing Z
/// stages first, then by design index, so the near-exact members, whose
/// PMF supports stay small, set the incumbent before the wide ones are
/// pushed.
std::vector<std::vector<std::uint8_t>> hybrid_family(const Ctx& ctx) {
  std::vector<std::size_t> cells;
  for (std::size_t c = 0; c < ctx.k; ++c) {
    if (ctx.cell_usable[c]) cells.push_back(c);
  }
  if (cells.empty()) return {};
  std::size_t z = cells.front();
  for (const std::size_t c : cells) {
    if (ctx.candidates[c].error_case_count() <
        ctx.candidates[z].error_case_count()) {
      z = c;
    }
  }
  const std::size_t n = ctx.n;
  struct Member {
    std::size_t trailing_z = 0;
    std::uint64_t index = 0;
    std::vector<std::uint8_t> design;
  };
  std::vector<Member> members;
  std::vector<std::uint8_t> design(n);
  // Builds design = X^a · Y^(n-a-m) · Z^m and keeps it when it fits.
  const auto add_if_fits = [&](std::size_t x, std::size_t a, std::size_t y,
                               std::size_t m) {
    for (std::size_t i = 0; i < n; ++i) {
      design[i] = static_cast<std::uint8_t>(i < a ? x : i + m < n ? y : z);
    }
    if (!fits_budgets(ctx, design)) return false;
    Member member{0, design_index(ctx, design), design};
    while (member.trailing_z < n && design[n - 1 - member.trailing_z] == z) {
      ++member.trailing_z;
    }
    members.push_back(std::move(member));
    return true;
  };
  for (const std::size_t x : cells) {
    for (std::size_t a = 0; a <= n; ++a) {
      if (add_if_fits(x, a, z, n - a)) continue;
      for (const std::size_t y : cells) {
        for (std::size_t m = n - a; m-- > 0;) {
          if (add_if_fits(x, a, y, m)) break;
        }
      }
    }
  }
  std::sort(members.begin(), members.end(),
            [](const Member& p, const Member& q) {
              if (p.trailing_z != q.trailing_z) {
                return p.trailing_z > q.trailing_z;
              }
              if (p.index != q.index) return p.index < q.index;
              return p.design < q.design;  // indices saturate past 2^64
            });
  std::vector<std::vector<std::uint8_t>> family;
  for (Member& member : members) {
    if (family.empty() || family.back() != member.design) {
      family.push_back(std::move(member.design));
    }
  }
  return family;
}

/// Scores `design` for the seed on `path` and keeps it in `best` when it
/// improves.  The stages it shares with the design offered before stay
/// pushed (`pushed` mirrors the path).  A design is abandoned as soon as
/// a prefix's bound shows it cannot beat `best`, and skipped when its
/// PMF outgrows the support guard.
void offer(const Ctx& ctx, engine::IncrementalAnalyzer& path,
           std::vector<std::uint8_t>& pushed,
           std::span<const std::uint8_t> design, Incumbent& best) {
  std::size_t depth = 0;
  while (depth < pushed.size() && pushed[depth] == design[depth]) ++depth;
  path.rewind(depth);
  pushed.resize(depth);
  try {
    for (;; ++depth) {
      if (best.found && depth > 0 &&
          cannot_beat(ctx, node_bound(ctx, path, depth), best.score)) {
        return;
      }
      if (depth + 1 == ctx.n) break;
      path.push(design[depth]);
      pushed.push_back(design[depth]);
    }
    std::uint64_t stages = 0;  // the seed's pushes are not search work
    const double score =
        detail::leaf_score(path, design.back(), ctx.objective, stages);
    const std::uint64_t index = design_index(ctx, design);
    if (improves(best, score, index, design.first(ctx.n - 1), design.back(),
                 ctx.maximize)) {
      best.found = true;
      best.score = score;
      best.index = index;
      best.choices.assign(design.begin(), design.end());
    }
  } catch (const std::length_error&) {
    // The PMF support guard tripped: this design cannot seed.
  }
}

/// Seeds the incumbent with the better of the beam winner and the best
/// hybrid-family member under the (score, index) order.  Every candidate
/// is a feasible design pushed from depth 0 and scored through the
/// leaf-scoring calls the tree makes, so its score is bit-identical to
/// the tree's; none is finalized.
void seed_incumbent(const Ctx& ctx, Shared& shared,
                    const BnbOptions& options) {
  if (options.seed_beam_width == 0 || ctx.n == 0) return;
  std::vector<std::size_t> beam;
  try {
    SearchStats beam_stats;  // the seed is not search work
    beam = detail::beam_choices(ctx.profile, ctx.candidates, ctx.constraints,
                                options.seed_beam_width, ctx.objective,
                                beam_stats);
  } catch (const std::runtime_error&) {
    // The constraints eliminated every beam design; the family may still
    // hold one.
  }
  engine::IncrementalAnalyzer path(ctx.profile, ctx.candidates,
                                   /*track_pmf=*/!ctx.maximize);
  std::vector<std::uint8_t> pushed;
  pushed.reserve(ctx.n);
  if (!beam.empty()) {
    std::vector<std::uint8_t> design;
    design.reserve(ctx.n);
    for (const std::size_t c : beam) {
      design.push_back(static_cast<std::uint8_t>(c));
    }
    offer(ctx, path, pushed, design, shared.incumbent);
  }
  for (const std::vector<std::uint8_t>& design : hybrid_family(ctx)) {
    offer(ctx, path, pushed, design, shared.incumbent);
  }
}

BnbResult run_search(const multibit::InputProfile& profile,
                     std::span<const adders::AdderCell> candidates,
                     const DesignConstraints& constraints,
                     Objective objective, const BnbOptions& options,
                     const BnbCheckpoint* from) {
  detail::require_candidates(candidates);
  if (candidates.size() > 255) {
    throw std::invalid_argument(
        "BranchBoundOptimizer: more than 255 candidate cells");
  }
  const Ctx ctx = make_ctx(profile, candidates, constraints, objective);
  Shared shared;
  shared.unit_done.assign(ctx.units, 0);
  if (from != nullptr) {
    validate_checkpoint(ctx, *from);
    shared.incumbent.found = from->incumbent_found;
    shared.incumbent.score = from->incumbent_score;
    shared.incumbent.index = from->incumbent_index;
    shared.incumbent.choices = from->incumbent_choices;
    for (const std::uint64_t u : from->completed_units) {
      if (!shared.unit_done[u]) {
        shared.unit_done[u] = 1;
        ++shared.units_completed;
      }
    }
    shared.stats = from->stats;
  } else {
    seed_incumbent(ctx, shared, options);
  }

  util::with_pool(options.threads, [&](util::ThreadPool& pool) {
    const bool inline_run =
        pool.thread_count() == 1 || pool.on_worker_thread();
    const std::uint64_t workers =
        inline_run ? 1
                   : std::min<std::uint64_t>(pool.thread_count(), ctx.units);
    shared.ranges.resize(static_cast<std::size_t>(workers));
    for (std::uint64_t w = 0; w < workers; ++w) {
      shared.ranges[w].next = ctx.units * w / workers;
      shared.ranges[w].end = ctx.units * (w + 1) / workers;
    }
    const auto worker_main = [&](std::size_t id) {
      try {
        Worker worker(ctx, shared, options, id);
        worker.run();
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared.mutex);
        if (!shared.error) shared.error = std::current_exception();
        shared.suspended = true;  // stop the other workers early
      }
    };
    if (inline_run) {
      worker_main(0);
    } else {
      for (std::uint64_t w = 0; w < workers; ++w) {
        pool.submit([&worker_main, w] {
          worker_main(static_cast<std::size_t>(w));
        });
      }
      pool.wait();
    }
    return 0;
  });

  if (shared.error) std::rethrow_exception(shared.error);

  BnbResult result;
  result.complete = shared.units_completed == ctx.units;
  result.has_incumbent = shared.incumbent.found;
  if (result.has_incumbent) {
    std::vector<adders::AdderCell> stages;
    stages.reserve(ctx.n);
    for (const std::size_t c : shared.incumbent.choices) {
      stages.push_back(candidates[c]);
    }
    result.design = detail::finalize(std::move(stages), profile, objective);
    result.design.stats = shared.stats;
  } else {
    result.design.objective = objective;
    result.design.stats = shared.stats;
  }
  if (!result.complete) {
    result.checkpoint = build_checkpoint_locked(ctx, shared);
    if (options.checkpoint_sink) options.checkpoint_sink(result.checkpoint);
  } else if (!result.has_incumbent) {
    throw std::runtime_error(
        "BranchBoundOptimizer: no design satisfies the constraints");
  }
  return result;
}

}  // namespace

BnbResult BranchBoundOptimizer::optimize(
    const multibit::InputProfile& profile,
    std::span<const adders::AdderCell> candidates,
    const DesignConstraints& constraints, Objective objective,
    const BnbOptions& options) {
  return run_search(profile, candidates, constraints, objective, options,
                    nullptr);
}

BnbResult BranchBoundOptimizer::resume(
    const multibit::InputProfile& profile,
    std::span<const adders::AdderCell> candidates,
    const BnbCheckpoint& checkpoint, const DesignConstraints& constraints,
    Objective objective, const BnbOptions& options) {
  return run_search(profile, candidates, constraints, objective, options,
                    &checkpoint);
}

HybridDesign HybridOptimizer::branch_bound(
    const multibit::InputProfile& profile,
    std::span<const adders::AdderCell> candidates,
    const DesignConstraints& constraints, Objective objective,
    unsigned threads) {
  BnbOptions options;
  options.threads = threads;
  return BranchBoundOptimizer::optimize(profile, candidates, constraints,
                                        objective, options)
      .design;
}

}  // namespace sealpaa::explore
