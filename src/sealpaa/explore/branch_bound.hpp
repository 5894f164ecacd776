// Provably-optimal hybrid-chain search: branch-and-bound with admissible
// pruning, work-stealing parallelism and checkpoint/resume.
//
// The search tree assigns one candidate cell per stage, least
// significant first.  Two admissible bounds drive the pruning:
//
//  * err (maximize P(Success)): P(Succ) is linear in the carry state
//    (c0, c1) (Equations 10-12), so a completion of stages d..n-1 is a
//    2-vector s (what it keeps of unit mass at carry 0 and at carry 1)
//    and a depth-d node at carry state c ends at c0*s0 + c1*s1.  Before
//    the search, the recursion runs backward once over the usable
//    palette cells (budgets relaxed) and keeps, per depth, the
//    upper-right convex frontier of those vectors — a handful of points.
//    The bound max over the frontier of c0*s0 + c1*s1 is the best
//    P(Succ) any completion can reach: exact in real arithmetic, never
//    above the carry mass c0 + c1, and equal to it (up to rounding)
//    when AccuFA is usable.
//
//  * med / mse (minimize E[|err|] / E[err^2]): after a depth-d prefix,
//    every future contribution to the signed error — stage deltas
//    (s_approx - s_exact) * 2^i for i >= d and the carry-out fold
//    (ca - ce) * 2^stage — is a multiple of 2^d, so the final error of
//    any completion is congruent to the prefix error mod 2^d.  Summing
//    p * min(r, 2^d - r)^q (q = 1 for MED, 2 for MSE, r = value mod 2^d)
//    over the four joint-carry segment PMFs is therefore a lower bound
//    on the final metric.
//
// Before branching, the incumbent is seeded with the better of two
// feasible designs: the winner of a beam search, and the best member of
// a hybrid family X^a · Y^b · Z^m (stage 0 first) — the paper's split of
// approximate low bits and accurate high bits.  Z is the usable cell
// with the fewest error rows (AccuFA when the palette has it), X and Y
// range over the usable cells, and m is the most Z stages that fit every
// budget.  Both are pushed on an IncrementalAnalyzer from depth 0 and
// scored by the leaf-scoring calls the tree makes, so the seed's score
// is bit-identical to the tree's, and neither is finalized.  The family
// is scored most trailing Z stages first and shares pushed prefixes; a
// member is abandoned as soon as its prefix's bound cannot beat the
// incumbent, and skipped when its PMF outgrows the support guard.  Once
// the seed is the optimum the incumbent never changes, and the counters
// no longer depend on the schedule.
//
// Pruning is *strict only*: a subtree is cut when its bound — widened by
// a small relative slack absorbing floating-point non-monotonicity —
// cannot beat the incumbent, and bound ties are always explored.  The
// incumbent is the pair (score, historical design index) under the same
// "better score, or equal score and lower index" rule the exhaustive DFS
// uses, a total order whose fold is order-independent, so the final
// design is identical to exhaustive() and independent of the thread
// count and of the work-stealing schedule.  (The index saturates for
// spaces beyond 2^64 designs; there a score tie at the saturated index
// is broken by the choices read from stage n-1 down, which order the
// designs as the true index does.)
//
// Work is split at a shallow fixed depth into k^D prefix units (D the
// smallest depth with at least 64 units — a function of the space only,
// never of the thread count).  Units are dealt to per-worker ranges;
// each worker drains its own range in ascending unit order and steals
// the upper half of the largest remaining victim range when empty.
// With 1 thread the schedule degenerates to a pure sequential DFS in
// unit order, which is what makes node counts reproducible and
// checkpoints exact.
//
// Each worker keeps its DFS path on an engine::IncrementalAnalyzer over
// the palette: the carry state (and for med/mse the error-PMF state) of
// every stage on the path, each stage a palette index pushed on the way
// down and popped on the way back.  A unit
// rewinds to depth 0 and pushes its split-depth prefix, so everything a
// unit computes is a function of the unit and the incumbent it starts
// from; stages_computed counts the pushes.
//
// Checkpoints snapshot the incumbent, the completed-unit set and the
// accumulated SearchStats at unit granularity.  They contain no RNG
// state and no partially-expanded subtrees, so resuming re-runs exactly
// the units that had not completed: single-threaded, an interrupted +
// resumed search reproduces the uninterrupted run's incumbent AND every
// SearchStats counter bit-for-bit.  No state outlives a unit, so a
// resumed process has no cold cache to warm.  Serialization lives in
// obs/checkpoint.hpp (explore sits below the JSON layer); this header
// only defines the plain data snapshot and a sink callback.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sealpaa/explore/hybrid.hpp"

namespace sealpaa::explore {

/// Resumable snapshot of a branch-and-bound run, taken at unit
/// boundaries.  Plain data: JSON (de)serialization is
/// obs::to_json / obs::parse_bnb_checkpoint, file I/O is
/// obs::write_bnb_checkpoint / obs::read_bnb_checkpoint.
struct BnbCheckpoint {
  /// objective_name() of the search ("err", "med", "mse").
  std::string objective;
  std::size_t width = 0;
  /// 16-bit truth-table fingerprints of the candidate palette, in
  /// palette order: bit r is row r's sum, bit 8+r row r's carry-out
  /// (AccuFA is 0xe896).  resume() refuses a checkpoint whose palette
  /// does not match.
  std::vector<std::uint16_t> palette;
  /// The input profile the search ran under (validated on resume).
  std::vector<double> p_a;
  std::vector<double> p_b;
  double p_cin = 0.0;
  /// The constraints the search ran under (validated on resume).
  std::optional<double> max_power_nw;
  std::optional<double> max_area_ge;
  /// Static unit split: all k^split_depth depth-`split_depth` prefixes.
  std::size_t split_depth = 0;
  std::uint64_t total_units = 0;
  /// The incumbent: best (score, historical index) design seen so far.
  bool incumbent_found = false;
  std::vector<std::size_t> incumbent_choices;
  double incumbent_score = 0.0;
  std::uint64_t incumbent_index = 0;
  /// Units fully processed (ascending).  Resume re-runs the complement.
  std::vector<std::uint64_t> completed_units;
  /// Search accounting accumulated over the completed units.
  SearchStats stats;
};

/// Tuning and lifecycle knobs for one branch-and-bound run.
struct BnbOptions {
  /// Worker threads (0 → util::default_threads()).  The final design is
  /// identical for every value; only node/stage counters and wall time
  /// vary beyond 1 thread.
  unsigned threads = 0;
  /// Width of the beam search whose winner, with the hybrid family,
  /// seeds the incumbent (a good initial incumbent is what makes the
  /// bound prune from node one).  0 disables all seeding, the family
  /// included — the search then starts pruning only after its first
  /// scored leaf.
  std::size_t seed_beam_width = 64;
  /// Invoke `checkpoint_sink` after every this-many completed units
  /// (0 = only when suspending).  The sink runs under the scheduler
  /// lock: keep it to serialization + file I/O and never call back into
  /// the optimizer from it.
  std::uint64_t checkpoint_every_units = 0;
  std::function<void(const BnbCheckpoint&)> checkpoint_sink;
  /// Stop claiming new units once this many completed (0 = run to
  /// completion).  The result then carries complete == false and the
  /// final checkpoint; used by the kill/resume tests and the CLI's
  /// --suspend-after-units flag.  Workers finish the unit they are on,
  /// so more units than the threshold may complete when threads > 1.
  std::uint64_t suspend_after_units = 0;
};

/// Outcome of optimize() / resume().
struct BnbResult {
  /// The finalized incumbent (the exact optimum when complete).  Valid
  /// only when has_incumbent; its stats field carries the accumulated
  /// SearchStats either way.
  HybridDesign design;
  /// False when the run suspended via BnbOptions::suspend_after_units.
  bool complete = true;
  /// False only for a suspended run that had found no design yet (no
  /// seed and every completed unit constraint-rejected or pruned).
  bool has_incumbent = false;
  /// Filled when !complete: resume from exactly here.
  BnbCheckpoint checkpoint;
};

class BranchBoundOptimizer {
 public:
  /// Runs the search from scratch.  Throws std::invalid_argument on an
  /// empty palette (or one beyond 255 cells) and std::runtime_error when
  /// the constraints eliminate every design (completion only — a
  /// suspended run reports has_incumbent = false instead).
  [[nodiscard]] static BnbResult optimize(
      const multibit::InputProfile& profile,
      std::span<const adders::AdderCell> candidates,
      const DesignConstraints& constraints = {},
      Objective objective = Objective::kErrorRate,
      const BnbOptions& options = {});

  /// Continues a checkpointed search: re-runs exactly the units the
  /// checkpoint lists as not completed, starting from its incumbent and
  /// stats.  Throws std::invalid_argument when the checkpoint does not
  /// match (objective, width, palette fingerprints, profile,
  /// constraints).  Seeding is skipped — the checkpoint incumbent
  /// already dominates the seed.
  [[nodiscard]] static BnbResult resume(
      const multibit::InputProfile& profile,
      std::span<const adders::AdderCell> candidates,
      const BnbCheckpoint& checkpoint,
      const DesignConstraints& constraints = {},
      Objective objective = Objective::kErrorRate,
      const BnbOptions& options = {});
};

}  // namespace sealpaa::explore
