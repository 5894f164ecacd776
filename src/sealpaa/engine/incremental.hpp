// Resumable form of the paper's recursion (§4, Algorithm 1).
//
// `RecursiveAnalyzer::analyze` runs the carry recursion start-to-finish
// for one fixed chain.  Design-space exploration wants something
// stronger: thousands of candidate chains that share long prefixes, where
// re-deriving the shared stages per chain turns an O(N) method into
// O(N) *per candidate stage*.  `IncrementalAnalyzer` exposes the
// recursion as an explicit state machine — `push_stage` advances one
// stage, `pop`/`rewind` back out of a partial design, `finish` closes the
// chain with Equation 12 — so a DFS over candidate assignments pays O(1)
// per visited stage instead of O(N) per visited chain.
//
// Every arithmetic step is the exact advance_stage / final_success call
// the batch analyzer makes, in the same order, so results are
// bit-identical to `RecursiveAnalyzer::analyze` (see
// tests/test_engine.cpp), not merely within tolerance.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/analysis/mkl.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace sealpaa::engine {

/// Memoizes the M/K/L analysis matrices per distinct truth table, so a
/// search touching the same cells millions of times derives each cell's
/// matrices exactly once.  An 8-row cell packs into 16 bits (sum column
/// low byte, carry column high byte), which is the cache key.
class MklCache {
 public:
  /// 16-bit truth-table fingerprint: bit r is row r's sum, bit 8+r is
  /// row r's carry-out.  Cells with equal fingerprints are the same cell
  /// for analysis purposes (names are irrelevant to the matrices).
  [[nodiscard]] static std::uint16_t key_of(
      const adders::AdderCell& cell) noexcept;

  /// Returns the cell's matrices, deriving them on first use.  The
  /// reference stays valid for the lifetime of the cache.
  const analysis::MklMatrices& of(const adders::AdderCell& cell);

  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }
  /// from_cell derivations actually performed (== size()).
  [[nodiscard]] std::uint64_t derivations() const noexcept {
    return derivations_;
  }

 private:
  std::unordered_map<std::uint16_t, analysis::MklMatrices> table_;
  std::uint64_t derivations_ = 0;
};

/// The recursion as a resumable stack machine over a fixed input profile.
///
///   IncrementalAnalyzer inc(profile);
///   inc.push_stage(lpaa6);          // stage 0
///   inc.push_stage(lpaa1);          // stage 1
///   ...                             // until depth() == width()
///   auto result = inc.finish();     // == RecursiveAnalyzer::analyze
///   inc.rewind(1);                  // back to the 1-stage prefix
///
/// Not thread-safe; use one instance per thread (the exhaustive DSE runs
/// one per shard, branch-and-bound one per worker).
class IncrementalAnalyzer {
 public:
  /// `mkl_cache` may be shared across analyzers (single-threaded use);
  /// when null an internal cache is used.
  explicit IncrementalAnalyzer(multibit::InputProfile profile,
                               MklCache* mkl_cache = nullptr);

  [[nodiscard]] std::size_t width() const noexcept {
    return profile_.width();
  }
  /// Number of stages currently pushed.
  [[nodiscard]] std::size_t depth() const noexcept { return stack_.size(); }
  [[nodiscard]] const multibit::InputProfile& profile() const noexcept {
    return profile_;
  }

  /// Advances the carry state through one stage (Equations 10-11) and
  /// returns the post-stage state.  Throws std::logic_error when the
  /// chain is already full.
  const analysis::CarryState& push_stage(const adders::AdderCell& cell);
  /// Fast path when the caller already holds the cell's matrices.
  const analysis::CarryState& push_stage(const analysis::MklMatrices& mkl);

  /// Removes the most recent stage.  Throws std::logic_error when empty.
  void pop();
  /// Pops until depth() == `depth`.  Throws std::invalid_argument when
  /// `depth` exceeds the current depth.
  void rewind(std::size_t depth);

  /// Success-filtered carry state after the `depth` pushed stages
  /// (depth 0 = the Equation 5 initial state from P(Cin)).
  [[nodiscard]] const analysis::CarryState& carry_at(std::size_t depth) const;
  /// State after the most recent stage.
  [[nodiscard]] const analysis::CarryState& carry() const {
    return carry_at(depth());
  }

  /// P(Success) if `mkl` closed the chain as its final stage (Equation
  /// 12), *without* pushing it.  Requires depth() == width() - 1.  Raw
  /// dot product — no clamping — exactly like the batch analyzer's
  /// scoring path.
  [[nodiscard]] double final_success_with(
      const analysis::MklMatrices& mkl) const;

  /// Closes the chain: requires depth() == width().  Bit-identical to
  /// `RecursiveAnalyzer::analyze` on the same stage sequence, including
  /// the trace when `record_trace` is set.
  [[nodiscard]] analysis::AnalysisResult finish(
      bool record_trace = false) const;

  /// Enables joint-carry error-PMF tracking: every subsequent
  /// push_stage(cell) also advances an analysis::ErrorPmfState, so the
  /// DFS can score leaves on MED/MSE instead of P(Error).  Must be
  /// called at depth 0 (std::logic_error otherwise).  While tracking,
  /// the matrices-only push_stage(mkl) fast path throws — the M/K/L
  /// matrices do not determine the cell's sum column, which the error
  /// deltas need.
  void enable_pmf_tracking(const analysis::PmfOptions& options = {});
  [[nodiscard]] bool pmf_tracking() const noexcept { return track_pmf_; }

  /// Joint-carry PMF state after the `depth` pushed stages.  Requires
  /// tracking.
  [[nodiscard]] const analysis::ErrorPmfState& pmf_state_at(
      std::size_t depth) const;
  /// Finalized error PMF of the pushed prefix (carry-out difference
  /// folded at the current depth).  Requires tracking.
  [[nodiscard]] analysis::ErrorPmf error_pmf() const;

 private:
  struct Frame {
    analysis::MklMatrices mkl;   // this stage's matrices
    analysis::CarryState carry;  // state after this stage
    analysis::ErrorPmfState pmf;  // after this stage; tracking only
  };

  multibit::InputProfile profile_;
  /// Equation 10's operand factor per stage, built once from profile_.
  std::vector<analysis::OperandWeights> weights_;
  analysis::CarryState base_;  // Equation 5 initial state
  std::vector<Frame> stack_;
  MklCache owned_cache_;
  MklCache* cache_;  // owned_cache_ or the shared one
  bool track_pmf_ = false;
  analysis::PmfOptions pmf_options_;
  analysis::ErrorPmfState pmf_base_;  // depth-0 state; tracking only
};

}  // namespace sealpaa::engine
