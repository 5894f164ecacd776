// Resumable form of the paper's recursion (§4, Algorithm 1).
//
// `RecursiveAnalyzer::analyze` runs the carry recursion start-to-finish
// for one fixed chain.  Design-space exploration wants something
// stronger: thousands of candidate chains that share long prefixes, where
// re-deriving the shared stages per chain turns an O(N) method into
// O(N) *per candidate stage*.  `IncrementalAnalyzer` exposes the
// recursion as an explicit state machine over a fixed cell palette —
// `push` advances one stage by palette index, `pop`/`rewind` back out of
// a partial design, `finish` closes the chain with Equation 12 — so a
// DFS over candidate assignments pays O(1) per visited stage instead of
// O(N) per visited chain.  Each palette cell's M/K/L matrices are
// derived once, at construction.
//
// Every arithmetic step is the exact advance_stage / final_success call
// the batch analyzer makes, in the same order, so results are
// bit-identical to `RecursiveAnalyzer::analyze` (see
// tests/test_engine.cpp), not merely within tolerance.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sealpaa/adders/cell.hpp"
#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/analysis/mkl.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace sealpaa::engine {

/// The recursion as a resumable stack machine over a fixed input profile
/// and cell palette; a stage is a palette index.
///
///   IncrementalAnalyzer inc(profile, palette);
///   inc.push(5);                    // stage 0 is palette[5]
///   inc.push(0);                    // stage 1 is palette[0]
///   ...                             // until depth() == width()
///   auto result = inc.finish();     // == RecursiveAnalyzer::analyze
///   inc.rewind(1);                  // back to the 1-stage prefix
///
/// Not thread-safe; use one instance per thread (the exhaustive DSE runs
/// one per shard, branch-and-bound one per worker).
class IncrementalAnalyzer {
 public:
  /// Derives each palette cell's M/K/L matrices once.  With `track_pmf`
  /// every push also advances the joint-carry error-PMF state, so a
  /// search can score designs on MED/MSE instead of P(Error).  Throws
  /// std::invalid_argument when `palette` is empty.
  IncrementalAnalyzer(multibit::InputProfile profile,
                      std::span<const adders::AdderCell> palette,
                      bool track_pmf = false);

  [[nodiscard]] std::size_t width() const noexcept {
    return profile_.width();
  }
  /// Number of stages currently pushed.
  [[nodiscard]] std::size_t depth() const noexcept { return stack_.size(); }

  /// Appends palette cell `choice` as the next stage: advances the carry
  /// state (Equations 10-11), and the error-PMF state when tracking, and
  /// returns the post-stage carry state.  Throws std::logic_error when the
  /// chain is already full, std::out_of_range for a choice outside the
  /// palette, and std::length_error when the tracked PMF cannot take
  /// another stage (past 62); the stack is unchanged after any of them.
  const analysis::CarryState& push(std::size_t choice);

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

  /// P(Success) if palette cell `choice` closed the chain as its final
  /// stage (Equation 12), *without* pushing it.  Requires depth() ==
  /// width() - 1.  Raw dot product — no clamping — exactly like the batch
  /// analyzer's scoring path.  Throws std::out_of_range for a choice
  /// outside the palette.
  [[nodiscard]] double final_success_with(std::size_t choice) const;

  /// Closes the chain: requires depth() == width().  Bit-identical to
  /// `RecursiveAnalyzer::analyze` on the same stage sequence, including
  /// the trace when `record_trace` is set.
  [[nodiscard]] analysis::AnalysisResult finish(
      bool record_trace = false) const;

  /// Joint-carry PMF state after the `depth` pushed stages.  Throws
  /// std::logic_error unless constructed with `track_pmf`.
  [[nodiscard]] const analysis::ErrorPmfState& pmf_state_at(
      std::size_t depth) const;
  /// Finalized error PMF of the pushed prefix (carry-out difference
  /// folded at the current depth).  Requires tracking.
  [[nodiscard]] analysis::ErrorPmf error_pmf() const;

 private:
  struct Frame {
    std::size_t choice = 0;       // this stage's palette index
    analysis::CarryState carry;   // state after this stage
    analysis::ErrorPmfState pmf;  // after this stage; tracking only
  };

  void check_choice(std::size_t choice, const char* caller) const;

  multibit::InputProfile profile_;
  std::vector<adders::AdderCell> palette_;
  std::vector<analysis::MklMatrices> mkls_;  // one per palette cell
  /// Equation 10's operand factor per stage, built once from profile_.
  std::vector<analysis::OperandWeights> weights_;
  analysis::CarryState base_;  // Equation 5 initial state
  bool track_pmf_ = false;
  analysis::ErrorPmfState pmf_base_;  // depth-0 state; tracking only
  std::vector<Frame> stack_;
};

}  // namespace sealpaa::engine
