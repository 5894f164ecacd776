#include "sealpaa/engine/incremental.hpp"

#include <stdexcept>
#include <string>

#include "sealpaa/prob/probability.hpp"

namespace sealpaa::engine {

std::uint16_t MklCache::key_of(const adders::AdderCell& cell) noexcept {
  std::uint16_t key = 0;
  const adders::AdderCell::Rows& rows = cell.rows();
  for (std::size_t r = 0; r < adders::AdderCell::kRows; ++r) {
    if (rows[r].sum) key |= static_cast<std::uint16_t>(1u << r);
    if (rows[r].carry) key |= static_cast<std::uint16_t>(1u << (8 + r));
  }
  return key;
}

const analysis::MklMatrices& MklCache::of(const adders::AdderCell& cell) {
  const std::uint16_t key = key_of(cell);
  const auto it = table_.find(key);
  if (it != table_.end()) return it->second;
  ++derivations_;
  return table_.emplace(key, analysis::MklMatrices::from_cell(cell))
      .first->second;
}

IncrementalAnalyzer::IncrementalAnalyzer(multibit::InputProfile profile,
                                         MklCache* mkl_cache)
    : profile_(std::move(profile)),
      weights_(analysis::operand_weights(profile_)),
      base_{1.0 - profile_.p_cin(), profile_.p_cin()},
      cache_(mkl_cache != nullptr ? mkl_cache : &owned_cache_) {
  stack_.reserve(profile_.width());
}

const analysis::CarryState& IncrementalAnalyzer::push_stage(
    const adders::AdderCell& cell) {
  const std::size_t i = depth();
  if (i >= width()) {
    throw std::logic_error(
        "IncrementalAnalyzer::push_stage: chain already holds all " +
        std::to_string(width()) + " stages");
  }
  const analysis::MklMatrices& mkl = cache_->of(cell);
  const analysis::CarryState next =
      analysis::advance_stage(mkl, weights_[i], carry_at(i));
  Frame frame{mkl, next, {}};
  if (track_pmf_) {
    frame.pmf = analysis::next_error_pmf_state(
        pmf_state_at(i), cell, profile_.p_a(i), profile_.p_b(i),
        pmf_options_);
  }
  stack_.push_back(std::move(frame));
  return stack_.back().carry;
}

const analysis::CarryState& IncrementalAnalyzer::push_stage(
    const analysis::MklMatrices& mkl) {
  const std::size_t i = depth();
  if (i >= width()) {
    throw std::logic_error(
        "IncrementalAnalyzer::push_stage: chain already holds all " +
        std::to_string(width()) + " stages");
  }
  if (track_pmf_) {
    // The M/K/L matrices only encode carry and success behaviour; the
    // PMF deltas additionally need the cell's sum column.
    throw std::logic_error(
        "IncrementalAnalyzer::push_stage: the matrices-only fast path "
        "cannot advance the error PMF; push the AdderCell while PMF "
        "tracking is enabled");
  }
  const analysis::CarryState next =
      analysis::advance_stage(mkl, weights_[i], carry_at(i));
  stack_.push_back(Frame{mkl, next, {}});
  return stack_.back().carry;
}

void IncrementalAnalyzer::pop() {
  if (stack_.empty()) {
    throw std::logic_error("IncrementalAnalyzer::pop: no stages pushed");
  }
  stack_.pop_back();
}

void IncrementalAnalyzer::rewind(std::size_t depth) {
  if (depth > stack_.size()) {
    throw std::invalid_argument(
        "IncrementalAnalyzer::rewind: target depth " + std::to_string(depth) +
        " exceeds current depth " + std::to_string(stack_.size()));
  }
  stack_.resize(depth);
}

const analysis::CarryState& IncrementalAnalyzer::carry_at(
    std::size_t depth) const {
  if (depth > stack_.size()) {
    throw std::invalid_argument(
        "IncrementalAnalyzer::carry_at: depth " + std::to_string(depth) +
        " exceeds current depth " + std::to_string(stack_.size()));
  }
  return depth == 0 ? base_ : stack_[depth - 1].carry;
}

double IncrementalAnalyzer::final_success_with(
    const analysis::MklMatrices& mkl) const {
  const std::size_t n = width();
  if (depth() + 1 != n) {
    throw std::logic_error(
        "IncrementalAnalyzer::final_success_with: requires depth " +
        std::to_string(n - 1) + ", have " + std::to_string(depth()));
  }
  return analysis::final_success(mkl, weights_[n - 1], carry_at(n - 1));
}

void IncrementalAnalyzer::enable_pmf_tracking(
    const analysis::PmfOptions& options) {
  if (depth() != 0) {
    throw std::logic_error(
        "IncrementalAnalyzer::enable_pmf_tracking: must be enabled at depth "
        "0, have " + std::to_string(depth()));
  }
  track_pmf_ = true;
  pmf_options_ = options;
  pmf_base_ = analysis::make_error_pmf_state(profile_.p_cin());
}

const analysis::ErrorPmfState& IncrementalAnalyzer::pmf_state_at(
    std::size_t depth) const {
  if (!track_pmf_) {
    throw std::logic_error(
        "IncrementalAnalyzer::pmf_state_at: PMF tracking not enabled");
  }
  if (depth > stack_.size()) {
    throw std::invalid_argument(
        "IncrementalAnalyzer::pmf_state_at: depth " + std::to_string(depth) +
        " exceeds current depth " + std::to_string(stack_.size()));
  }
  return depth == 0 ? pmf_base_ : stack_[depth - 1].pmf;
}

analysis::ErrorPmf IncrementalAnalyzer::error_pmf() const {
  return analysis::finalize_error_pmf(pmf_state_at(depth()), pmf_options_);
}

analysis::AnalysisResult IncrementalAnalyzer::finish(bool record_trace) const {
  const std::size_t n = width();
  if (depth() != n) {
    throw std::logic_error("IncrementalAnalyzer::finish: chain holds " +
                           std::to_string(depth()) + " of " +
                           std::to_string(n) + " stages");
  }
  analysis::AnalysisResult result;
  // P(Succ) closes over the carry state *before* the last stage, exactly
  // as the batch analyzer scores it (Equation 12).
  result.p_success = prob::require_probability(
      analysis::final_success(stack_[n - 1].mkl, weights_[n - 1],
                              carry_at(n - 1)),
      "IncrementalAnalyzer P(Succ)");
  result.p_error = 1.0 - result.p_success;
  result.final_carry = carry_at(n);
  if (record_trace) {
    result.trace.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      result.trace.push_back(analysis::StageTrace{
          profile_.p_a(i), profile_.p_b(i), carry_at(i), carry_at(i + 1)});
    }
  }
  return result;
}

}  // namespace sealpaa::engine
