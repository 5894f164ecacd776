#include "sealpaa/engine/incremental.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "sealpaa/prob/probability.hpp"

namespace sealpaa::engine {

IncrementalAnalyzer::IncrementalAnalyzer(
    multibit::InputProfile profile, std::span<const adders::AdderCell> palette,
    bool track_pmf)
    : profile_(std::move(profile)),
      palette_(palette.begin(), palette.end()),
      weights_(analysis::operand_weights(profile_)),
      base_{1.0 - profile_.p_cin(), profile_.p_cin()},
      track_pmf_(track_pmf) {
  if (palette_.empty()) {
    throw std::invalid_argument("IncrementalAnalyzer: empty cell palette");
  }
  mkls_.reserve(palette_.size());
  for (const adders::AdderCell& cell : palette_) {
    mkls_.push_back(analysis::MklMatrices::from_cell(cell));
  }
  if (track_pmf_) pmf_base_ = analysis::make_error_pmf_state(profile_.p_cin());
  stack_.reserve(profile_.width());
}

void IncrementalAnalyzer::check_choice(std::size_t choice,
                                       const char* caller) const {
  if (choice >= palette_.size()) {
    throw std::out_of_range(std::string("IncrementalAnalyzer::") + caller +
                            ": choice " + std::to_string(choice) +
                            " outside the " +
                            std::to_string(palette_.size()) + "-cell palette");
  }
}

const analysis::CarryState& IncrementalAnalyzer::push(std::size_t choice) {
  const std::size_t i = depth();
  if (i >= width()) {
    throw std::logic_error(
        "IncrementalAnalyzer::push: chain already holds all " +
        std::to_string(width()) + " stages");
  }
  check_choice(choice, "push");
  Frame frame{choice, analysis::advance_stage(mkls_[choice], weights_[i],
                                              carry_at(i)),
              {}};
  if (track_pmf_) {
    frame.pmf = analysis::next_error_pmf_state(
        pmf_state_at(i), palette_[choice], profile_.p_a(i), profile_.p_b(i));
  }
  stack_.push_back(std::move(frame));
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

double IncrementalAnalyzer::final_success_with(std::size_t choice) const {
  const std::size_t n = width();
  if (depth() + 1 != n) {
    throw std::logic_error(
        "IncrementalAnalyzer::final_success_with: requires depth " +
        std::to_string(n - 1) + ", have " + std::to_string(depth()));
  }
  check_choice(choice, "final_success_with");
  return analysis::final_success(mkls_[choice], weights_[n - 1],
                                 carry_at(n - 1));
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
  return analysis::finalize_error_pmf(pmf_state_at(depth()));
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
      analysis::final_success(mkls_[stack_[n - 1].choice], weights_[n - 1],
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
