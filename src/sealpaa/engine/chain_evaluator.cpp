#include "sealpaa/engine/chain_evaluator.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "sealpaa/prob/probability.hpp"

namespace sealpaa::engine {

ChainEvaluator::ChainEvaluator(multibit::InputProfile profile,
                               std::vector<adders::AdderCell> candidates)
    : profile_(std::move(profile)),
      candidates_(std::move(candidates)),
      weights_(analysis::operand_weights(profile_)),
      base_{1.0 - profile_.p_cin(), profile_.p_cin()} {
  if (candidates_.empty()) {
    throw std::invalid_argument("ChainEvaluator: no candidate cells");
  }
  if (candidates_.size() > 255) {
    throw std::invalid_argument(
        "ChainEvaluator: at most 255 candidate cells (PMF cache keys pack "
        "choice indices into bytes)");
  }
  mkls_.reserve(candidates_.size());
  for (const adders::AdderCell& cell : candidates_) {
    mkls_.push_back(analysis::MklMatrices::from_cell(cell));
  }
}

void ChainEvaluator::check_choice(std::size_t choice) const {
  if (choice >= candidates_.size()) {
    throw std::out_of_range("ChainEvaluator: choice index " +
                            std::to_string(choice) + " out of range (" +
                            std::to_string(candidates_.size()) +
                            " candidates)");
  }
}

void ChainEvaluator::check_chain(std::span<const std::size_t> choices,
                                 const char* caller) const {
  if (choices.size() != width()) {
    throw std::invalid_argument(std::string(caller) + ": chain of " +
                                std::to_string(choices.size()) +
                                " stages does not match width " +
                                std::to_string(width()));
  }
  for (const std::size_t choice : choices) check_choice(choice);
}

analysis::AnalysisResult ChainEvaluator::evaluate(
    std::span<const std::size_t> choices) {
  check_chain(choices, "ChainEvaluator::evaluate");
  // RecursiveAnalyzer::analyze's call sequence, so the result is
  // bit-identical: advance through every stage but the last, then
  // Equation 12 and the last carry advance from the same state.
  const std::size_t n = width();
  analysis::CarryState carry = base_;
  for (std::size_t d = 0; d + 1 < n; ++d) {
    carry = analysis::advance_stage(mkls_[choices[d]], weights_[d], carry);
  }
  const analysis::MklMatrices& last = mkls_[choices[n - 1]];
  const analysis::OperandWeights& w = weights_[n - 1];

  analysis::AnalysisResult result;
  result.p_success = prob::require_probability(
      analysis::final_success(last, w, carry), "ChainEvaluator P(Succ)");
  result.p_error = 1.0 - result.p_success;
  // The last stage's carry advance is "NR" for P(Succ) but part of the
  // full result (composition into wider chains).
  result.final_carry = analysis::advance_stage(last, w, carry);
  return result;
}

std::vector<analysis::AnalysisResult> ChainEvaluator::evaluate_batch(
    std::span<const std::span<const std::size_t>> chains) {
  for (const std::span<const std::size_t> chain : chains) {
    check_chain(chain, "ChainEvaluator::evaluate_batch");
  }
  std::vector<analysis::AnalysisResult> results;
  results.reserve(chains.size());
  for (const std::span<const std::size_t> chain : chains) {
    results.push_back(evaluate(chain));
  }
  batch_stats_.lane_stages += chains.size() * width();
  return results;
}

void ChainEvaluator::pmf_insert(std::string key,
                                const analysis::ErrorPmf& pmf) {
  // Each entry is charged its PMF entries, its key, and its list node
  // and index slot (with the links and bucket pointer around them).
  const std::size_t bytes =
      pmf.support_size() * sizeof(analysis::ErrorPmf::Entry) + key.size() +
      sizeof(PmfNode) + sizeof(PmfIndex::value_type) + 4 * sizeof(void*);
  if (bytes > kPmfCacheBytes) return;
  while (pmf_bytes_ + bytes > kPmfCacheBytes) {
    const PmfNode& victim = pmf_lru_.back();
    pmf_bytes_ -= victim.bytes;
    pmf_index_.erase(std::string_view(victim.key));
    pmf_lru_.pop_back();
    ++pmf_stats_.evictions;
  }
  ++pmf_stats_.insertions;
  pmf_lru_.push_front(PmfNode{std::move(key), pmf, bytes});
  pmf_index_.emplace(std::string_view(pmf_lru_.front().key),
                     pmf_lru_.begin());
  pmf_bytes_ += bytes;
}

analysis::ErrorPmf ChainEvaluator::error_pmf(
    std::span<const std::size_t> choices) {
  if (choices.size() > width()) {
    throw std::invalid_argument("ChainEvaluator::error_pmf: " +
                                std::to_string(choices.size()) +
                                " choices exceed width " +
                                std::to_string(width()));
  }
  std::string key;
  key.reserve(choices.size());
  for (const std::size_t choice : choices) {
    check_choice(choice);
    key.push_back(static_cast<char>(choice));
  }
  ++pmf_stats_.chains_evaluated;
  if (const auto it = pmf_index_.find(key); it != pmf_index_.end()) {
    ++pmf_stats_.hits;
    pmf_lru_.splice(pmf_lru_.begin(), pmf_lru_, it->second);
    return it->second->pmf;
  }
  ++pmf_stats_.misses;

  // propagate_error_pmf's call sequence, so the result is bit-identical.
  analysis::ErrorPmfState state =
      analysis::make_error_pmf_state(profile_.p_cin());
  for (std::size_t d = 0; d < choices.size(); ++d) {
    analysis::advance_error_pmf(state, candidates_[choices[d]],
                                profile_.p_a(d), profile_.p_b(d));
    ++pmf_stats_.stages_computed;
  }
  analysis::ErrorPmf pmf = analysis::finalize_error_pmf(state);
  pmf_insert(std::move(key), pmf);
  return pmf;
}

void ChainEvaluator::clear() {
  pmf_index_.clear();
  pmf_lru_.clear();
  pmf_bytes_ = 0;
}

}  // namespace sealpaa::engine
