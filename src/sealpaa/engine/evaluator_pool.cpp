#include "sealpaa/engine/evaluator_pool.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace sealpaa::engine {

EvaluatorPool::EvaluatorPool(std::vector<adders::AdderCell> palette,
                             EvaluatorPoolOptions options)
    : palette_(std::move(palette)), options_(options) {
  if (palette_.empty()) {
    throw std::invalid_argument("EvaluatorPool: palette must not be empty");
  }
  if (options_.max_evaluators == 0) {
    throw std::invalid_argument("EvaluatorPool: max_evaluators must be >= 1");
  }
}

std::string EvaluatorPool::key_of(const multibit::InputProfile& profile) {
  // The exact bit patterns of every probability, so two profiles share an
  // evaluator only when their analyses are bit-identical.
  const auto append_double = [](std::string& key, double value) {
    char bytes[sizeof(double)];
    std::memcpy(bytes, &value, sizeof(double));
    key.append(bytes, sizeof(double));
  };
  std::string key;
  key.reserve((profile.width() * 2 + 1) * sizeof(double));
  for (std::size_t i = 0; i < profile.width(); ++i) {
    append_double(key, profile.p_a(i));
  }
  for (std::size_t i = 0; i < profile.width(); ++i) {
    append_double(key, profile.p_b(i));
  }
  append_double(key, profile.p_cin());
  return key;
}

std::shared_ptr<ChainEvaluator> EvaluatorPool::acquire(
    const multibit::InputProfile& profile) {
  retire_released();
  std::string key = key_of(profile);
  if (const auto found = index_.find(key); found != index_.end()) {
    entries_.splice(entries_.begin(), entries_, found->second);
    pool_hits_ += 1;
    return entries_.front().evaluator;
  }
  auto evaluator = std::make_shared<ChainEvaluator>(profile, palette_);
  created_ += 1;
  entries_.push_front(Entry{key, evaluator});
  index_.emplace(std::move(key), entries_.begin());
  while (entries_.size() > options_.max_evaluators) {
    Entry& oldest = entries_.back();
    evicted_held_.push_back(std::move(oldest.evaluator));
    index_.erase(oldest.key);
    entries_.pop_back();
    evicted_ += 1;
  }
  return evaluator;
}

CacheStats EvaluatorPool::aggregate_pmf_stats() const {
  CacheStats total = retired_pmf_;
  for (const Entry& entry : entries_) total.merge(entry.evaluator->pmf_stats());
  for (const auto& evaluator : evicted_held_) {
    total.merge(evaluator->pmf_stats());
  }
  return total;
}

void EvaluatorPool::retire_released() {
  std::erase_if(evicted_held_, [this](const auto& evaluator) {
    if (evaluator.use_count() > 1) return false;
    retired_pmf_.merge(evaluator->pmf_stats());
    return true;
  });
}

}  // namespace sealpaa::engine
