#include "sealpaa/engine/chain_evaluator.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "sealpaa/prob/probability.hpp"

namespace sealpaa::engine {

namespace {

// Slot indices are uint32; a larger capacity could never be addressed
// (and could never fit in memory anyway).
constexpr std::size_t kMaxCapacity = std::size_t{1} << 30;

// FNV-1a, folded byte by byte.  Chosen over std::hash because prefix
// hashes nest: hashing the key once left-to-right yields the hash of
// every prefix depth along the way, so the deepest-first probe loop does
// no hashing at all.
constexpr std::uint64_t kFnvBasis = 0xcbf2'9ce4'8422'2325ULL;
constexpr std::uint64_t kFnvPrime = 0x0000'0100'0000'01b3ULL;

// FNV's low bits are weak on short inputs; a splitmix64-style finalizer
// spreads them before they pick the table bucket.
constexpr std::uint64_t mix(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xff51'afd7'ed55'8ccdULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

ChainEvaluator::ChainEvaluator(multibit::InputProfile profile,
                               std::vector<adders::AdderCell> candidates,
                               ChainEvaluatorOptions options)
    : profile_(std::move(profile)),
      candidates_(std::move(candidates)),
      weights_(analysis::operand_weights(profile_)),
      base_{1.0 - profile_.p_cin(), profile_.p_cin()},
      capacity_(std::min(options.cache_capacity, kMaxCapacity)),
      key_stride_(profile_.width()) {
  if (candidates_.empty()) {
    throw std::invalid_argument("ChainEvaluator: no candidate cells");
  }
  if (candidates_.size() > 255) {
    throw std::invalid_argument(
        "ChainEvaluator: at most 255 candidate cells (prefix keys pack "
        "choice indices into bytes)");
  }
  mkls_.reserve(candidates_.size());
  for (const adders::AdderCell& cell : candidates_) {
    mkls_.push_back(analysis::MklMatrices::from_cell(cell));
  }
  key_scratch_.reserve(profile_.width());
}

void ChainEvaluator::check_choice(std::size_t choice) const {
  if (choice >= candidates_.size()) {
    throw std::out_of_range("ChainEvaluator: choice index " +
                            std::to_string(choice) + " out of range (" +
                            std::to_string(candidates_.size()) +
                            " candidates)");
  }
}

std::string_view ChainEvaluator::key_of(std::uint32_t slot) const noexcept {
  return {key_pool_.data() + static_cast<std::size_t>(slot) * key_stride_,
          slots_[slot].len};
}

std::uint32_t ChainEvaluator::find_slot(std::string_view key,
                                        std::uint64_t hash) const noexcept {
  if (table_.empty()) return kNil;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t slot = table_[i];
    if (slot == kNil) return kNil;
    if (slots_[slot].hash == hash && key_of(slot) == key) return slot;
  }
}

void ChainEvaluator::unlink(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    lru_head_ = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    lru_tail_ = s.prev;
  }
}

void ChainEvaluator::link_front(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.prev = kNil;
  s.next = lru_head_;
  if (lru_head_ != kNil) slots_[lru_head_].prev = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNil) lru_tail_ = slot;
}

void ChainEvaluator::touch(std::uint32_t slot) noexcept {
  if (slot == lru_head_) return;
  unlink(slot);
  link_front(slot);
}

// Backward-shift deletion keeps linear probing tombstone-free: after
// emptying the victim's table cell, every displaced entry in the cluster
// behind it is moved back over the gap.
void ChainEvaluator::table_erase(std::uint32_t slot) noexcept {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = slots_[slot].hash & mask;
  while (table_[i] != slot) i = (i + 1) & mask;
  std::size_t gap = i;
  for (std::size_t j = (gap + 1) & mask; table_[j] != kNil;
       j = (j + 1) & mask) {
    const std::size_t ideal = slots_[table_[j]].hash & mask;
    // Move table_[j] into the gap unless its probe path starts after the
    // gap (i.e. the gap lies outside [ideal, j] in circular order).
    const bool gap_in_path = gap <= j ? (ideal <= gap || ideal > j)
                                      : (ideal <= gap && ideal > j);
    if (gap_in_path) {
      table_[gap] = table_[j];
      gap = j;
    }
  }
  table_[gap] = kNil;
}

void ChainEvaluator::grow_table() {
  const std::size_t size = table_.empty() ? 64 : table_.size() * 2;
  table_.assign(size, kNil);
  const std::size_t mask = size - 1;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    std::size_t i = slots_[slot].hash & mask;
    while (table_[i] != kNil) i = (i + 1) & mask;
    table_[i] = slot;
  }
}

void ChainEvaluator::insert_prefix(std::string_view key, std::uint64_t hash,
                                   const analysis::CarryState& carry) {
  ++stats_.insertions;
  std::uint32_t slot;
  if (live_slots_ >= capacity_) {
    // Recycle the LRU victim's slot in place.
    slot = lru_tail_;
    table_erase(slot);
    unlink(slot);
    ++stats_.evictions;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    key_pool_.resize(key_pool_.size() + key_stride_);
    ++live_slots_;
    // Keep the table at most half full so probe chains stay short.
    if ((live_slots_ + 1) * 2 > table_.size()) grow_table();
  }
  Slot& s = slots_[slot];
  s.hash = hash;
  s.len = static_cast<std::uint32_t>(key.size());
  s.carry = carry;
  std::memcpy(key_pool_.data() + static_cast<std::size_t>(slot) * key_stride_,
              key.data(), key.size());
  const std::size_t mask = table_.size() - 1;
  std::size_t i = s.hash & mask;
  while (table_[i] != kNil) i = (i + 1) & mask;
  table_[i] = slot;
  link_front(slot);
}

analysis::CarryState ChainEvaluator::carry_after(
    std::span<const std::size_t> choices) {
  const std::size_t len = choices.size();
  key_scratch_.clear();
  hash_scratch_.resize(len + 1);
  std::uint64_t h = kFnvBasis;
  hash_scratch_[0] = mix(h);
  for (std::size_t i = 0; i < len; ++i) {
    check_choice(choices[i]);
    key_scratch_.push_back(static_cast<char>(choices[i]));
    h = (h ^ (choices[i] & 0xFFu)) * kFnvPrime;
    hash_scratch_[i + 1] = mix(h);
  }

  // Probe for the longest cached prefix, deepest first.  The rolling
  // hash pass above already produced every depth's hash, including the
  // ones needed for the inserts on the way forward.
  std::size_t found = 0;
  analysis::CarryState carry = base_;
  if (capacity_ > 0) {
    for (std::size_t d = len; d >= 1; --d) {
      const std::string_view key(key_scratch_.data(), d);
      const std::uint32_t slot = find_slot(key, hash_scratch_[d]);
      if (slot != kNil) {
        ++stats_.hits;
        touch(slot);
        found = d;
        carry = slots_[slot].carry;
        break;
      }
      ++stats_.misses;
    }
  }

  // Advance from the deepest known state, caching every new prefix.
  for (std::size_t d = found; d < len; ++d) {
    carry = analysis::advance_stage(mkls_[choices[d]], weights_[d], carry);
    ++stats_.stages_computed;
    if (capacity_ > 0) {
      insert_prefix(std::string_view(key_scratch_.data(), d + 1),
                    hash_scratch_[d + 1], carry);
    }
  }
  return carry;
}

analysis::AnalysisResult ChainEvaluator::evaluate(
    std::span<const std::size_t> choices) {
  const std::size_t n = width();
  if (choices.size() != n) {
    throw std::invalid_argument(
        "ChainEvaluator::evaluate: chain of " +
        std::to_string(choices.size()) + " stages does not match width " +
        std::to_string(n));
  }
  check_choice(choices[n - 1]);
  ++stats_.chains_evaluated;

  const analysis::CarryState before_last = carry_after(choices.first(n - 1));
  const analysis::MklMatrices& last = mkls_[choices[n - 1]];
  const analysis::OperandWeights& w = weights_[n - 1];

  analysis::AnalysisResult result;
  result.p_success = prob::require_probability(
      analysis::final_success(last, w, before_last), "ChainEvaluator P(Succ)");
  result.p_error = 1.0 - result.p_success;
  // The last stage's carry advance is "NR" for P(Succ) but part of the
  // full result (composition into wider chains); it is computed directly
  // and not cached — no later prefix can extend a full-width chain.
  result.final_carry = analysis::advance_stage(last, w, before_last);
  ++stats_.stages_computed;
  return result;
}

std::vector<analysis::AnalysisResult> ChainEvaluator::evaluate_batch(
    std::span<const std::span<const std::size_t>> chains) {
  const std::size_t n = width();
  const std::size_t count = chains.size();
  std::vector<analysis::AnalysisResult> results(count);
  if (count == 0) return results;
  if (n == 0) {
    throw std::invalid_argument(
        "ChainEvaluator::evaluate_batch: zero-width profile");
  }
  for (const std::span<const std::size_t> chain : chains) {
    if (chain.size() != n) {
      throw std::invalid_argument(
          "ChainEvaluator::evaluate_batch: chain of " +
          std::to_string(chain.size()) + " stages does not match width " +
          std::to_string(n));
    }
    for (const std::size_t c : chain) check_choice(c);
  }
  stats_.chains_evaluated += count;

  // Per-lane key bytes and the rolling prefix hashes of every depth —
  // the same FNV/mix scheme carry_after uses, so batch-computed prefixes
  // and sequentially computed ones share one cache namespace.
  std::vector<char> keys(count * n);
  std::vector<std::uint64_t> hashes(count * (n + 1));
  for (std::size_t l = 0; l < count; ++l) {
    char* key = keys.data() + l * n;
    std::uint64_t* hs = hashes.data() + l * (n + 1);
    std::uint64_t h = kFnvBasis;
    hs[0] = mix(h);
    for (std::size_t i = 0; i < n; ++i) {
      key[i] = static_cast<char>(chains[l][i]);
      h = (h ^ (chains[l][i] & 0xFFu)) * kFnvPrime;
      hs[i + 1] = mix(h);
    }
  }

  std::vector<analysis::CarryState> lanes(count, base_);
  std::vector<std::uint32_t> pending;  // lanes advancing this stage
  // Followers adopt a leader lane's freshly advanced state instead of
  // recomputing the shared prefix; leaders are found by mixed hash with
  // a key-bytes check, so a 64-bit collision degrades to duplicate work,
  // never to a wrong adoption.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> followers;
  std::unordered_map<std::uint64_t, std::uint32_t> leaders;

  for (std::size_t d = 0; d + 1 < n; ++d) {
    pending.clear();
    followers.clear();
    leaders.clear();
    for (std::size_t l = 0; l < count; ++l) {
      const std::string_view key(keys.data() + l * n, d + 1);
      const std::uint64_t hash = hashes[l * (n + 1) + d + 1];
      if (capacity_ > 0) {
        const std::uint32_t slot = find_slot(key, hash);
        if (slot != kNil) {
          ++stats_.hits;
          touch(slot);
          lanes[l] = slots_[slot].carry;
          continue;
        }
        ++stats_.misses;
        const auto [it, inserted] =
            leaders.try_emplace(hash, static_cast<std::uint32_t>(l));
        if (!inserted &&
            std::string_view(keys.data() + it->second * n, d + 1) == key) {
          followers.emplace_back(static_cast<std::uint32_t>(l), it->second);
          continue;
        }
      }
      pending.push_back(static_cast<std::uint32_t>(l));
    }
    // Each pending lane advances through stage d: the advance_stage call
    // carry_after makes.
    const analysis::OperandWeights& w = weights_[d];
    for (const std::uint32_t l : pending) {
      lanes[l] = analysis::advance_stage(mkls_[chains[l][d]], w, lanes[l]);
      if (capacity_ > 0) {
        insert_prefix(std::string_view(keys.data() + l * n, d + 1),
                      hashes[l * (n + 1) + d + 1], lanes[l]);
      }
    }
    stats_.stages_computed += pending.size();
    batch_stats_.lane_stages += pending.size();
    for (const auto& [follower, leader] : followers) {
      lanes[follower] = lanes[leader];
    }
  }

  // Final stage, all lanes together: Equation 12, then the last carry
  // advance — the exact call sequence of evaluate() per lane.
  const analysis::OperandWeights& w = weights_[n - 1];
  for (std::size_t l = 0; l < count; ++l) {
    const analysis::MklMatrices& last = mkls_[chains[l][n - 1]];
    results[l].p_success = prob::require_probability(
        analysis::final_success(last, w, lanes[l]), "ChainEvaluator P(Succ)");
    results[l].p_error = 1.0 - results[l].p_success;
    results[l].final_carry = analysis::advance_stage(last, w, lanes[l]);
  }
  stats_.stages_computed += count;
  batch_stats_.lane_stages += count;
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
  slots_.clear();
  key_pool_.clear();
  table_.clear();
  live_slots_ = 0;
  lru_head_ = kNil;
  lru_tail_ = kNil;
  pmf_index_.clear();
  pmf_lru_.clear();
  pmf_bytes_ = 0;
}

}  // namespace sealpaa::engine
