#include "sealpaa/analysis/block_error.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "sealpaa/analysis/mkl.hpp"
#include "sealpaa/prob/kahan.hpp"

namespace sealpaa::analysis {

namespace {

constexpr bool majority(bool a, bool b, bool c) noexcept {
  return (static_cast<int>(a) + static_cast<int>(b) + static_cast<int>(c)) >=
         2;
}

/// Closed-form per-block mismatch marginals (window_mismatch of every
/// predicted block) and the independence approximation over them.
void fill_marginals(const multibit::BlockChainSpec& spec,
                    const multibit::InputProfile& profile,
                    BlockAnalysis& analysis) {
  const std::vector<double> carry_at =
      exact_carry_probabilities(profile, profile.p_cin());
  analysis.block_mismatch.assign(
      static_cast<std::size_t>(spec.block_count()), 0.0);
  double p_all_ok = 1.0;
  for (int i = 1; i < spec.block_count(); ++i) {
    const double mismatch = window_mismatch(
        profile, carry_at, spec.window_start(i), spec.result_start(i));
    analysis.block_mismatch[static_cast<std::size_t>(i)] = mismatch;
    p_all_ok *= 1.0 - mismatch;
  }
  analysis.p_error_independent_approx = 1.0 - p_all_ok;
}

/// Exact error rate: joint DP over (exact carry, live window carries),
/// dropping the mass of paths whose predicted carry disagrees with the
/// exact carry at a block's first result bit.  A window only has to
/// live until that check: once the carries agree they advance through
/// the same majority recurrence on the same bits and stay equal for the
/// whole block (carry-out included), so the surviving mass is exactly
/// P(no error).
double exact_error_rate(const multibit::BlockChainSpec& spec,
                        const multibit::InputProfile& profile) {
  const int n = spec.n();
  const int k = spec.block_count();
  std::vector<int> active;  // block indices with a tracked window carry
  std::vector<double> state(2, 0.0);
  state[0] = 1.0 - profile.p_cin();  // bit 0: exact carry
  state[1] = profile.p_cin();

  for (int j = 0; j < n; ++j) {
    // Open windows starting at j (block 0 shares the exact carry chain
    // and is never tracked).  The new carry bit is appended as the most
    // significant state bit, initialised to 0, so existing masses keep
    // their encoding.
    for (int block = 1; block < k; ++block) {
      if (spec.window_start(block) == j) {
        active.push_back(block);
        state.resize(std::size_t{2} << active.size(), 0.0);
      }
    }

    // Check-and-retire at the producing block's first result bit: drop
    // mismatched paths, then marginalise the now-redundant window bit.
    for (std::size_t w = 0; w < active.size();) {
      if (spec.result_start(active[w]) != j) {
        ++w;
        continue;
      }
      std::vector<double> reduced(state.size() / 2, 0.0);
      for (std::size_t s = 0; s < state.size(); ++s) {
        const bool c_exact = (s & 1U) != 0;
        const bool c_window = ((s >> (1 + w)) & 1U) != 0;
        if (c_window != c_exact) continue;  // error path dropped
        const std::size_t low = s & ((std::size_t{1} << (1 + w)) - 1);
        const std::size_t high = (s >> (2 + w)) << (1 + w);
        reduced[high | low] += state[s];
      }
      state = std::move(reduced);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(w));
    }

    // Advance every carry chain through bit j.
    const OperandWeights ab =
        operand_weights(profile.p_a(static_cast<std::size_t>(j)),
                        profile.p_b(static_cast<std::size_t>(j)));
    std::vector<double> next(state.size(), 0.0);
    for (std::size_t s = 0; s < state.size(); ++s) {
      if (state[s] == 0.0) continue;
      for (std::size_t abi = 0; abi < 4; ++abi) {
        const bool a = (abi & 2U) != 0;
        const bool b = (abi & 1U) != 0;
        std::size_t s2 = 0;
        if (majority(a, b, (s & 1U) != 0)) s2 |= 1U;
        for (std::size_t w = 0; w < active.size(); ++w) {
          if (majority(a, b, ((s >> (1 + w)) & 1U) != 0)) {
            s2 |= std::size_t{1} << (1 + w);
          }
        }
        next[s2] += state[s] * ab[abi];
      }
    }
    state = std::move(next);
  }

  // Every window was retired at its result start (result_start(i) < n),
  // so the surviving mass is spread over the exact-carry bit only.
  prob::KahanSum ok_mass;
  for (const double mass : state) ok_mass.add(mass);
  return std::clamp(1.0 - ok_mass.value(), 0.0, 1.0);
}

/// Exact signed-error PMF: same joint-carry sweep, but instead of
/// dropping mismatched paths each state carries the conditioned error
/// PMF, and every result bit of a mispredicted block mixes in its delta
/// (s_approx - s_exact) * 2^j.  Windows stay live through their whole
/// result region; the final block's carry survives to the end so the
/// carry-out difference can be folded in as (c_window - c_exact) * 2^N.
ErrorPmf exact_pmf(const multibit::BlockChainSpec& spec,
                   const multibit::InputProfile& profile,
                   const PmfOptions& options) {
  const int n = spec.n();
  const int k = spec.block_count();
  std::vector<int> active;
  std::vector<ErrorPmf> state(2);
  if (profile.p_cin() < 1.0) {
    state[0] = ErrorPmf::point_mass(0, 1.0 - profile.p_cin());
  }
  if (profile.p_cin() > 0.0) {
    state[1] = ErrorPmf::point_mass(0, profile.p_cin());
  }

  for (int j = 0; j < n; ++j) {
    for (int block = 1; block < k; ++block) {
      if (spec.window_start(block) == j) {
        active.push_back(block);
        state.resize(std::size_t{2} << active.size());
      }
    }

    const int producer = spec.producing_block(j);
    std::size_t producer_bit = 0;  // 0 = block 0, no tracked prediction
    if (producer >= 1) {
      const auto it = std::find(active.begin(), active.end(), producer);
      producer_bit = 1 + static_cast<std::size_t>(it - active.begin());
    }

    const OperandWeights ab =
        operand_weights(profile.p_a(static_cast<std::size_t>(j)),
                        profile.p_b(static_cast<std::size_t>(j)));
    std::vector<std::vector<ErrorPmf::Term>> terms(state.size());
    for (std::size_t s = 0; s < state.size(); ++s) {
      if (state[s].empty()) continue;
      const bool c_exact = (s & 1U) != 0;
      for (std::size_t abi = 0; abi < 4; ++abi) {
        const bool a = (abi & 2U) != 0;
        const bool b = (abi & 1U) != 0;
        std::int64_t delta = 0;
        if (producer_bit != 0) {
          const bool c_window = ((s >> producer_bit) & 1U) != 0;
          if (c_window != c_exact) {
            const bool approx_sum = a != b ? !c_window : c_window;
            delta = approx_sum ? (std::int64_t{1} << j)
                               : -(std::int64_t{1} << j);
          }
        }
        std::size_t s2 = 0;
        if (majority(a, b, c_exact)) s2 |= 1U;
        for (std::size_t w = 0; w < active.size(); ++w) {
          if (majority(a, b, ((s >> (1 + w)) & 1U) != 0)) {
            s2 |= std::size_t{1} << (1 + w);
          }
        }
        terms[s2].push_back(
            ErrorPmf::Term{&state[s], ab[abi], delta});
      }
    }
    std::vector<ErrorPmf> next(state.size());
    for (std::size_t s = 0; s < state.size(); ++s) {
      if (!terms[s].empty()) next[s] = ErrorPmf::mixture(terms[s], options);
    }
    state = std::move(next);

    // Retire windows whose last result bit was j (the final block stays
    // live so its carry-out can be folded below).
    for (std::size_t w = 0; w < active.size();) {
      const int block = active[w];
      if (spec.result_end(block) != j + 1 || block == k - 1) {
        ++w;
        continue;
      }
      std::vector<ErrorPmf> reduced(state.size() / 2);
      for (std::size_t s = 0; s < reduced.size(); ++s) {
        const std::size_t low = s & ((std::size_t{1} << (1 + w)) - 1);
        const std::size_t high = (s >> (1 + w)) << (2 + w);
        const std::size_t zero = high | low;
        const std::size_t one = zero | (std::size_t{1} << (1 + w));
        std::vector<ErrorPmf::Term> merge;
        if (!state[zero].empty()) {
          merge.push_back(ErrorPmf::Term{&state[zero], 1.0, 0});
        }
        if (!state[one].empty()) {
          merge.push_back(ErrorPmf::Term{&state[one], 1.0, 0});
        }
        if (!merge.empty()) reduced[s] = ErrorPmf::mixture(merge, options);
      }
      state = std::move(reduced);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(w));
    }
  }

  // Fold the carry-out difference and merge the surviving states.  With
  // a single block there is no tracked window and the carry-out is the
  // exact carry, so the offset is 0.
  std::size_t final_carry_bit = 0;
  if (!active.empty()) {
    const auto it = std::find(active.begin(), active.end(), k - 1);
    final_carry_bit = 1 + static_cast<std::size_t>(it - active.begin());
  }
  std::vector<ErrorPmf::Term> merge;
  for (std::size_t s = 0; s < state.size(); ++s) {
    if (state[s].empty()) continue;
    const int c_exact = static_cast<int>(s & 1U);
    const int c_window =
        final_carry_bit == 0
            ? c_exact
            : static_cast<int>((s >> final_carry_bit) & 1U);
    const std::int64_t offset =
        static_cast<std::int64_t>(c_window - c_exact) * (std::int64_t{1} << n);
    merge.push_back(ErrorPmf::Term{&state[s], 1.0, offset});
  }
  return ErrorPmf::mixture(merge, options);
}

}  // namespace

std::vector<double> exact_carry_probabilities(
    const multibit::InputProfile& profile, double p_cin) {
  const std::size_t n = profile.width();
  std::vector<double> carry_at(n + 1, 0.0);
  double carry_one = p_cin;
  for (std::size_t j = 0; j < n; ++j) {
    carry_at[j] = carry_one;
    const double pa = profile.p_a(j);
    const double pb = profile.p_b(j);
    // P(carry' = 1) = P(generate) + P(propagate) * P(carry = 1)
    carry_one = pa * pb + (pa * (1.0 - pb) + pb * (1.0 - pa)) * carry_one;
  }
  carry_at[n] = carry_one;
  return carry_at;
}

double window_mismatch(const multibit::InputProfile& profile,
                       const std::vector<double>& carry_at, int window_start,
                       int result_start) {
  double mismatch = carry_at[static_cast<std::size_t>(window_start)];
  for (int j = window_start; j < result_start; ++j) {
    const double pa = profile.p_a(static_cast<std::size_t>(j));
    const double pb = profile.p_b(static_cast<std::size_t>(j));
    mismatch *= pa * (1.0 - pb) + pb * (1.0 - pa);
  }
  return mismatch;
}

BlockAnalysis BlockErrorModel::analyze(const multibit::BlockChainSpec& spec,
                                       const multibit::InputProfile& profile,
                                       const BlockAnalysisOptions& options) {
  if (static_cast<int>(profile.width()) != spec.n()) {
    throw std::invalid_argument(
        "BlockErrorModel: profile width must equal the block-adder width");
  }
  BlockAnalysis analysis;
  fill_marginals(spec, profile, analysis);
  analysis.p_error = exact_error_rate(spec, profile);
  if (options.compute_pmf) {
    analysis.pmf = exact_pmf(spec, profile, options.pmf);
  }
  return analysis;
}

ErrorPmf BlockErrorModel::exhaustive_pmf(const multibit::BlockChainSpec& spec,
                                         const multibit::InputProfile& profile,
                                         std::size_t max_width) {
  const int n = spec.n();
  if (static_cast<int>(profile.width()) != n) {
    throw std::invalid_argument(
        "BlockErrorModel::exhaustive_pmf: profile width must equal the "
        "block-adder width");
  }
  if (static_cast<std::size_t>(n) > max_width) {
    throw std::invalid_argument(
        "BlockErrorModel::exhaustive_pmf: width " + std::to_string(n) +
        " exceeds the enumeration guard " + std::to_string(max_width));
  }
  const multibit::BlockAdder adder(spec);
  std::map<std::int64_t, prob::KahanSum> histogram;
  const std::uint64_t limit = std::uint64_t{1} << n;
  for (int cin = 0; cin < 2; ++cin) {
    const double p_cin_branch =
        cin == 1 ? profile.p_cin() : 1.0 - profile.p_cin();
    if (p_cin_branch == 0.0) continue;
    for (std::uint64_t a = 0; a < limit; ++a) {
      for (std::uint64_t b = 0; b < limit; ++b) {
        const auto approx = adder.evaluate(a, b, cin == 1);
        const auto exact =
            multibit::exact_add(a, b, cin == 1, static_cast<std::size_t>(n));
        const std::int64_t error =
            static_cast<std::int64_t>(
                approx.value(static_cast<std::size_t>(n))) -
            static_cast<std::int64_t>(
                exact.value(static_cast<std::size_t>(n)));
        histogram[error].add(profile.assignment_probability(a, b, cin == 1));
      }
    }
  }
  ErrorPmf::Entries entries;
  entries.reserve(histogram.size());
  for (const auto& [value, mass] : histogram) {
    entries.push_back({value, mass.value()});
  }
  return ErrorPmf::from_entries(std::move(entries));
}

}  // namespace sealpaa::analysis
