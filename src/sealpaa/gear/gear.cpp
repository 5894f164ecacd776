#include "sealpaa/gear/gear.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/analysis/mkl.hpp"
#include "sealpaa/gear/correction.hpp"

namespace sealpaa::gear {

namespace {

constexpr bool majority(bool a, bool b, bool c) noexcept {
  return (static_cast<int>(a) + static_cast<int>(b) + static_cast<int>(c)) >= 2;
}

}  // namespace

GearConfig::GearConfig(int n, int r, int p) : n_(n), r_(r), p_(p) {
  if (n < 1 || n > 63) {
    throw std::invalid_argument("GearConfig: N must be in [1, 63]");
  }
  if (r < 1 || p < 0) {
    throw std::invalid_argument("GearConfig: require R >= 1 and P >= 0");
  }
  if (r + p > n) {
    throw std::invalid_argument("GearConfig: sub-adder length L = R+P > N");
  }
}

int GearConfig::blocks() const noexcept {
  // Ragged tails are allowed: when R does not divide N - L the final
  // sub-adder's window is clamped to end at bit N and it contributes
  // the remaining (N - L) mod R result bits.
  if (n_ == l()) return 1;
  return (n_ - l() + r_ - 1) / r_ + 1;
}

int GearConfig::window_start(int block) const noexcept {
  return std::min(block * r_, n_ - l());
}

int GearConfig::result_start(int block) const noexcept {
  return block == 0 ? 0 : block * r_ + p_;
}

int GearConfig::overlap(int block) const noexcept {
  return result_start(block) - window_start(block);
}

multibit::BlockChainSpec GearConfig::to_blocks() const {
  std::vector<multibit::SubBlock> blocks_list;
  const int k = blocks();
  for (int i = 0; i < k; ++i) {
    const int result_width =
        (i + 1 < k ? result_start(i + 1) : n_) - result_start(i);
    blocks_list.push_back({result_width, overlap(i)});
  }
  return multibit::BlockChainSpec(std::move(blocks_list));
}

std::string GearConfig::describe() const {
  std::ostringstream out;
  out << "GeAr(N=" << n_ << ",R=" << r_ << ",P=" << p_ << ") L=" << l()
      << " k=" << blocks();
  return out.str();
}

GearAdder::GearAdder(GearConfig config)
    : config_(config), cell_(adders::accurate()) {}

GearAdder::GearAdder(GearConfig config, adders::AdderCell cell)
    : config_(config), cell_(std::move(cell)) {}

multibit::AddResult GearAdder::evaluate(std::uint64_t a,
                                        std::uint64_t b) const noexcept {
  const int n = config_.n();
  const int l = config_.l();
  const int k = config_.blocks();
  multibit::AddResult result;
  for (int block = 0; block < k; ++block) {
    const int start = config_.window_start(block);
    // Offset of the first contributed bit within the window: P for the
    // aligned blocks, more for a clamped final window.
    const int first_result = config_.overlap(block);
    bool carry = false;  // sub-adders restart with cin = 0
    for (int bit = 0; bit < l; ++bit) {
      const bool a_bit = ((a >> (start + bit)) & 1ULL) != 0;
      const bool b_bit = ((b >> (start + bit)) & 1ULL) != 0;
      const adders::BitPair out = cell_.output(a_bit, b_bit, carry);
      if (bit >= first_result) {
        result.sum_bits |= static_cast<std::uint64_t>(out.sum)
                           << (start + bit);
      }
      carry = out.carry;
    }
    if (block == k - 1) result.carry_out = carry;
  }
  result.sum_bits = multibit::mask_width(result.sum_bits,
                                         static_cast<std::size_t>(n));
  return result;
}

namespace {

// Index of the block whose result region contains bit j.
int producing_block(const GearConfig& config, int j) noexcept {
  if (j < config.l()) return 0;
  // The division is exact for aligned blocks; a clamped final block's
  // region extends past (k-1)R + P + R, hence the cap.
  return std::min((j - config.p()) / config.r(), config.blocks() - 1);
}

}  // namespace

GearAnalysis GearAnalyzer::analyze(const GearConfig& config,
                                   const multibit::InputProfile& profile) {
  if (static_cast<int>(profile.width()) != config.n()) {
    throw std::invalid_argument(
        "GearAnalyzer: profile width must equal the GeAr operand width");
  }
  const int n = config.n();
  const int k = config.blocks();
  GearAnalysis analysis;

  // ---- Exact per-block failure probabilities (independence model) ----
  // Block i >= 1 fails iff the exact carry into its window start is 1 and
  // all P overlap bits propagate (a XOR b).  The carry depends only on
  // lower bits, so the product below is exact per block.
  {
    double carry_one = 0.0;  // exact carry distribution, cin = 0
    std::vector<double> p_carry_at(static_cast<std::size_t>(n) + 1, 0.0);
    for (int j = 0; j < n; ++j) {
      p_carry_at[static_cast<std::size_t>(j)] = carry_one;
      const double pa = profile.p_a(static_cast<std::size_t>(j));
      const double pb = profile.p_b(static_cast<std::size_t>(j));
      // P(carry' = 1) = P(generate) + P(propagate) * P(carry = 1)
      carry_one = pa * pb + (pa * (1.0 - pb) + pb * (1.0 - pa)) * carry_one;
    }
    p_carry_at[static_cast<std::size_t>(n)] = carry_one;
    for (int block = 1; block < k; ++block) {
      const int start = config.window_start(block);
      double failure = p_carry_at[static_cast<std::size_t>(start)];
      // The overlap is P for aligned blocks and R+P minus the remaining
      // result width for a clamped final window.
      for (int j = start; j < config.result_start(block); ++j) {
        const double pa = profile.p_a(static_cast<std::size_t>(j));
        const double pb = profile.p_b(static_cast<std::size_t>(j));
        failure *= pa * (1.0 - pb) + pb * (1.0 - pa);
      }
      analysis.block_failure.push_back(failure);
    }
    double p_all_ok = 1.0;
    for (double f : analysis.block_failure) p_all_ok *= 1.0 - f;
    analysis.p_error_independent_approx = 1.0 - p_all_ok;
  }

  // GeAr errs exactly when some block fails: a block whose window carry
  // matches the exact carry at its first result bit keeps matching to
  // the end of its window, carry-out included.
  analysis.p_error_sum_only =
      1.0 - correction_cycle_distribution(config, profile)[0];
  analysis.p_error_exact_dp = analysis.p_error_sum_only;
  return analysis;
}

GearAnalysis GearAnalyzer::analyze_with_cell(
    const GearConfig& config, const adders::AdderCell& cell,
    const multibit::InputProfile& profile) {
  if (static_cast<int>(profile.width()) != config.n()) {
    throw std::invalid_argument(
        "GearAnalyzer::analyze_with_cell: profile width must equal N");
  }
  const int n = config.n();
  const int k = config.blocks();

  // Generalized joint DP: every live window carries a cell-driven carry
  // (block 0 included — with an approximate cell its chain deviates from
  // the exact one), and the result-bit check compares the cell's sum
  // against the exact sum *per (a, b) combination* during the update.
  std::vector<int> active;
  std::vector<double> state(2, 0.0);
  state[0] = 1.0;  // exact carry 0, no windows yet

  const auto state_bits = [&]() {
    return 1 + static_cast<int>(active.size());
  };

  for (int j = 0; j < n; ++j) {
    for (int block = 0; block < k; ++block) {
      if (config.window_start(block) == j) {
        active.push_back(block);
        state.resize(1ULL << state_bits(), 0.0);
      }
    }

    const int producer = producing_block(config, j);
    const auto it = std::find(active.begin(), active.end(), producer);
    const std::size_t producer_bit =
        1 + static_cast<std::size_t>(it - active.begin());

    const analysis::OperandWeights ab =
        analysis::operand_weights(profile.p_a(static_cast<std::size_t>(j)),
                                  profile.p_b(static_cast<std::size_t>(j)));
    std::vector<double> next(state.size(), 0.0);
    for (std::size_t s = 0; s < state.size(); ++s) {
      if (state[s] == 0.0) continue;
      const bool c_exact = (s & 1U) != 0;
      for (std::size_t abi = 0; abi < 4; ++abi) {
        const bool a = (abi & 2U) != 0;
        const bool b = (abi & 1U) != 0;
        // Result-bit check at position j.
        const bool cw = ((s >> producer_bit) & 1U) != 0;
        const adders::BitPair cell_out = cell.output(a, b, cw);
        const bool exact_sum = (a != b) ? !c_exact : c_exact;
        if (cell_out.sum != exact_sum) continue;  // error path dropped
        // Advance all carries.
        std::size_t s2 = 0;
        if (majority(a, b, c_exact)) s2 |= 1U;
        for (std::size_t w = 0; w < active.size(); ++w) {
          const bool cw_in = ((s >> (1 + w)) & 1U) != 0;
          if (cell.output(a, b, cw_in).carry) s2 |= 1ULL << (1 + w);
        }
        next[s2] += state[s] * ab[abi];
      }
    }
    state = std::move(next);

    for (std::size_t w = 0; w < active.size();) {
      const int block = active[w];
      const int last_bit = config.window_start(block) + config.l() - 1;
      if (last_bit == j && block != k - 1) {
        std::vector<double> reduced(state.size() / 2, 0.0);
        for (std::size_t s = 0; s < state.size(); ++s) {
          const std::size_t low = s & ((1ULL << (1 + w)) - 1ULL);
          const std::size_t high = (s >> (2 + w)) << (1 + w);
          reduced[high | low] += state[s];
        }
        state = std::move(reduced);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(w));
      } else {
        ++w;
      }
    }
  }

  std::size_t final_carry_bit = 0;
  if (!active.empty()) {
    const auto last = std::find(active.begin(), active.end(), k - 1);
    final_carry_bit = 1 + static_cast<std::size_t>(last - active.begin());
  }
  double ok_mass = 0.0;
  double ok_mass_with_carry = 0.0;
  for (std::size_t s = 0; s < state.size(); ++s) {
    ok_mass += state[s];
    bool carry_matches = true;
    if (final_carry_bit != 0) {
      const bool c_exact = (s & 1U) != 0;
      const bool c_window = ((s >> final_carry_bit) & 1U) != 0;
      carry_matches = (c_window == c_exact);
    }
    if (carry_matches) ok_mass_with_carry += state[s];
  }
  GearAnalysis result;
  result.p_error_sum_only = 1.0 - ok_mass;
  result.p_error_exact_dp = 1.0 - ok_mass_with_carry;
  return result;
}

sim::ErrorMetrics GearAnalyzer::exhaustive_with_cell(
    const GearConfig& config, const adders::AdderCell& cell,
    std::size_t max_width) {
  const std::size_t n = static_cast<std::size_t>(config.n());
  if (n > max_width) {
    throw std::invalid_argument(
        "GearAnalyzer::exhaustive_with_cell: width exceeds the guard");
  }
  GearAdder adder{config, cell};
  sim::ErrorMetrics metrics;
  const std::uint64_t limit = 1ULL << n;
  for (std::uint64_t a = 0; a < limit; ++a) {
    for (std::uint64_t b = 0; b < limit; ++b) {
      const multibit::AddResult approx = adder.evaluate(a, b);
      const multibit::AddResult exact = multibit::exact_add(a, b, false, n);
      metrics.add(approx.value(n), exact.value(n),
                  approx.value(n) == exact.value(n));
    }
  }
  return metrics;
}

sim::ErrorMetrics GearAnalyzer::exhaustive(const GearConfig& config,
                                           std::size_t max_width) {
  return exhaustive_with_cell(config, adders::accurate(), max_width);
}

}  // namespace sealpaa::gear
