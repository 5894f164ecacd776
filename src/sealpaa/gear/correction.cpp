#include "sealpaa/gear/correction.hpp"

#include <algorithm>
#include <stdexcept>

#include "sealpaa/analysis/mkl.hpp"

namespace sealpaa::gear {

namespace {

// Carry into bit position `j` of the exact sum a + b (cin = 0).
bool exact_carry_into(std::uint64_t a, std::uint64_t b, int j) noexcept {
  if (j <= 0) return false;
  const std::uint64_t mask =
      j >= 64 ? ~0ULL : ((1ULL << j) - 1ULL);
  const std::uint64_t low = (a & mask) + (b & mask);
  return ((low >> j) & 1ULL) != 0;
}

}  // namespace

std::vector<int> GearCorrector::detect(std::uint64_t a,
                                       std::uint64_t b) const {
  std::vector<int> failing;
  for (int block = 1; block < config_.blocks(); ++block) {
    const int start = config_.window_start(block);
    // Per-block overlap width: P for aligned blocks, larger for a
    // clamped final window.
    const int p = config_.overlap(block);
    // Window-internal carry into the first result bit (cin = 0 over the
    // overlap bits)...
    const std::uint64_t overlap_mask =
        p == 0 ? 0ULL : ((1ULL << p) - 1ULL);
    const std::uint64_t wa = (a >> start) & overlap_mask;
    const std::uint64_t wb = (b >> start) & overlap_mask;
    const bool window_carry = p == 0 ? false : (((wa + wb) >> p) & 1ULL) != 0;
    // ...versus the true carry into the same position.
    const bool true_carry = exact_carry_into(a, b, start + p);
    if (window_carry != true_carry) failing.push_back(block);
  }
  return failing;
}

CorrectedResult GearCorrector::evaluate(std::uint64_t a,
                                        std::uint64_t b) const {
  CorrectedResult result;
  result.failing_blocks = static_cast<int>(detect(a, b).size());
  result.total_cycles = 1 + result.failing_blocks;
  // Injecting every missed carry yields the exact sum.
  result.outputs = multibit::exact_add(
      a, b, false, static_cast<std::size_t>(config_.n()));
  return result;
}

std::vector<double> correction_cycle_distribution(
    const GearConfig& config, const multibit::InputProfile& profile) {
  if (static_cast<int>(profile.width()) != config.n()) {
    throw std::invalid_argument(
        "correction_cycle_distribution: profile width must equal N");
  }
  const int n = config.n();
  const int k = config.blocks();

  // DP over (exact carry, active window carries) x failure count.  A
  // block's window only needs tracking from its start to its first
  // result bit (the failure event is decided there), so at most
  // ceil(P/R) + 1 windows are live at once.  Only failure counts up to
  // the number of blocks decided so far are held: each decision adds one.
  struct Layer {
    std::vector<int> active;     // block indices, in opening order
    std::vector<std::vector<double>> mass;  // [failures][state bits]
  };
  Layer layer;
  layer.mass.assign(1, std::vector<double>(2, 0.0));
  layer.mass[0][0] = 1.0;  // c_exact = 0 (cin = 0), zero failures

  const auto state_bits = [&]() {
    return 1 + static_cast<int>(layer.active.size());
  };

  for (int j = 0; j < n; ++j) {
    // Open windows starting at j.
    for (int block = 1; block < k; ++block) {
      if (config.window_start(block) == j) {
        layer.active.push_back(block);
        for (auto& states : layer.mass) {
          states.resize(1ULL << state_bits(), 0.0);
        }
      }
    }

    // Failure decision at a block's first result bit: carries differing
    // moves the mass to failures+1; the window then retires.
    for (std::size_t w = 0; w < layer.active.size();) {
      const int block = layer.active[w];
      if (config.result_start(block) != j) {
        ++w;
        continue;
      }
      const std::size_t bit_pos = 1 + w;
      std::vector<std::vector<double>> next_mass(
          layer.mass.size() + 1,
          std::vector<double>(layer.mass[0].size() / 2, 0.0));
      for (std::size_t f = 0; f < layer.mass.size(); ++f) {
        for (std::size_t s = 0; s < layer.mass[f].size(); ++s) {
          const double m = layer.mass[f][s];
          if (m == 0.0) continue;
          const bool c_exact = (s & 1U) != 0;
          const bool c_window = ((s >> bit_pos) & 1U) != 0;
          const std::size_t low = s & ((1ULL << bit_pos) - 1ULL);
          const std::size_t high = (s >> (bit_pos + 1)) << bit_pos;
          const std::size_t reduced = high | low;
          const std::size_t f2 = f + (c_exact != c_window ? 1 : 0);
          next_mass[f2][reduced] += m;
        }
      }
      layer.mass = std::move(next_mass);
      layer.active.erase(layer.active.begin() +
                         static_cast<std::ptrdiff_t>(w));
    }

    // Advance every carry chain through bit j.
    const analysis::OperandWeights ab =
        analysis::operand_weights(profile.p_a(static_cast<std::size_t>(j)),
                                  profile.p_b(static_cast<std::size_t>(j)));
    for (auto& states : layer.mass) {
      std::vector<double> next(states.size(), 0.0);
      for (std::size_t s = 0; s < states.size(); ++s) {
        if (states[s] == 0.0) continue;
        for (std::size_t abi = 0; abi < 4; ++abi) {
          const int a_bit = static_cast<int>((abi >> 1) & 1U);
          const int b_bit = static_cast<int>(abi & 1U);
          std::size_t s2 = 0;
          const int c_exact = static_cast<int>(s & 1U);
          if (a_bit + b_bit + c_exact >= 2) s2 |= 1U;
          for (std::size_t w = 0; w < layer.active.size(); ++w) {
            const int cw = static_cast<int>((s >> (1 + w)) & 1U);
            if (a_bit + b_bit + cw >= 2) s2 |= 1ULL << (1 + w);
          }
          next[s2] += states[s] * ab[abi];
        }
      }
      states = std::move(next);
    }
  }

  std::vector<double> distribution(static_cast<std::size_t>(k), 0.0);
  for (std::size_t f = 0; f < layer.mass.size(); ++f) {
    for (double m : layer.mass[f]) distribution[f] += m;
  }
  return distribution;
}

double expected_recovery_cycles(const std::vector<double>& distribution) {
  double expectation = 0.0;
  for (std::size_t c = 0; c < distribution.size(); ++c) {
    expectation += static_cast<double>(c) * distribution[c];
  }
  return expectation;
}

}  // namespace sealpaa::gear
