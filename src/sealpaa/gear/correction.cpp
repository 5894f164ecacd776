#include "sealpaa/gear/correction.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

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

// A carry pattern holding mass, within one failure count.
struct Mass {
  std::uint64_t state = 0;
  double mass = 0.0;
};

// One addend of a step: the pattern it lands on and its place in the
// order the step adds.
struct Term {
  std::uint64_t state = 0;
  std::size_t order = 0;
  double mass = 0.0;
};

// Sums `terms` per pattern, each pattern's terms in their order and from
// 0.0, into `out` in ascending pattern order; patterns whose sum is 0
// are left out.
void collect(std::vector<Term>& terms, std::vector<Mass>& out) {
  std::sort(terms.begin(), terms.end(), [](const Term& a, const Term& b) {
    return a.state != b.state ? a.state < b.state : a.order < b.order;
  });
  for (std::size_t i = 0; i < terms.size();) {
    const std::uint64_t state = terms[i].state;
    double sum = 0.0;
    for (; i < terms.size() && terms[i].state == state; ++i) {
      sum += terms[i].mass;
    }
    if (sum != 0.0) out.push_back(Mass{state, sum});
  }
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
  // State bit 0 is the exact carry and bit 1 + w the carry of active
  // window w.  Every window opens with carry 0, so of the 2^(1 + live)
  // carry patterns only a few ever hold mass: each failure count keeps
  // the patterns that do, in ascending order, and every sum below adds
  // its terms in (failure count, pattern, operand) order.
  using Layer = std::vector<std::vector<Mass>>;  // [failures] -> patterns
  Layer layer{{Mass{0, 1.0}}};  // c_exact = 0 (cin = 0), zero failures
  Layer next;                   // the step's output, swapped in
  std::vector<int> active;      // block indices, in opening order
  std::vector<Term> terms;
  const auto start_next = [&](std::size_t counts) {
    next.resize(counts);
    for (std::vector<Mass>& states : next) states.clear();
  };

  for (int j = 0; j < n; ++j) {
    // Open windows starting at j (their carry bit is 0 in every state).
    for (int block = 1; block < k; ++block) {
      if (config.window_start(block) == j) active.push_back(block);
    }

    // Failure decision at a block's first result bit: carries differing
    // moves the mass to failures+1; the window then retires.  Dropping
    // its bit keeps the patterns in order, and failure count f collects
    // the f - 1 patterns that fail here before the f patterns that pass.
    for (std::size_t w = 0; w < active.size();) {
      if (config.result_start(active[w]) != j) {
        ++w;
        continue;
      }
      const std::size_t bit_pos = 1 + w;
      const std::uint64_t low_mask = (std::uint64_t{1} << bit_pos) - 1;
      const auto fails = [&](const Mass& m) {
        return (m.state & 1U) != ((m.state >> bit_pos) & 1U);
      };
      const auto reduced = [&](const Mass& m) {
        return ((m.state >> (bit_pos + 1)) << bit_pos) | (m.state & low_mask);
      };
      start_next(layer.size() + 1);
      for (std::size_t f = 0; f < next.size(); ++f) {
        terms.clear();
        if (f > 0) {
          for (const Mass& m : layer[f - 1]) {
            if (fails(m)) {
              terms.push_back(Term{reduced(m), terms.size(), m.mass});
            }
          }
        }
        if (f < layer.size()) {
          for (const Mass& m : layer[f]) {
            if (!fails(m)) {
              terms.push_back(Term{reduced(m), terms.size(), m.mass});
            }
          }
        }
        collect(terms, next[f]);
      }
      std::swap(layer, next);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(w));
    }

    // Advance every carry chain through bit j.
    const analysis::OperandWeights ab =
        analysis::operand_weights(profile.p_a(static_cast<std::size_t>(j)),
                                  profile.p_b(static_cast<std::size_t>(j)));
    start_next(layer.size());
    for (std::size_t f = 0; f < layer.size(); ++f) {
      terms.clear();
      for (const Mass& m : layer[f]) {
        for (std::size_t abi = 0; abi < 4; ++abi) {
          const int a_bit = static_cast<int>((abi >> 1) & 1U);
          const int b_bit = static_cast<int>(abi & 1U);
          std::uint64_t s2 = 0;
          const int c_exact = static_cast<int>(m.state & 1U);
          if (a_bit + b_bit + c_exact >= 2) s2 |= 1U;
          for (std::size_t w = 0; w < active.size(); ++w) {
            const int cw = static_cast<int>((m.state >> (1 + w)) & 1U);
            if (a_bit + b_bit + cw >= 2) s2 |= std::uint64_t{1} << (1 + w);
          }
          terms.push_back(Term{s2, terms.size(), m.mass * ab[abi]});
        }
      }
      collect(terms, next[f]);
    }
    std::swap(layer, next);
  }

  std::vector<double> distribution(static_cast<std::size_t>(k), 0.0);
  for (std::size_t f = 0; f < layer.size(); ++f) {
    for (const Mass& m : layer[f]) distribution[f] += m.mass;
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
