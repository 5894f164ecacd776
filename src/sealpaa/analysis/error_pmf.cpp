#include "sealpaa/analysis/error_pmf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sealpaa/analysis/mkl.hpp"
#include "sealpaa/prob/kahan.hpp"
#include "sealpaa/sim/metrics.hpp"  // header-only worse_error / error_magnitude

namespace sealpaa::analysis {

namespace {

constexpr std::size_t joint_index(bool ca, bool ce) noexcept {
  return (static_cast<std::size_t>(ca) << 1) | static_cast<std::size_t>(ce);
}

// Unsigned value span (max - min); well-defined for any int64 pair.
std::uint64_t value_span(std::int64_t min, std::int64_t max) noexcept {
  return static_cast<std::uint64_t>(max) - static_cast<std::uint64_t>(min);
}

// The most runs the k-way merge's linear head scan serves; a mixture
// with more runs goes to the gather + sort.
constexpr std::size_t kMaxMergeRuns = 16;

// Adjacent live terms that read one segment at one offset form a run:
// one cursor walk serves all of their scales.
bool same_run(const ErrorPmf::Term& a, const ErrorPmf::Term& b) noexcept {
  return a.pmf == b.pmf && a.offset == b.offset;
}

// A merge cursor: the run's next entry, its shifted value, and the live
// terms [first, last) whose scales it carries.
struct Run {
  const ErrorPmf::Entry* next = nullptr;
  const ErrorPmf::Entry* end = nullptr;
  std::int64_t head = 0;
  std::int64_t offset = 0;
  std::size_t first = 0;
  std::size_t last = 0;
};

[[noreturn]] void throw_support_overflow(std::size_t support,
                                         std::size_t max_support) {
  throw std::length_error("ErrorPmf: support " + std::to_string(support) +
                          " exceeds PmfOptions::max_support " +
                          std::to_string(max_support));
}

}  // namespace

ErrorPmf ErrorPmf::point_mass(std::int64_t value, double probability) {
  return from_entries({Entry{value, probability}});
}

ErrorPmf ErrorPmf::from_entries(Entries entries) {
  for (const Entry& entry : entries) {
    if (!(entry.probability >= 0.0)) {
      throw std::invalid_argument(
          "ErrorPmf: probabilities must be non-negative finite");
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.value < b.value;
                   });
  Entries merged;
  merged.reserve(entries.size());
  std::size_t i = 0;
  while (i < entries.size()) {
    const std::int64_t value = entries[i].value;
    prob::KahanSum mass;
    for (; i < entries.size() && entries[i].value == value; ++i) {
      mass.add(entries[i].probability);
    }
    if (mass.value() > 0.0) merged.push_back(Entry{value, mass.value()});
  }
  return ErrorPmf(std::move(merged));
}

ErrorPmf ErrorPmf::mixture(std::span<const Term> terms,
                           const PmfOptions& options) {
  // Live terms in caller order — every accumulator below adds a value's
  // contributions in exactly that order.
  std::vector<Term> live;
  live.reserve(terms.size());
  std::size_t run_count = 0;
  std::size_t contributions = 0;
  std::size_t widest = 0;
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
  for (const Term& term : terms) {
    if (term.pmf == nullptr || term.pmf->empty() || term.scale == 0.0) {
      continue;
    }
    if (!(term.scale > 0.0)) {
      throw std::invalid_argument("ErrorPmf::mixture: scales must be >= 0");
    }
    if (live.empty() || !same_run(live.back(), term)) ++run_count;
    live.push_back(term);
    min = std::min(min, term.pmf->min_value() + term.offset);
    max = std::max(max, term.pmf->max_value() + term.offset);
    contributions += term.pmf->support_size();
    widest = std::max(widest, term.pmf->support_size());
  }
  if (live.empty()) return ErrorPmf{};

  // Each accumulator costs what it touches: the dense array one slot
  // per value of the span, the merge one scan of the run heads per
  // output value, the sort O(contributions log contributions).  The
  // dense array pays once the span is below the contribution count, the
  // merge while the runs are few.  All three add a value's
  // contributions in term order, so the choice never changes a bit.
  const std::uint64_t span = value_span(min, max);
  Entries out;
  if (run_count > 1 && span < contributions) {
    // Dense compensated accumulation over the contiguous span.  The
    // output is sized exactly: prefix caches keep it for a long time.
    std::vector<prob::KahanSum> slots(static_cast<std::size_t>(span) + 1);
    for (const Term& term : live) {
      for (const Entry& entry : term.pmf->entries()) {
        const std::uint64_t slot = value_span(min, entry.value + term.offset);
        slots[static_cast<std::size_t>(slot)].add(term.scale *
                                                  entry.probability);
      }
    }
    out.reserve(static_cast<std::size_t>(
        std::count_if(slots.begin(), slots.end(),
                      [](const prob::KahanSum& slot) {
                        return slot.value() > 0.0;
                      })));
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const double mass = slots[s].value();
      if (mass > 0.0) {
        out.push_back(Entry{min + static_cast<std::int64_t>(s), mass});
      }
    }
  } else if (run_count <= kMaxMergeRuns) {
    // k-way merge of the already-sorted shifted runs: a linear scan over
    // the run heads finds the next value, then every run at that value
    // adds its scaled probability once per scale, runs in caller order.
    out.reserve(widest);
    std::array<Run, kMaxMergeRuns> runs;
    std::size_t active = 0;
    for (std::size_t t = 0; t < live.size(); ++t) {
      if (t > 0 && same_run(live[t - 1], live[t])) {
        ++runs[active - 1].last;
        continue;
      }
      const Entries& entries = live[t].pmf->entries();
      runs[active++] = Run{entries.data(), entries.data() + entries.size(),
                           entries.front().value + live[t].offset,
                           live[t].offset, t, t + 1};
    }
    while (active > 0) {
      std::int64_t value = runs[0].head;
      for (std::size_t r = 1; r < active; ++r) {
        value = std::min(value, runs[r].head);
      }
      prob::KahanSum mass;
      std::size_t kept = 0;
      for (std::size_t r = 0; r < active; ++r) {
        Run run = runs[r];
        if (run.head == value) {
          const double probability = run.next->probability;
          for (std::size_t t = run.first; t < run.last; ++t) {
            mass.add(live[t].scale * probability);
          }
          if (++run.next == run.end) continue;  // exhausted
          run.head = run.next->value + run.offset;
        }
        runs[kept++] = run;
      }
      active = kept;
      if (mass.value() > 0.0) out.push_back(Entry{value, mass.value()});
    }
  } else {
    // Many scattered runs: gather every shifted contribution,
    // stable-sort by value (ties keep term order), merge with
    // compensation.
    out.reserve(widest);
    Entries gathered;
    gathered.reserve(contributions);
    for (const Term& term : live) {
      for (const Entry& entry : term.pmf->entries()) {
        gathered.push_back(Entry{entry.value + term.offset,
                                 term.scale * entry.probability});
      }
    }
    std::stable_sort(gathered.begin(), gathered.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.value < b.value;
                     });
    std::size_t i = 0;
    while (i < gathered.size()) {
      const std::int64_t value = gathered[i].value;
      prob::KahanSum mass;
      for (; i < gathered.size() && gathered[i].value == value; ++i) {
        mass.add(gathered[i].probability);
      }
      if (mass.value() > 0.0) out.push_back(Entry{value, mass.value()});
    }
  }
  if (out.size() > options.max_support) {
    throw_support_overflow(out.size(), options.max_support);
  }
  return ErrorPmf(std::move(out));
}

double ErrorPmf::total_mass() const noexcept {
  prob::KahanSum mass;
  for (const Entry& entry : entries_) mass.add(entry.probability);
  return mass.value();
}

double ErrorPmf::probability_of(std::int64_t value) const noexcept {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), value,
      [](const Entry& entry, std::int64_t v) { return entry.value < v; });
  if (it != entries_.end() && it->value == value) return it->probability;
  return 0.0;
}

double ErrorPmf::error_rate() const noexcept {
  prob::KahanSum mass;
  for (const Entry& entry : entries_) {
    if (entry.value != 0) mass.add(entry.probability);
  }
  return mass.value();
}

double ErrorPmf::mean_error() const noexcept {
  prob::KahanSum sum;
  for (const Entry& entry : entries_) {
    sum.add(entry.probability * static_cast<double>(entry.value));
  }
  return sum.value();
}

double ErrorPmf::mean_error_distance() const noexcept {
  prob::KahanSum sum;
  for (const Entry& entry : entries_) {
    sum.add(entry.probability *
            static_cast<double>(sim::error_magnitude(entry.value)));
  }
  return sum.value();
}

double ErrorPmf::mean_squared_error() const noexcept {
  prob::KahanSum sum;
  for (const Entry& entry : entries_) {
    const double magnitude =
        static_cast<double>(sim::error_magnitude(entry.value));
    sum.add(entry.probability * magnitude * magnitude);
  }
  return sum.value();
}

std::int64_t ErrorPmf::worst_case_error() const noexcept {
  std::int64_t worst = 0;
  for (const Entry& entry : entries_) {
    if (sim::worse_error(entry.value, worst)) worst = entry.value;
  }
  return worst;
}

double ErrorPmf::entropy_bits() const noexcept {
  prob::KahanSum bits;
  for (const Entry& entry : entries_) {
    if (entry.probability > 0.0) {
      bits.add(-entry.probability * std::log2(entry.probability));
    }
  }
  return std::max(0.0, bits.value());
}

double ErrorPmf::psnr_db(std::size_t width) const noexcept {
  const double mse = mean_squared_error();
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  const double peak = std::pow(2.0, static_cast<double>(width)) - 1.0;
  return 10.0 * std::log10(peak * peak / mse);
}

ErrorPmf::Entries ErrorPmf::top_mass_points(std::size_t k) const {
  Entries ranked = entries_;
  const std::size_t keep = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                    ranked.end(), [](const Entry& a, const Entry& b) {
                      if (a.probability != b.probability) {
                        return a.probability > b.probability;
                      }
                      return a.value < b.value;
                    });
  ranked.resize(keep);
  return ranked;
}

ErrorPmfState make_error_pmf_state(double p_cin) {
  ErrorPmfState state;
  if (p_cin < 1.0) {
    state.joint[joint_index(false, false)] =
        ErrorPmf::point_mass(0, 1.0 - p_cin);
  }
  if (p_cin > 0.0) {
    state.joint[joint_index(true, true)] = ErrorPmf::point_mass(0, p_cin);
  }
  return state;
}

ErrorPmfState next_error_pmf_state(const ErrorPmfState& state,
                                   const adders::AdderCell& cell, double p_a,
                                   double p_b, const PmfOptions& options) {
  // Stage 62 would put the carry-out weight at 2^63, outside the signed
  // error domain; the chain layer allows width 63 but the PMF does not.
  if (state.stage >= 62) {
    throw std::length_error(
        "advance_error_pmf: error-PMF propagation supports widths <= 62");
  }
  const adders::AdderCell::Rows& exact = adders::AdderCell::accurate_rows();
  const OperandWeights ab = operand_weights(p_a, p_b);
  const std::int64_t weight = std::int64_t{1} << state.stage;

  // Segmented convolution: each (source pair, operand combination)
  // contributes its segment shifted by d_i = (s_approx - s_exact) * 2^i
  // to exactly one destination pair, so a destination collects at most
  // 4 x 4 terms.
  std::array<std::array<ErrorPmf::Term, 16>, 4> terms;
  std::array<std::size_t, 4> counts{};
  for (std::size_t src = 0; src < 4; ++src) {
    const ErrorPmf& segment = state.joint[src];
    if (segment.empty()) continue;
    const bool ca = (src & 2U) != 0;
    const bool ce = (src & 1U) != 0;
    for (std::size_t abi = 0; abi < 4; ++abi) {
      if (ab[abi] == 0.0) continue;
      const bool a = (abi & 2U) != 0;
      const bool b = (abi & 1U) != 0;
      const adders::BitPair approx_out =
          cell.rows()[adders::AdderCell::row_index(a, b, ca)];
      const adders::BitPair exact_out =
          exact[adders::AdderCell::row_index(a, b, ce)];
      const std::int64_t delta =
          (static_cast<std::int64_t>(approx_out.sum) -
           static_cast<std::int64_t>(exact_out.sum)) *
          weight;
      const std::size_t dst =
          joint_index(approx_out.carry, exact_out.carry);
      terms[dst][counts[dst]++] = ErrorPmf::Term{&segment, ab[abi], delta};
    }
  }

  ErrorPmfState next;
  for (std::size_t dst = 0; dst < 4; ++dst) {
    next.joint[dst] = ErrorPmf::mixture(
        std::span(terms[dst]).first(counts[dst]), options);
  }
  next.stage = state.stage + 1;
  return next;
}

void advance_error_pmf(ErrorPmfState& state, const adders::AdderCell& cell,
                       double p_a, double p_b, const PmfOptions& options) {
  state = next_error_pmf_state(state, cell, p_a, p_b, options);
}

ErrorPmf finalize_error_pmf(const ErrorPmfState& state,
                            const PmfOptions& options) {
  const std::int64_t weight = std::int64_t{1} << state.stage;
  std::array<ErrorPmf::Term, 4> terms;
  std::size_t count = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    if (state.joint[j].empty()) continue;
    const std::int64_t ca = (j & 2U) != 0 ? 1 : 0;
    const std::int64_t ce = (j & 1U) != 0 ? 1 : 0;
    terms[count++] =
        ErrorPmf::Term{&state.joint[j], 1.0, (ca - ce) * weight};
  }
  return ErrorPmf::mixture(std::span(terms).first(count), options);
}

ErrorPmf propagate_error_pmf(const multibit::AdderChain& chain,
                             const multibit::InputProfile& profile,
                             const PmfOptions& options) {
  if (chain.width() != profile.width()) {
    throw std::invalid_argument(
        "propagate_error_pmf: chain and profile widths differ");
  }
  ErrorPmfState state = make_error_pmf_state(profile.p_cin());
  for (std::size_t i = 0; i < chain.width(); ++i) {
    advance_error_pmf(state, chain.stage(i), profile.p_a(i), profile.p_b(i),
                      options);
  }
  return finalize_error_pmf(state, options);
}

}  // namespace sealpaa::analysis
