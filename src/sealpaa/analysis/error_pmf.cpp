#include "sealpaa/analysis/error_pmf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

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

// Stage 62 would put the carry-out weight at 2^63, outside the signed
// error domain; the chain layer allows width 63 but the PMF does not.
void check_stage(std::size_t stage) {
  if (stage >= 62) {
    throw std::length_error(
        "advance_error_pmf: error-PMF propagation supports widths <= 62");
  }
}

// One (source pair, operand combination) term of a stage's segmented
// convolution: segment `source`, scaled by the operand weight and
// shifted by d_i = (s_approx - s_exact) * 2^i.
struct StageTerm {
  std::size_t source = 0;
  double scale = 0.0;
  std::int64_t delta = 0;
};

// A stage's terms by destination pair.  Each (source pair, operand
// combination) reaches exactly one destination, so a destination
// collects at most 4 x 4 terms, in (source, operand) order — the order
// every accumulator adds them in.  Sources without mass and operand
// combinations of weight 0 contribute no term.
struct StageTerms {
  std::array<std::array<StageTerm, 16>, 4> terms;
  std::array<std::size_t, 4> counts{};
};

StageTerms stage_terms(const std::array<bool, 4>& has_mass,
                       const adders::AdderCell& cell, double p_a, double p_b,
                       std::size_t stage) {
  const adders::AdderCell::Rows& exact = adders::AdderCell::accurate_rows();
  const OperandWeights ab = operand_weights(p_a, p_b);
  const std::int64_t weight = std::int64_t{1} << stage;
  StageTerms out;
  for (std::size_t src = 0; src < 4; ++src) {
    if (!has_mass[src]) continue;
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
      out.terms[dst][out.counts[dst]++] = StageTerm{src, ab[abi], delta};
    }
  }
  return out;
}

// The carry-out fold of a finalize: pair j at scale 1, shifted by
// (ca - ce) * 2^stage.
std::int64_t carry_out_offset(std::size_t j, std::size_t stage) noexcept {
  const std::int64_t ca = (j & 2U) != 0 ? 1 : 0;
  const std::int64_t ce = (j & 1U) != 0 ? 1 : 0;
  return (ca - ce) * (std::int64_t{1} << stage);
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

double psnr_db_from_mse(std::size_t width, double mse) noexcept {
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  const double peak = std::pow(2.0, static_cast<double>(width)) - 1.0;
  return 10.0 * std::log10(peak * peak / mse);
}

double ErrorPmf::psnr_db(std::size_t width) const noexcept {
  return psnr_db_from_mse(width, mean_squared_error());
}

ErrorPmf::Entries ErrorPmf::top_mass_points(std::size_t k) const {
  // Values are distinct, so the order has no ties and the k kept points
  // are the same whichever selection picks them.
  Entries ranked(std::min(k, entries_.size()));
  std::partial_sort_copy(entries_.begin(), entries_.end(), ranked.begin(),
                         ranked.end(), [](const Entry& a, const Entry& b) {
                           if (a.probability != b.probability) {
                             return a.probability > b.probability;
                           }
                           return a.value < b.value;
                         });
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
  check_stage(state.stage);
  std::array<bool, 4> has_mass{};
  for (std::size_t j = 0; j < 4; ++j) has_mass[j] = !state.joint[j].empty();
  const StageTerms stage = stage_terms(has_mass, cell, p_a, p_b, state.stage);

  ErrorPmfState next;
  for (std::size_t dst = 0; dst < 4; ++dst) {
    std::array<ErrorPmf::Term, 16> terms;
    for (std::size_t t = 0; t < stage.counts[dst]; ++t) {
      const StageTerm& term = stage.terms[dst][t];
      terms[t] = ErrorPmf::Term{&state.joint[term.source], term.scale,
                                term.delta};
    }
    next.joint[dst] = ErrorPmf::mixture(
        std::span(terms).first(stage.counts[dst]), options);
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
  std::array<ErrorPmf::Term, 4> terms;
  std::size_t count = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    if (state.joint[j].empty()) continue;
    terms[count++] = ErrorPmf::Term{&state.joint[j], 1.0,
                                    carry_out_offset(j, state.stage)};
  }
  return ErrorPmf::mixture(std::span(terms).first(count), options);
}

// The windowed form of a full propagation (DESIGN.md decision 7).  A
// window holds one joint segment as a contiguous array of masses over
// the values [lo, lo + size): the sparse segment's probability where it
// stores one, 0.0 elsewhere, trimmed to its first and last mass.  A
// stage adds every term's whole source window into the destination's
// Neumaier sums, term by term.  Adding scale * 0.0 = +0.0 leaves a sum
// and its compensation unchanged bit for bit, so each value's sum sees
// exactly the additions ErrorPmf::mixture makes, in the same order: the
// masses, the support counts and the max_support checks are the sparse
// form's.
class PmfWindows {
  using Entry = ErrorPmf::Entry;
  using Entries = ErrorPmf::Entries;

 public:
  static ErrorPmf propagate(const multibit::AdderChain& chain,
                            const multibit::InputProfile& profile,
                            const PmfOptions& options);

 private:
  struct Window {
    std::int64_t lo = 0;
    std::size_t at = 0;       // first slot in its buffer
    std::size_t size = 0;     // 0 for a segment without mass
    std::size_t support = 0;  // slots holding mass
  };
  using State = std::array<Window, 4>;

  // Window storage a thread keeps between propagations: first-touch
  // page faults were most of a propagation's cost while every stage
  // allocated its segments afresh.  Buffers larger than kKeptBytes in
  // total are released when the propagation returns.
  struct Buffers {
    std::vector<double> from;  // the current state's four windows
    std::vector<double> to;    // the next state's sums, then its masses
    std::vector<double> compensation;  // one destination's compensations

    [[nodiscard]] std::size_t bytes() const noexcept {
      return (from.capacity() + to.capacity() + compensation.capacity()) *
             sizeof(double);
    }
  };
  static constexpr std::size_t kKeptBytes = std::size_t{8} << 20;
  static thread_local Buffers buffers_;

  // A destination's place: its value range and what its terms hold.
  struct Extent {
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    std::size_t contributions = 0;

    void cover(const Window& window, std::int64_t offset) noexcept {
      lo = std::min(lo, window.lo + offset);
      hi = std::max(hi, window.lo + offset +
                            static_cast<std::int64_t>(window.size - 1));
      contributions += window.support;
    }
    [[nodiscard]] bool empty() const noexcept { return contributions == 0; }
    // A window of at most twice its contributions' slots (8 bytes each)
    // never takes more bytes than the contributions as sparse entries
    // (16 bytes each).
    [[nodiscard]] bool fits() const noexcept {
      return value_span(lo, hi) <
             2 * static_cast<std::uint64_t>(contributions);
    }
    [[nodiscard]] std::size_t slots() const noexcept {
      return static_cast<std::size_t>(value_span(lo, hi)) + 1;
    }
  };

  // Makes `buffer` hold at least `slots` doubles; contents are not kept.
  static double* reserve(std::vector<double>& buffer, std::size_t slots) {
    if (buffer.size() < slots) {
      buffer.clear();
      buffer.resize(slots);
    }
    return buffer.data();
  }

  // Adds scale * mass[k] into the Neumaier sum (sum[k], compensation[k])
  // for every slot k of a source window.
  static void accumulate(double* sum, double* compensation,
                         const double* mass, std::size_t size,
                         double scale) noexcept {
    for (std::size_t k = 0; k < size; ++k) {
      const double x = scale * mass[k];
      prob::neumaier_add(sum[k], compensation[k], x);
    }
  }

  // Turns the sums of `window` (at buffers_.to) into masses, 0.0 where the
  // sum is not positive as mixture drops it, checks the support against
  // max_support and trims the window to its first and last mass.
  static void settle(Window& window, const double* compensation,
                     const PmfOptions& options) {
    double* const sum = buffers_.to.data() + window.at;
    std::size_t support = 0;
    for (std::size_t k = 0; k < window.size; ++k) {
      const double mass = sum[k] + compensation[k];
      const bool held = mass > 0.0;
      sum[k] = held ? mass : 0.0;
      support += held ? 1 : 0;
    }
    if (support > options.max_support) {
      throw_support_overflow(support, options.max_support);
    }
    window.support = support;
    if (support == 0) {
      window.size = 0;
      return;
    }
    std::size_t first = 0;
    while (sum[first] == 0.0) ++first;
    std::size_t last = window.size - 1;
    while (sum[last] == 0.0) --last;
    window.lo += static_cast<std::int64_t>(first);
    window.at += first;
    window.size = last - first + 1;
  }

  // Advances the windows by one stage, or returns false with nothing
  // changed when a destination's window would not fit its contributions.
  static bool advance(State& state, const StageTerms& stage,
                      const PmfOptions& options) {
    std::array<Extent, 4> extents;
    for (std::size_t dst = 0; dst < 4; ++dst) {
      for (std::size_t t = 0; t < stage.counts[dst]; ++t) {
        const StageTerm& term = stage.terms[dst][t];
        extents[dst].cover(state[term.source], term.delta);
      }
      if (!extents[dst].empty() && !extents[dst].fits()) return false;
    }
    State next;
    std::size_t total = 0;
    std::size_t widest = 0;
    for (std::size_t dst = 0; dst < 4; ++dst) {
      if (extents[dst].empty()) continue;
      next[dst] = Window{extents[dst].lo, total, extents[dst].slots(), 0};
      total += next[dst].size;
      widest = std::max(widest, next[dst].size);
    }
    reserve(buffers_.to, total);
    double* const compensation = reserve(buffers_.compensation, widest);
    const double* const from = buffers_.from.data();
    for (std::size_t dst = 0; dst < 4; ++dst) {
      Window& window = next[dst];
      if (window.size == 0) continue;
      double* const sum = buffers_.to.data() + window.at;
      std::fill_n(sum, window.size, 0.0);
      std::fill_n(compensation, window.size, 0.0);
      for (std::size_t t = 0; t < stage.counts[dst]; ++t) {
        const StageTerm& term = stage.terms[dst][t];
        const Window& source = state[term.source];
        const std::size_t shift =
            static_cast<std::size_t>(source.lo + term.delta - window.lo);
        accumulate(sum + shift, compensation + shift, from + source.at,
                   source.size, term.scale);
      }
      settle(window, compensation, options);
    }
    state = next;
    std::swap(buffers_.from, buffers_.to);
    return true;
  }

  // The window's masses as a sparse PMF.
  static ErrorPmf to_pmf(const Window& window, const double* masses) {
    Entries entries;
    entries.reserve(window.support);
    const double* const mass = masses + window.at;
    for (std::size_t k = 0; k < window.size; ++k) {
      if (mass[k] > 0.0) {
        entries.push_back(
            Entry{window.lo + static_cast<std::int64_t>(k), mass[k]});
      }
    }
    return ErrorPmf(std::move(entries));
  }

  // The windows' state as the per-stage form's, after `stage` stages.
  static ErrorPmfState to_state(const State& state, std::size_t stage) {
    ErrorPmfState out;
    for (std::size_t j = 0; j < 4; ++j) {
      out.joint[j] = to_pmf(state[j], buffers_.from.data());
    }
    out.stage = stage;
    return out;
  }

  // Loads a per-stage state into windows.
  static State load(const ErrorPmfState& sparse) {
    State state;
    std::size_t total = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const ErrorPmf& segment = sparse.joint[j];
      if (segment.empty()) continue;
      state[j] = Window{segment.min_value(), total,
                        static_cast<std::size_t>(value_span(
                            segment.min_value(), segment.max_value())) +
                            1,
                        segment.support_size()};
      total += state[j].size;
    }
    double* const from = reserve(buffers_.from, total);
    for (std::size_t j = 0; j < 4; ++j) {
      std::fill_n(from + state[j].at, state[j].size, 0.0);
      for (const Entry& entry : sparse.joint[j].entries()) {
        from[state[j].at + value_span(state[j].lo, entry.value)] =
            entry.probability;
      }
    }
    return state;
  }

  // finalize_error_pmf on windows: the carry-out fold into one window,
  // written out as the sparse result.
  static ErrorPmf finalize(const State& state, std::size_t stage,
                           const PmfOptions& options) {
    Extent extent;
    for (std::size_t j = 0; j < 4; ++j) {
      if (state[j].size != 0) {
        extent.cover(state[j], carry_out_offset(j, stage));
      }
    }
    if (extent.empty()) return ErrorPmf{};
    if (!extent.fits()) {
      return finalize_error_pmf(to_state(state, stage), options);
    }
    Window window{extent.lo, 0, extent.slots(), 0};
    double* const sum = reserve(buffers_.to, window.size);
    double* const compensation = reserve(buffers_.compensation, window.size);
    std::fill_n(sum, window.size, 0.0);
    std::fill_n(compensation, window.size, 0.0);
    for (std::size_t j = 0; j < 4; ++j) {
      const Window& source = state[j];
      if (source.size == 0) continue;
      const std::size_t shift = static_cast<std::size_t>(
          source.lo + carry_out_offset(j, stage) - window.lo);
      accumulate(sum + shift, compensation + shift,
                 buffers_.from.data() + source.at, source.size, 1.0);
    }
    settle(window, compensation, options);
    return to_pmf(window, buffers_.to.data());
  }

  // Releases the buffers on the way out of a propagation that grew them
  // past kKeptBytes.
  struct Release {
    Release() = default;
    Release(const Release&) = delete;
    Release& operator=(const Release&) = delete;
    ~Release() {
      if (buffers_.bytes() > kKeptBytes) buffers_ = Buffers{};
    }
  };
};

thread_local PmfWindows::Buffers PmfWindows::buffers_;

ErrorPmf PmfWindows::propagate(const multibit::AdderChain& chain,
                               const multibit::InputProfile& profile,
                               const PmfOptions& options) {
  const std::size_t width = chain.width();
  const ErrorPmfState initial = make_error_pmf_state(profile.p_cin());
  const Release release;
  State state = load(initial);
  std::size_t i = 0;
  for (; i < width; ++i) {
    check_stage(i);
    std::array<bool, 4> has_mass{};
    for (std::size_t j = 0; j < 4; ++j) has_mass[j] = state[j].size != 0;
    const StageTerms stage = stage_terms(has_mass, chain.stage(i),
                                         profile.p_a(i), profile.p_b(i), i);
    if (!advance(state, stage, options)) break;
  }
  if (i == width) return finalize(state, width, options);

  // The sparse fallback: the rest of the chain stage by stage.
  ErrorPmfState sparse = to_state(state, i);
  for (; i < width; ++i) {
    advance_error_pmf(sparse, chain.stage(i), profile.p_a(i), profile.p_b(i),
                      options);
  }
  return finalize_error_pmf(sparse, options);
}

ErrorPmf propagate_error_pmf(const multibit::AdderChain& chain,
                             const multibit::InputProfile& profile,
                             const PmfOptions& options) {
  if (chain.width() != profile.width()) {
    throw std::invalid_argument(
        "propagate_error_pmf: chain and profile widths differ");
  }
  return PmfWindows::propagate(chain, profile, options);
}

}  // namespace sealpaa::analysis
