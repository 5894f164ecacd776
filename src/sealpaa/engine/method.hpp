// Uniform entry point over every error-analysis method in the library.
//
// The paper compares its O(N) recursion against the traditional
// inclusion-exclusion analysis and three simulation oracles.  Those five
// engines live in three modules with five different signatures; the
// method registry gives the CLI, the benches and the differential test
// suite one `evaluate(chain, profile, method, options)` call that
// dispatches to any of them and returns one comparable result shape.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/multibit/blocks.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/prob/stats.hpp"
#include "sealpaa/sim/kernel.hpp"
#include "sealpaa/util/op_counter.hpp"

namespace sealpaa::engine {

/// Every way the library can turn (chain, profile) into P(Error).
enum class Method {
  kRecursive,           // the paper's O(N) recursion (§4)
  kInclusionExclusion,  // traditional 2^k-subset analysis (§3)
  kExhaustiveSim,       // all 2^(2N+1) cases; uniform-0.5 inputs only
  kWeightedExhaustive,  // all cases weighted by the profile (exact oracle)
  kMonteCarlo,          // sampled oracle with confidence intervals
  kAnalyticPmf,         // exact error-PMF propagation (zero samples)
  kBlockAnalytic,       // exact block-adder statistics (BlockChainSpec)
};

/// Registry row: stable CLI name plus a one-line description.
struct MethodInfo {
  Method method = Method::kRecursive;
  std::string_view name;     // e.g. "inclusion-exclusion" (--method= value)
  std::string_view summary;  // one line for --help / error messages
  bool exact = false;        // true when the result has no sampling noise
};

/// All registered methods, in declaration order.
[[nodiscard]] std::span<const MethodInfo> all_methods();

/// Registry row for `method`.
[[nodiscard]] const MethodInfo& method_info(Method method);

/// Stable name of `method` (the inverse of parse_method).
[[nodiscard]] std::string_view method_name(Method method);

/// Parses a CLI method name; throws std::invalid_argument listing the
/// valid names when `name` is not registered.
[[nodiscard]] Method parse_method(std::string_view name);

/// Per-call knobs; every field has a sensible default so
/// `evaluate(chain, profile, method)` just works.
struct EvaluateOptions {
  /// Monte Carlo sample count.
  std::uint64_t samples = 1'000'000;
  /// Monte Carlo RNG seed.
  std::uint64_t seed = 0x5ea1'c0de'2017'dacULL;
  /// Worker threads for the parallel engines (0 → the shared pool).
  unsigned threads = 0;
  /// Width guard for the exponential engines; 0 keeps each engine's own
  /// default (inclusion-exclusion 20, weighted-exhaustive 14,
  /// exhaustive simulation 13).
  std::size_t max_width = 0;
  /// Record the per-stage trace (recursive method only).
  bool record_trace = false;
  /// Evaluation backend for the simulation engines (exhaustive,
  /// weighted-exhaustive, monte-carlo).  Both kernels produce identical
  /// metrics; bit-sliced evaluates 64 input vectors per pass.
  sim::Kernel kernel = sim::Kernel::kBitSliced;
  /// Arithmetic accounting sink (recursive and inclusion-exclusion).
  util::OpCounter* op_counter = nullptr;
  /// Representation/switchover knobs for the analytic-PMF method.
  analysis::PmfOptions pmf;
  /// Mass points kept in Evaluation::pmf's top-k projection.
  std::size_t pmf_top_k = 8;
  /// Block-adder topology for the block-analytic method (required there,
  /// ignored everywhere else).  Its width must equal the profile width;
  /// the cell chain's content is not consulted — block sub-adders are
  /// exact by construction.
  std::optional<multibit::BlockChainSpec> blocks;
};

/// Distribution-level quality metrics (sim::ErrorMetrics shape): filled
/// by every method that sees the full error distribution — analytic-pmf
/// (exactly), the exhaustive engines (exactly) and Monte Carlo
/// (sampled).  The analytical methods that only track the stage-success
/// event (recursive, inclusion-exclusion) leave it empty.
struct DistributionStats {
  /// P(approx value != exact value) — value-level, so at most the
  /// stage-level p_error (carry errors can be numerically masked).
  double error_rate = 0.0;
  double mean_error = 0.0;           // E[err]
  double mean_error_distance = 0.0;  // E[|err|] (MED)
  double mean_squared_error = 0.0;   // E[err^2] (MSE)
  std::int64_t worst_case_error = 0;
  /// 10*log10(peak^2 / MSE) with peak = 2^width - 1; +inf when MSE = 0.
  double psnr_db = std::numeric_limits<double>::infinity();
};

/// Run-report projection of the full error PMF (analytic-pmf only).
struct PmfSummary {
  std::uint64_t support = 0;  // distinct error values with mass
  double total_mass = 0.0;    // must be 1 within float error
  double entropy_bits = 0.0;
  std::int64_t min_value = 0;
  std::int64_t max_value = 0;
  /// Highest-probability mass points, descending.
  std::vector<analysis::ErrorPmf::Entry> top;
};

/// Common result shape across all methods.
struct Evaluation {
  Method method = Method::kRecursive;
  double p_error = 0.0;
  double p_success = 1.0;
  /// Method-specific work measure: stages advanced (recursive,
  /// analytic-pmf), subset terms (inclusion-exclusion), input cases
  /// (exhaustive engines) or samples drawn (Monte Carlo).
  std::uint64_t work_items = 0;
  /// Wilson 95% interval for P(Error); empty unless Monte Carlo.
  prob::Interval stage_failure_ci = prob::Interval::empty_interval();
  /// Per-stage trace; only filled by the recursive and analytic-pmf
  /// methods when EvaluateOptions::record_trace is set.
  std::vector<analysis::StageTrace> trace;
  /// Distribution metrics; see DistributionStats for which methods fill
  /// it.
  std::optional<DistributionStats> distribution;
  /// PMF projection; analytic-pmf only.
  std::optional<PmfSummary> pmf;
};

/// Evaluates `chain` under `profile` with `method`.  Throws
/// std::invalid_argument when the widths mismatch, when the width
/// exceeds the method's guard, or when the method cannot represent the
/// profile (exhaustive simulation requires uniform-0.5 inputs).
[[nodiscard]] Evaluation evaluate(const multibit::AdderChain& chain,
                                  const multibit::InputProfile& profile,
                                  Method method,
                                  const EvaluateOptions& options = {});

/// Homogeneous-chain convenience overload.
[[nodiscard]] Evaluation evaluate(const adders::AdderCell& cell,
                                  const multibit::InputProfile& profile,
                                  Method method,
                                  const EvaluateOptions& options = {});

/// The one projection of analysis results into the Evaluation shape
/// engine::evaluate returns: p_error / p_success / trace from the
/// stage-level `result`, work_items = `width`.  With `pmf` (analytic-pmf,
/// block-analytic) it also fills `distribution` and the top-`pmf_top_k`
/// PmfSummary.  Pooled evaluators (the service) project through it too,
/// so their responses are byte-identical to engine::evaluate's.
[[nodiscard]] Evaluation to_evaluation(
    Method method, analysis::AnalysisResult result, std::size_t width,
    const analysis::ErrorPmf* pmf = nullptr,
    std::size_t pmf_top_k = EvaluateOptions{}.pmf_top_k);

}  // namespace sealpaa::engine
