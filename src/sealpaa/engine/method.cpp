#include "sealpaa/engine/method.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "sealpaa/analysis/block_error.hpp"
#include "sealpaa/baseline/inclusion_exclusion.hpp"
#include "sealpaa/baseline/weighted_exhaustive.hpp"
#include "sealpaa/sim/exhaustive.hpp"
#include "sealpaa/sim/montecarlo.hpp"
#include "sealpaa/util/parallel.hpp"

namespace sealpaa::engine {

namespace {

constexpr std::array<MethodInfo, 7> kMethods = {{
    {Method::kRecursive, "recursive",
     "the paper's O(N) carry-state recursion", true},
    {Method::kInclusionExclusion, "inclusion-exclusion",
     "traditional 2^k-subset analysis (exponential)", true},
    {Method::kExhaustiveSim, "exhaustive",
     "simulate all input cases (uniform-0.5 inputs only)", true},
    {Method::kWeightedExhaustive, "weighted-exhaustive",
     "enumerate all input cases weighted by the profile", true},
    {Method::kMonteCarlo, "monte-carlo",
     "sampled simulation with Wilson confidence intervals", false},
    {Method::kAnalyticPmf, "analytic-pmf",
     "exact MED/MSE/WCE/PSNR via error-PMF propagation (no samples)", true},
    {Method::kBlockAnalytic, "block-analytic",
     "exact block-adder error statistics (requires a --blocks spec)", true},
}};

void require_matching_width(const multibit::AdderChain& chain,
                            const multibit::InputProfile& profile) {
  if (chain.width() != profile.width()) {
    throw std::invalid_argument(
        "engine::evaluate: chain width " + std::to_string(chain.width()) +
        " does not match profile width " + std::to_string(profile.width()));
  }
}

// PSNR against the exact adder for an N-bit output range: the same
// peak^2 / MSE convention apps/image.cpp uses with peak = 255.
double psnr_from_mse(std::size_t width, double mse) {
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  const double peak = std::pow(2.0, static_cast<double>(width)) - 1.0;
  return 10.0 * std::log10(peak * peak / mse);
}

DistributionStats stats_from_metrics(const sim::ErrorMetrics& metrics,
                                     std::size_t width) {
  DistributionStats stats;
  stats.error_rate = metrics.error_rate();
  stats.mean_error = metrics.mean_error();
  stats.mean_error_distance = metrics.mean_abs_error();
  stats.mean_squared_error = metrics.mean_squared_error();
  stats.worst_case_error = metrics.worst_case_error();
  stats.psnr_db = psnr_from_mse(width, stats.mean_squared_error);
  return stats;
}

}  // namespace

std::span<const MethodInfo> all_methods() { return kMethods; }

const MethodInfo& method_info(Method method) {
  for (const MethodInfo& info : kMethods) {
    if (info.method == method) return info;
  }
  throw std::invalid_argument("engine::method_info: unregistered method");
}

std::string_view method_name(Method method) {
  return method_info(method).name;
}

Method parse_method(std::string_view name) {
  for (const MethodInfo& info : kMethods) {
    if (info.name == name) return info.method;
  }
  std::string valid;
  for (const MethodInfo& info : kMethods) {
    if (!valid.empty()) valid += ", ";
    valid += info.name;
  }
  throw std::invalid_argument("unknown method '" + std::string(name) +
                              "' (valid: " + valid + ")");
}

Evaluation evaluate(const multibit::AdderChain& chain,
                    const multibit::InputProfile& profile, Method method,
                    const EvaluateOptions& options) {
  require_matching_width(chain, profile);
  Evaluation out;
  out.method = method;

  const analysis::AnalyzeOptions analyze_options{options.record_trace,
                                                 options.op_counter};
  switch (method) {
    case Method::kRecursive:
      return to_evaluation(
          method,
          analysis::RecursiveAnalyzer::analyze(chain, profile, analyze_options),
          chain.width());
    case Method::kInclusionExclusion: {
      const std::size_t max_width =
          options.max_width == 0 ? 20 : options.max_width;
      const baseline::InclusionExclusionResult result =
          baseline::InclusionExclusionAnalyzer::analyze(
              chain, profile, max_width, options.op_counter);
      out.p_error = result.p_error;
      out.p_success = result.p_success;
      out.work_items = result.terms_evaluated;
      return out;
    }
    case Method::kExhaustiveSim: {
      if (!profile.is_uniform(0.5)) {
        throw std::invalid_argument(
            "engine::evaluate: method 'exhaustive' assumes equally probable "
            "inputs (P=0.5 everywhere); use 'weighted-exhaustive' or "
            "'monte-carlo' for this profile");
      }
      const std::size_t max_width =
          options.max_width == 0 ? 13 : options.max_width;
      const sim::ExhaustiveSimReport report =
          sim::ExhaustiveSimulator::run(chain, max_width, options.threads,
                                        options.kernel);
      out.p_error = report.metrics.stage_failure_rate();
      out.p_success = 1.0 - out.p_error;
      out.work_items = report.metrics.cases();
      out.distribution = stats_from_metrics(report.metrics, chain.width());
      return out;
    }
    case Method::kWeightedExhaustive: {
      const std::size_t max_width =
          options.max_width == 0 ? 14 : options.max_width;
      const baseline::ExhaustiveReport report =
          baseline::WeightedExhaustive::analyze(chain, profile, max_width,
                                                options.threads,
                                                options.kernel);
      out.p_success = report.p_stage_success;
      out.p_error = 1.0 - report.p_stage_success;
      out.work_items = report.assignments;
      DistributionStats stats;
      stats.error_rate = 1.0 - report.p_value_correct;
      stats.mean_error = report.mean_error;
      stats.mean_error_distance = report.mean_abs_error;
      stats.mean_squared_error = report.mean_squared_error;
      stats.worst_case_error = report.worst_case_error;
      stats.psnr_db = psnr_from_mse(chain.width(), stats.mean_squared_error);
      out.distribution = stats;
      return out;
    }
    case Method::kMonteCarlo: {
      // run_parallel wants a concrete worker count; 0 means "the shared
      // pool's width" at this layer.
      const unsigned threads =
          options.threads == 0 ? util::default_threads() : options.threads;
      const sim::MonteCarloReport report = sim::MonteCarloSimulator::run_parallel(
          chain, profile, options.samples, threads, options.seed,
          options.kernel);
      out.p_error = report.metrics.stage_failure_rate();
      out.p_success = 1.0 - out.p_error;
      out.work_items = report.samples;
      out.stage_failure_ci = report.stage_failure_ci;
      out.distribution = stats_from_metrics(report.metrics, chain.width());
      return out;
    }
    case Method::kAnalyticPmf: {
      // Stage-level p_error/p_success run through the exact same
      // recursion call as Method::kRecursive — same floating-point
      // sequence, bit-identical result — while the distribution metrics
      // come from the propagated PMF.
      analysis::AnalysisResult result =
          analysis::RecursiveAnalyzer::analyze(chain, profile, analyze_options);
      const analysis::ErrorPmf pmf =
          analysis::propagate_error_pmf(chain, profile, options.pmf);
      return to_evaluation(method, std::move(result), chain.width(), &pmf,
                           options.pmf_top_k);
    }
    case Method::kBlockAnalytic: {
      if (!options.blocks) {
        throw std::invalid_argument(
            "engine::evaluate: method 'block-analytic' requires "
            "EvaluateOptions::blocks (a BlockChainSpec)");
      }
      const multibit::BlockChainSpec& spec = *options.blocks;
      if (static_cast<std::size_t>(spec.n()) != profile.width()) {
        throw std::invalid_argument(
            "engine::evaluate: block spec width " + std::to_string(spec.n()) +
            " does not match profile width " +
            std::to_string(profile.width()));
      }
      analysis::BlockAnalysisOptions opts;
      opts.pmf = options.pmf;
      const analysis::BlockAnalysis blocks =
          analysis::BlockErrorModel::analyze(spec, profile, opts);
      analysis::AnalysisResult result;
      result.p_error = blocks.p_error;
      result.p_success = 1.0 - blocks.p_error;
      return to_evaluation(method, std::move(result), profile.width(),
                           &blocks.pmf, options.pmf_top_k);
    }
  }
  throw std::invalid_argument("engine::evaluate: unregistered method");
}

Evaluation to_evaluation(Method method, analysis::AnalysisResult result,
                         std::size_t width, const analysis::ErrorPmf* pmf,
                         std::size_t pmf_top_k) {
  Evaluation out;
  out.method = method;
  out.p_error = result.p_error;
  out.p_success = result.p_success;
  out.work_items = width;
  out.trace = std::move(result.trace);
  if (pmf == nullptr) return out;

  DistributionStats stats;
  stats.error_rate = pmf->error_rate();
  stats.mean_error = pmf->mean_error();
  stats.mean_error_distance = pmf->mean_error_distance();
  stats.mean_squared_error = pmf->mean_squared_error();
  stats.worst_case_error = pmf->worst_case_error();
  stats.psnr_db = pmf->psnr_db(width);
  out.distribution = stats;

  PmfSummary summary;
  summary.support = pmf->support_size();
  summary.total_mass = pmf->total_mass();
  summary.entropy_bits = pmf->entropy_bits();
  if (!pmf->empty()) {
    summary.min_value = pmf->min_value();
    summary.max_value = pmf->max_value();
  }
  summary.top = pmf->top_mass_points(pmf_top_k);
  out.pmf = summary;
  return out;
}

Evaluation evaluate(const adders::AdderCell& cell,
                    const multibit::InputProfile& profile, Method method,
                    const EvaluateOptions& options) {
  return evaluate(multibit::AdderChain::homogeneous(cell, profile.width()),
                  profile, method, options);
}

}  // namespace sealpaa::engine
