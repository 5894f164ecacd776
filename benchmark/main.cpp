// sealpaa_bench — one run of the repository benchmark.
//
//   sealpaa_bench --workload=fleet-mix --seed=20170618 --seconds=25
//       --daemon=PATH/sealpaad --config=benchmark/workloads.json
//       [--trace=SPANS.json]
//   sealpaa_bench --quick --daemon=... --config=...
//
// Service workloads (fleet-mix, hot-recursive) drive a freshly spawned
// sealpaad over loopback; DSE workloads (dse-err, dse-moment) run
// explore::BranchBoundOptimizer in this process.  Every response and
// every design is checked.  Progress goes to stderr; the last stdout
// line is the run report as one JSON object.  With --trace the run
// measures the per-layer ladder instead of the end-to-end metrics and
// writes its spans to the given file.  benchmark/run.py builds this
// binary and wraps it; see benchmark/README.md.
#include <sched.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "daemon.hpp"
#include "ladder.hpp"
#include "loadgen.hpp"
#include "trace.hpp"
#include "workload.hpp"

#ifndef SEALPAA_BENCH_BUILD_TYPE
#define SEALPAA_BENCH_BUILD_TYPE "unknown"
#endif

namespace bench {
namespace {

struct Settings {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20.0;
  std::string trace_file;  // empty: untraced run
  std::string daemon;
  obs::Json config;
  bool quick = false;
};

struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  obs::Json details = obs::Json::object();
};

/// Load limits: one load process with one reader thread per
/// connection plus the pacer; two dispatch workers in the daemon.
constexpr std::size_t kConnections = 2;
constexpr unsigned kDispatchThreads = 2;
constexpr std::size_t kSetupSpawnsPerGroup = 15;
constexpr std::size_t kSeedBeamsPerSolve = 4;
constexpr std::size_t kReplayRequests = 20000;
constexpr std::size_t kTracerCapacity = std::size_t{1} << 18;

[[nodiscard]] double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

[[nodiscard]] double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// The workloads.json entry of workload `name`.
[[nodiscard]] const obs::Json& workload_entry(const Settings& settings,
                                              const std::string& name) {
  const obs::Json* workloads = settings.config.find("workloads");
  const obs::Json* entry = workloads ? workloads->find(name) : nullptr;
  if (entry == nullptr) {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return *entry;
}

[[nodiscard]] double number_at(const obs::Json& json, const char* key) {
  const obs::Json* value = json.find(key);
  if (value == nullptr) {
    throw std::invalid_argument(std::string("workloads.json lacks '") + key +
                                "'");
  }
  return value->number();
}

[[nodiscard]] const obs::Json* path_of(
    const obs::Json& json, std::initializer_list<const char*> keys) {
  const obs::Json* node = &json;
  for (const char* key : keys) {
    node = node ? node->find(key) : nullptr;
  }
  return node;
}

[[nodiscard]] double number_or_zero(const obs::Json& json,
                                    std::initializer_list<const char*> keys) {
  const obs::Json* node = path_of(json, keys);
  return node != nullptr && node->is_number() ? node->number() : 0.0;
}

// ---------------------------------------------------------------- env

[[nodiscard]] std::string cpu_info(const std::string& key) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  }
  return "unknown";
}

[[nodiscard]] obs::Json environment() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = ::sched_getaffinity(0, sizeof(set), &set) == 0
                       ? CPU_COUNT(&set)
                       : static_cast<int>(std::thread::hardware_concurrency());
  std::istringstream flags(cpu_info("flags"));
  std::vector<std::string> words{std::istream_iterator<std::string>(flags),
                                 std::istream_iterator<std::string>()};
  const auto has = [&words](const char* flag) {
    return std::find(words.begin(), words.end(), flag) != words.end();
  };
  const util::KernelLevel cpu_level =
      has("avx512f")               ? util::KernelLevel::kAvx512
      : has("avx2") && has("fma")  ? util::KernelLevel::kAvx2
                                   : util::KernelLevel::kScalar;
  const std::optional<util::KernelLevel> forced = util::forced_kernel();
  const util::KernelLevel selected =
      forced && *forced < cpu_level ? *forced : cpu_level;

  obs::Json env = obs::Json::object();
  env.set("nproc", obs::Json(cpus));
  env.set("cpu_model", obs::Json(cpu_info("model name")));
  env.set("build_type", obs::Json(SEALPAA_BENCH_BUILD_TYPE));
  env.set("simd_cpu",
          obs::Json(std::string(util::kernel_level_name(cpu_level))));
  env.set("simd_forced",
          forced ? obs::Json(std::string(util::kernel_level_name(*forced)))
                 : obs::Json("none"));
  env.set("simd_selected",
          obs::Json(std::string(util::kernel_level_name(selected))));
  return env;
}

// ------------------------------------------------------------ service

/// Hits over probes of one cache.
struct HitCount {
  double hits = 0, probes = 0;
};

/// Sets metric `name` to the hit rate, unless the cache was never
/// probed: a workload that does not reach a cache gets no metric for it.
void set_hit_rate(std::map<std::string, double>& metrics,
                  const std::string& name, const HitCount& count) {
  if (count.probes > 0) metrics[name] = count.hits / count.probes;
}

/// The slice of a daemon `stats` response the benchmark reports.
struct DaemonStats {
  double received = 0, ok = 0, errors = 0, method_counts = 0;
  double batch_size_p50 = 0, cut_through_frac = 0;
  HitCount pool, prefix, pmf;
  double eval_latency_p50_us = 0;
};

[[nodiscard]] DaemonStats read_stats(const obs::Json& response) {
  const obs::Json* stats = response.find("stats");
  if (stats == nullptr) throw std::runtime_error("stats response lacks stats");
  DaemonStats out;
  out.received = number_or_zero(*stats, {"requests", "received"});
  out.ok = number_or_zero(*stats, {"requests", "ok"});
  out.errors = number_or_zero(*stats, {"requests", "errors"});
  out.batch_size_p50 = number_or_zero(*stats, {"batches", "size", "p50"});
  const double cut =
      number_or_zero(*stats, {"dispatch", "cut_through_batches"});
  const double coalesced =
      number_or_zero(*stats, {"dispatch", "coalesced_batches"});
  out.cut_through_frac = cut + coalesced > 0 ? cut / (cut + coalesced) : 0.0;
  out.pool.hits = number_or_zero(*stats, {"evaluators", "pool_hits"});
  out.pool.probes =
      out.pool.hits + number_or_zero(*stats, {"evaluators", "created"});
  for (const auto& [cache, count] :
       {std::pair{"prefix_cache", &out.prefix},
        std::pair{"pmf_cache", &out.pmf}}) {
    count->hits = number_or_zero(*stats, {"evaluators", cache, "hits"});
    count->probes =
        count->hits + number_or_zero(*stats, {"evaluators", cache, "misses"});
  }
  // The p50 of all evaluations: per-method histograms merged bucket-wise.
  std::map<double, double> buckets;
  double samples = 0;
  if (const obs::Json* methods = stats->find("methods")) {
    for (const auto& [name, method] : methods->items()) {
      out.method_counts += number_or_zero(method, {"count"});
      const obs::Json* list = path_of(method, {"latency_us", "buckets"});
      for (std::size_t i = 0; list != nullptr && i < list->size(); ++i) {
        const double count = number_or_zero(list->at(i), {"count"});
        buckets[number_or_zero(list->at(i), {"le"})] += count;
        samples += count;
      }
    }
  }
  double seen = 0;
  for (const auto& [edge, count] : buckets) {
    seen += count;
    if (seen >= samples / 2) {
      out.eval_latency_p50_us = edge;
      break;
    }
  }
  return out;
}

struct ServiceRun {
  std::vector<double> setup_s;
  ClosedResult closed;
  std::vector<ClosedResult> closed_traced;  // traced runs only
  std::vector<ClosedResult> closed_plain;
  OpenResult open;
  DaemonStats stats;
  double peak_rss_mb = 0;      // daemon VmHWM after the closed loop
  double run_peak_rss_mb = 0;  // daemon VmHWM after the whole run
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
};

struct ServicePlan {
  std::size_t setup_spawns = 0;  // per group; three groups per run
  double warmup_s = 0;
  double closed_s = 0;      // untraced closed-loop window
  double traced_slice_s = 0;  // > 0: alternate plain/traced closed slices
  double open_s = 0;
  double open_rate_rps = 0;
  double limit_ms = 0;
  bool pings = false;
};

/// Starts `count` daemons one after another, each timed from spawn to
/// its first pong and then stopped.
void time_setup(const Settings& settings, std::size_t count,
                std::vector<double>& samples) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t start = now_ns();
    Daemon daemon(settings.daemon, kDispatchThreads);
    if (exchange(daemon.port(), R"({"id":0,"method":"ping"})")
            .find("pong") == nullptr) {
      throw std::runtime_error("sealpaad did not answer ping");
    }
    samples.push_back(seconds_since(start));
  }
}

[[nodiscard]] ServiceRun drive_service(const Settings& settings,
                                       const ServiceWorkload& workload,
                                       const ServicePlan& plan,
                                       Tracer* tracer) {
  ServiceRun run;
  // Set-up is sampled before, between and after the load phases: on a
  // shared VM the spawn time shifts with the machine's state from one
  // second to the next, and samples spread over the run keep one such
  // shift from moving their median.
  time_setup(settings, plan.setup_spawns, run.setup_s);
  Daemon daemon(settings.daemon, kDispatchThreads);
  LoadGenerator load(daemon.port(), workload,
                      workload.stream(settings.seed), kConnections, tracer);
  load.set_tracing(false);
  if (plan.traced_slice_s > 0) {
    (void)load.closed_loop(plan.warmup_s, 0.0);
    for (int round = 0; round < 2; ++round) {
      load.set_tracing(false);
      run.closed_plain.push_back(load.closed_loop(0.0, plan.traced_slice_s));
      load.set_tracing(true);
      run.closed_traced.push_back(load.closed_loop(0.0, plan.traced_slice_s));
    }
    run.closed = run.closed_plain.back();
  } else {
    run.closed = load.closed_loop(plan.warmup_s, plan.closed_s);
  }
  // The closed loop bounds the requests in flight; in the open loop a
  // stall of the host queues an unbounded backlog in the daemon.
  run.peak_rss_mb = daemon.peak_rss_mb();
  time_setup(settings, plan.setup_spawns, run.setup_s);
  run.open = load.open_loop(plan.open_rate_rps, plan.open_s, plan.limit_ms,
                            settings.seed ^ 0x0a11'1ea5ull, plan.pings);
  load.close();
  time_setup(settings, plan.setup_spawns, run.setup_s);
  run.stats = read_stats(
      exchange(daemon.port(), R"({"id":0,"method":"stats"})"));
  run.run_peak_rss_mb = daemon.peak_rss_mb();
  const int code = daemon.stop();
  run.sent = load.sent();
  run.failed = load.failed() + (code == 0 ? 0 : 1);
  return run;
}

[[nodiscard]] obs::Json json_array(const std::vector<double>& values) {
  obs::Json out = obs::Json::array();
  for (const double value : values) out.push_back(obs::Json(value));
  return out;
}

void record_service_details(const ServiceRun& run, RunOutcome& outcome) {
  obs::Json& details = outcome.details;
  details.set("closed_loop_responses", obs::Json(run.closed.verified));
  details.set("closed_loop_seconds", obs::Json(run.closed.seconds));
  details.set("closed_loop_slice_rates", json_array(run.closed.slice_rates));
  // Open-loop latencies are reported, not gated: on a shared 4-vCPU host
  // their run-to-run spread exceeds any usable bound (see README.md).
  details.set("open_loop_p50_ms",
              obs::Json(percentile(run.open.latency_us, 0.50) / 1e3));
  details.set("open_loop_p90_ms",
              obs::Json(percentile(run.open.latency_us, 0.90) / 1e3));
  details.set("open_loop_p99_ms",
              obs::Json(percentile(run.open.latency_us, 0.99) / 1e3));
  details.set("open_loop_rate_rps", obs::Json(run.open.rate_rps));
  details.set("open_loop_sent", obs::Json(run.open.sent));
  details.set("open_loop_samples", obs::Json(static_cast<std::uint64_t>(
                                       run.open.latency_us.size())));
  details.set("generator_lag_p50_us",
              obs::Json(percentile(run.open.lag_us, 0.5)));
  details.set("generator_lag_p99_us",
              obs::Json(percentile(run.open.lag_us, 0.99)));
  details.set("generator_lag_max_us",
              obs::Json(percentile(run.open.lag_us, 1.0)));
  details.set("run_peak_rss_mb", obs::Json(run.run_peak_rss_mb));
  details.set("requests_sent", obs::Json(run.sent));
  // Reconciliation of the daemon's counters with what this client saw,
  // read after the run drained.  Reported, not gated.
  details.set("stats_received", obs::Json(run.stats.received));
  details.set("stats_ok", obs::Json(run.stats.ok));
  details.set("stats_errors", obs::Json(run.stats.errors));
  details.set("stats_unanswered",
              obs::Json(run.stats.received - run.stats.ok - run.stats.errors));
  details.set("stats_drift", obs::Json(static_cast<double>(run.sent) -
                                       run.stats.method_counts));
  outcome.attempted += run.sent;
  outcome.failed += run.failed;
}

[[nodiscard]] ServiceWorkload build_service(const Settings& settings,
                                            RunOutcome& outcome) {
  const std::int64_t start = now_ns();
  ServiceWorkload workload = settings.workload == "fleet-mix"
                                 ? fleet_mix(settings.seed)
                                 : hot_recursive(settings.seed);
  outcome.details.set("precompute_s", obs::Json(seconds_since(start)));
  outcome.details.set("configs", obs::Json(static_cast<std::uint64_t>(
                                     workload.configs.size())));
  return workload;
}

[[nodiscard]] RunOutcome run_service(const Settings& settings) {
  const obs::Json& entry = workload_entry(settings, settings.workload);
  RunOutcome outcome;
  const ServiceWorkload workload = build_service(settings, outcome);
  ServicePlan plan;
  plan.setup_spawns = settings.quick ? 1 : kSetupSpawnsPerGroup;
  plan.warmup_s = settings.quick ? 0.2 : number_at(settings.config, "warmup_s");
  plan.closed_s = settings.quick ? 0.3 : settings.seconds / 2;
  plan.open_s = settings.quick ? 0.3 : settings.seconds / 2;
  plan.open_rate_rps = number_at(entry, "open_loop_rps");
  plan.limit_ms = number_at(entry, "latency_limit_ms");
  const ServiceRun run = drive_service(settings, workload, plan, nullptr);
  record_service_details(run, outcome);

  auto& m = outcome.metrics;
  m["setup_s"] = median(run.setup_s);
  // The median over slices: a few seconds of a slow host do not move it.
  m["throughput_per_s"] = median(run.closed.slice_rates);
  m["slo_frac"] = run.open.sent == 0
                      ? 0.0
                      : static_cast<double>(run.open.within_limit) /
                            static_cast<double>(run.open.sent);
  m["peak_rss_mb"] = run.peak_rss_mb;
  return outcome;
}

// ---------------------------------------------------------------- dse

[[nodiscard]] DseProblem dse_problem(const Settings& settings,
                                     const std::string& name) {
  return parse_dse_problem(workload_entry(settings, name));
}

struct Solve {
  double seconds = 0;
  explore::BnbResult result;
  bool pinned = false;
};

[[nodiscard]] Solve solve(const DseProblem& problem) {
  explore::BnbOptions options;
  options.threads = problem.threads;
  const multibit::InputProfile profile =
      multibit::InputProfile::uniform(problem.width, problem.p);
  Solve out;
  const std::int64_t start = now_ns();
  out.result = explore::BranchBoundOptimizer::optimize(
      profile, problem.palette, problem.constraints, problem.objective,
      options);
  out.seconds = seconds_since(start);
  out.pinned = out.result.complete && matches_pin(problem, out.result.design);
  return out;
}

/// The set-up of a branch-and-bound solve: the beam search whose winner
/// seeds the incumbent before any branching, which optimize() runs
/// first (BnbOptions::seed_beam_width).
[[nodiscard]] double seed_beam_s(const DseProblem& problem) {
  const multibit::InputProfile profile =
      multibit::InputProfile::uniform(problem.width, problem.p);
  const std::int64_t start = now_ns();
  (void)explore::HybridOptimizer::beam(profile, problem.palette,
                                       problem.constraints,
                                       explore::BnbOptions{}.seed_beam_width,
                                       problem.objective);
  return seconds_since(start);
}

[[nodiscard]] RunOutcome run_dse(const Settings& settings) {
  const DseProblem problem = dse_problem(settings, settings.workload);
  RunOutcome outcome;
  const Solve warmup = solve(problem);
  outcome.attempted += 1;
  outcome.failed += warmup.pinned ? 0 : 1;
  std::vector<double> setup;
  std::vector<double> times;
  const std::size_t min_solves = settings.quick ? 0 : 3;
  const double solve_limit_s =
      number_at(workload_entry(settings, settings.workload), "solve_limit_s");
  std::uint64_t within_limit = 0;
  const std::int64_t start = now_ns();
  while (times.size() < min_solves || seconds_since(start) < settings.seconds) {
    // Set-up samples interleave with the solves, so a slow episode of
    // the machine does not fall on all of them at once.
    for (std::size_t i = 0; i < kSeedBeamsPerSolve; ++i) {
      setup.push_back(seed_beam_s(problem));
    }
    const Solve timed = solve(problem);
    times.push_back(timed.seconds);
    outcome.attempted += 1;
    outcome.failed += timed.pinned ? 0 : 1;
    within_limit += timed.pinned && timed.seconds <= solve_limit_s ? 1 : 0;
  }
  if (!warmup.pinned) {
    std::cerr << "design differs from the pin: score bits "
              << score_bits_hex(design_score(problem, warmup.result.design))
              << "\n";
  }
  outcome.details.set("solve_times_s", json_array(times));
  outcome.details.set("solve_median_s", obs::Json(median(times)));
  outcome.details.set("seed_beam_times_s", json_array(setup));
  outcome.details.set("search_stats", obs::to_json(warmup.result.design.stats));

  auto& m = outcome.metrics;
  m["setup_s"] = median(setup);
  // Proven optima per second at the fastest solve.  Every solve expands
  // the same nodes, so solves differ only in how fast the host ran them;
  // the fastest one varies least from run to run (see README.md).
  m["throughput_per_s"] =
      times.empty() ? 0.0 : 1.0 / *std::min_element(times.begin(), times.end());
  m["slo_frac"] = times.empty() ? 0.0
                                : static_cast<double>(within_limit) /
                                      static_cast<double>(times.size());
  m["peak_rss_mb"] = self_peak_rss_mb();
  return outcome;
}

// -------------------------------------------------------------- trace

/// Explore-layer metrics of `problem` from its traced solves, and the
/// hit rate of the engine cache its objective probes.
void explore_metrics(const DseProblem& problem, Tracer& tracer,
                     const std::vector<Solve>& solves, RunOutcome& outcome) {
  const std::uint32_t beam_span = tracer.name("explore.beam");
  std::vector<double> beam_s;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t start = now_ns();
    beam_s.push_back(seed_beam_s(problem));
    tracer.record(beam_span, 0, 0, 0, start, now_ns());
  }
  std::vector<double> seconds;
  for (const Solve& s : solves) seconds.push_back(s.seconds);
  const explore::SearchStats& stats = solves.back().result.design.stats;
  auto& m = outcome.metrics;
  m["explore.bnb.nodes_expanded"] = static_cast<double>(stats.nodes_expanded);
  m["explore.bnb.nodes_pruned"] = static_cast<double>(stats.nodes_pruned);
  m["explore.bnb.candidates_evaluated"] =
      static_cast<double>(stats.candidates_evaluated);
  m["explore.bnb.steal_count"] = static_cast<double>(stats.steal_count);
  m["explore.bnb.us_per_node"] =
      stats.nodes_expanded > 0
          ? median(seconds) * 1e6 / static_cast<double>(stats.nodes_expanded)
          : 0.0;
  m["explore.bnb.seed_beam_s"] = median(beam_s);
  // SearchStats counts the probes of the one cache the objective uses:
  // the carry prefix cache for err, the PMF prefix cache for med/mse.
  const HitCount cache{static_cast<double>(stats.cache_hits),
                       static_cast<double>(stats.cache_hits +
                                           stats.cache_misses)};
  set_hit_rate(m,
               problem.objective == explore::Objective::kErrorRate
                   ? "engine.prefix.hit_rate"
                   : "engine.pmf_prefix.hit_rate",
               cache);
}

void service_metrics(const ServiceRun& run, RunOutcome& outcome) {
  auto& m = outcome.metrics;
  m["service.dispatcher.batch_size_p50"] = run.stats.batch_size_p50;
  m["service.dispatcher.cut_through_frac"] = run.stats.cut_through_frac;
  m["service.dispatcher.stats_drift"] =
      static_cast<double>(run.sent) - run.stats.method_counts;
  m["service.dispatcher.unanswered"] =
      run.stats.received - run.stats.ok - run.stats.errors;
  m["service.server.ping_rtt_us"] = percentile(run.open.ping_rtt_us, 0.5);
  m["service.server.eval_latency_p50_us"] = run.stats.eval_latency_p50_us;
  m["service.server.client_rtt_p50_us"] = percentile(run.open.latency_us, 0.5);
  set_hit_rate(m, "engine.pool.hit_rate", run.stats.pool);
  set_hit_rate(m, "engine.prefix.hit_rate", run.stats.prefix);
  set_hit_rate(m, "engine.pmf_prefix.hit_rate", run.stats.pmf);
  m["loadgen.lag_p99_us"] = percentile(run.open.lag_us, 0.99);
}

[[nodiscard]] double closed_rate(const std::vector<ClosedResult>& slices) {
  double responses = 0;
  double seconds = 0;
  for (const ClosedResult& slice : slices) {
    responses += static_cast<double>(slice.verified);
    seconds += slice.seconds;
  }
  return seconds > 0 ? responses / seconds : 0.0;
}

[[nodiscard]] RunOutcome trace_service(const Settings& settings,
                                       Tracer& tracer) {
  const obs::Json& entry = workload_entry(settings, settings.workload);
  RunOutcome outcome;
  const ServiceWorkload workload = build_service(settings, outcome);
  const LadderResult ladder = run_ladder(
      workload, take_requests(workload.stream(settings.seed), kReplayRequests),
      settings.seconds / 2, tracer);
  outcome.metrics.insert(ladder.metrics.begin(), ladder.metrics.end());
  outcome.attempted += ladder.requests;
  outcome.failed += ladder.failed;
  outcome.details.set("replayed_requests", obs::Json(ladder.requests));

  ServicePlan plan;
  plan.warmup_s = number_at(settings.config, "warmup_s");
  plan.traced_slice_s = settings.seconds / 8;
  plan.open_s = settings.seconds / 2;
  plan.open_rate_rps = number_at(entry, "open_loop_rps");
  plan.limit_ms = number_at(entry, "latency_limit_ms");
  plan.pings = true;
  const ServiceRun run = drive_service(settings, workload, plan, &tracer);
  record_service_details(run, outcome);
  service_metrics(run, outcome);
  const double plain = closed_rate(run.closed_plain);
  outcome.metrics["trace.overhead_frac"] =
      plain > 0 ? 1.0 - closed_rate(run.closed_traced) / plain : 0.0;
  return outcome;
}

[[nodiscard]] RunOutcome trace_dse(const Settings& settings, Tracer& tracer) {
  const DseProblem problem = dse_problem(settings, settings.workload);
  RunOutcome outcome;
  const std::uint32_t solve_span = tracer.name("explore.bnb.optimize");
  (void)solve(problem);
  std::vector<Solve> plain;
  std::vector<Solve> traced;
  for (int round = 0; round < 2; ++round) {
    plain.push_back(solve(problem));
    const std::int64_t start = now_ns();
    const Tracer::Id id = tracer.open(solve_span, 0, 0, 0);
    traced.push_back(solve(problem));
    tracer.finish(id, start, now_ns());
  }
  for (const std::vector<Solve>* solves : {&plain, &traced}) {
    for (const Solve& s : *solves) {
      outcome.attempted += 1;
      outcome.failed += s.pinned ? 0 : 1;
    }
  }
  explore_metrics(problem, tracer, traced, outcome);
  double plain_s = 0;
  double traced_s = 0;
  for (const Solve& s : plain) plain_s += s.seconds;
  for (const Solve& s : traced) traced_s += s.seconds;
  outcome.metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0;
  return outcome;
}

// --------------------------------------------------------------- main

[[nodiscard]] bool is_service(const std::string& workload) {
  return workload == "fleet-mix" || workload == "hot-recursive";
}

[[nodiscard]] RunOutcome run(const Settings& settings) {
  if (settings.trace_file.empty()) {
    return is_service(settings.workload) ? run_service(settings)
                                         : run_dse(settings);
  }
  Tracer tracer(kTracerCapacity);
  RunOutcome outcome = is_service(settings.workload)
                           ? trace_service(settings, tracer)
                           : trace_dse(settings, tracer);
  if (!tracer.write(settings.trace_file)) {
    throw std::runtime_error("cannot write " + settings.trace_file);
  }
  outcome.details.set("spans_dropped", obs::Json(tracer.dropped()));
  return outcome;
}

[[nodiscard]] obs::Json report(const Settings& settings,
                               const RunOutcome& outcome) {
  obs::Json out = obs::Json::object();
  out.set("schema", obs::Json("sealpaa.benchmark-run"));
  out.set("schema_version", obs::Json(1));
  out.set("workload", obs::Json(settings.workload));
  out.set("seed", obs::Json(settings.seed));
  out.set("seconds", obs::Json(settings.seconds));
  out.set("traced", obs::Json(!settings.trace_file.empty()));
  out.set("environment", environment());
  out.set("correct", obs::Json(outcome.failed == 0 && outcome.attempted > 0));
  out.set("attempted", obs::Json(outcome.attempted));
  out.set("failed", obs::Json(outcome.failed));
  out.set("fail_ratio",
          obs::Json(outcome.attempted == 0
                        ? 1.0
                        : static_cast<double>(outcome.failed) /
                              static_cast<double>(outcome.attempted)));
  obs::Json metrics = obs::Json::object();
  for (const auto& [name, value] : outcome.metrics) {
    metrics.set(name, obs::Json(value));
  }
  out.set("metrics", std::move(metrics));
  out.set("details", outcome.details);
  return out;
}

[[nodiscard]] obs::Json load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return obs::Json::parse(text.str());
}

int quick(Settings settings) {
  bool ok = true;
  for (const char* name :
       {"fleet-mix", "hot-recursive", "dse-err", "dse-moment"}) {
    settings.workload = name;
    const RunOutcome outcome = run(settings);
    const bool verified = outcome.failed == 0 && outcome.attempted > 0;
    std::cout << "quick: " << name << " " << outcome.attempted
              << " checked, " << outcome.failed << " failed\n";
    ok = ok && verified;
  }
  std::cout << (ok ? "quick: all workloads verified\n"
                   : "quick: FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  using namespace bench;
  const util::CliArgs args(argc, argv);
  try {
    args.expect_flags({"workload", "seed", "seconds", "trace", "daemon",
                       "config", "quick"});
    Settings settings;
    settings.workload = args.get("workload", "");
    settings.seed = args.get_uint("seed", 0);
    settings.seconds = args.get_double("seconds", 20.0);
    settings.trace_file = args.get("trace", "");
    settings.daemon = args.get("daemon", "");
    settings.quick = args.get_bool("quick", false);
    settings.config = load_config(args.get("config", ""));

    if (std::string(SEALPAA_BENCH_BUILD_TYPE) != "Release" && !settings.quick) {
      std::cerr << "error: refusing to time a " << SEALPAA_BENCH_BUILD_TYPE
                << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
      return 2;
    }
    if (settings.quick) {
      settings.seed = static_cast<std::uint64_t>(
          number_or_zero(settings.config, {"seeds", "default"}));
      settings.seconds = 0.0;
      return quick(settings);
    }
    const RunOutcome outcome = run(settings);
    std::cout << report(settings, outcome).dump(0) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
