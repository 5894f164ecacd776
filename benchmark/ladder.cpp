#include "ladder.hpp"

#include <mutex>
#include <span>

namespace bench {

namespace {

[[nodiscard]] double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

[[nodiscard]] bool pooled(engine::Method method) {
  return method == engine::Method::kRecursive ||
         method == engine::Method::kAnalyticPmf;
}

[[nodiscard]] std::vector<adders::AdderCell> service_palette() {
  const std::span<const adders::AdderCell> cells = adders::all_builtin_cells();
  return {cells.begin(), cells.end()};
}

/// The first `max` of the workload's configs of `method`.  Empty when
/// the workload sends none: a layer only that method reaches is then not
/// exercised, and its metrics are not reported.
[[nodiscard]] std::vector<Config> configs_of(const ServiceWorkload& workload,
                                             engine::Method method,
                                             std::size_t max) {
  std::vector<Config> out;
  for (const Config& config : workload.configs) {
    if (config.method == method && out.size() < max) out.push_back(config);
  }
  return out;
}

[[nodiscard]] std::string request_line(const Config& config,
                                       std::uint64_t id) {
  return "{\"id\":" + std::to_string(id) + config.request_tail;
}

/// Wire parse -> pooled engine -> serialize, request by request, with the
/// daemon's per-shard pool size.  Engine results are checked against the
/// precomputed evaluation; serialization uses the precomputed evaluation
/// so the wire layer is timed on exactly the bytes the daemon sends.
/// Stops early once `budget_s` is spent; returns the bursts replayed.
std::size_t replay(const ServiceWorkload& workload,
                   const std::vector<Burst>& bursts, double budget_s,
                   Tracer& tracer, LadderResult& result) {
  const std::uint32_t request_span = tracer.name("replay.request");
  const std::uint32_t parse_span = tracer.name("service.wire.parse");
  const std::uint32_t engine_span = tracer.name("replay.engine");
  const std::uint32_t acquire_span = tracer.name("engine.pool.acquire");
  const std::uint32_t evaluate_span = tracer.name("engine.chain.evaluate");
  const std::uint32_t pmf_span = tracer.name("engine.chain.error_pmf");
  const std::uint32_t other_span = tracer.name("engine.evaluate");
  const std::uint32_t serialize_span = tracer.name("service.wire.serialize");

  const service::WireLimits limits;
  service::FrameSplitter splitter(limits.max_frame_bytes);
  engine::EvaluatorPool pool(service_palette());
  double response_bytes = 0.0;
  std::uint64_t id = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  std::size_t replayed = 0;
  for (; replayed < bursts.size() && now_ns() < deadline; ++replayed) {
    for (const std::uint32_t index : bursts[replayed]) {
      const Config& config = workload.configs[index];
      const std::string line = request_line(config, ++id);
      const ScopedSpan request(&tracer, request_span, 0, id);
      std::optional<service::ParseOutcome> outcome;
      {
        const ScopedSpan span(&tracer, parse_span, request.id(), id);
        splitter.feed(line);
        outcome = service::parse_request(*splitter.next(), limits);
      }
      bool ok = outcome->request.has_value();
      {
        const ScopedSpan span(&tracer, engine_span, request.id(), id);
        if (pooled(config.method)) {
          std::shared_ptr<engine::ChainEvaluator> evaluator;
          {
            const ScopedSpan step(&tracer, acquire_span, span.id(), id);
            evaluator = pool.acquire(config.profile());
          }
          {
            const ScopedSpan step(&tracer, evaluate_span, span.id(), id);
            ok = ok && evaluator->evaluate(config.choices).p_error ==
                           config.expected.p_error;
          }
          if (config.method == engine::Method::kAnalyticPmf) {
            const ScopedSpan step(&tracer, pmf_span, span.id(), id);
            ok = ok && evaluator->error_pmf(config.choices)
                               .mean_error_distance() ==
                           config.expected.distribution->mean_error_distance;
          }
        } else {
          const ScopedSpan step(&tracer, other_span, span.id(), id);
          ok = ok && engine::evaluate(config.chain(), config.profile(),
                                      config.method, config.options())
                             .p_error == config.expected.p_error;
        }
      }
      {
        const ScopedSpan span(&tracer, serialize_span, request.id(), id);
        const std::string frame = service::serialize_frame(
            service::make_evaluation_response(outcome->id, config.expected));
        response_bytes += static_cast<double>(frame.size());
        ok = ok && frame_matches(std::string_view(frame).substr(
                                     0, frame.size() - 1),
                                 config.response_head, id,
                                 config.response_tail);
      }
      if (!ok) result.failed += 1;
    }
  }
  const double n = static_cast<double>(id);
  result.requests = id;
  auto& m = result.metrics;
  m["service.wire.parse_ns"] =
      ratio(tracer.totals("service.wire.parse").wall_ns, n);
  m["service.wire.serialize_ns"] =
      ratio(tracer.totals("service.wire.serialize").wall_ns, n);
  m["service.wire.response_bytes"] = ratio(response_bytes, n);
  return replayed;
}

/// Dispatcher::start/submit/drain over the same frames, one closed-loop
/// window at a time, with one dispatch worker so its cost compares with
/// the serial replay.
void dispatcher_probe(const ServiceWorkload& workload,
                      const std::vector<Burst>& bursts, Tracer& tracer,
                      LadderResult& result) {
  const std::uint32_t chunk_span = tracer.name("service.dispatcher.window");
  const std::uint32_t submit_span = tracer.name("service.dispatcher.submit");
  const std::uint32_t drain_span = tracer.name("service.dispatcher.drain");

  std::vector<std::uint32_t> order;
  for (const Burst& burst : bursts) {
    order.insert(order.end(), burst.begin(), burst.end());
  }
  std::vector<std::string> frames;
  frames.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::string line = request_line(workload.configs[order[i]], i);
    line.pop_back();  // the dispatcher receives frames without the newline
    frames.push_back(std::move(line));
  }

  std::mutex responses_mutex;
  std::vector<std::string> responses(order.size());
  service::DispatcherOptions options;
  options.dispatch_threads = 1;
  service::Dispatcher dispatcher(options);
  dispatcher.start([&](service::OutgoingResponse response) {
    const std::lock_guard<std::mutex> lock(responses_mutex);
    if (response.sequence < responses.size()) {
      responses[response.sequence] = std::move(response.frame);
    }
  });
  const std::size_t window = 2 * workload.window;
  const std::int64_t start = now_ns();
  for (std::size_t begin = 0; begin < frames.size(); begin += window) {
    const std::size_t end = std::min(frames.size(), begin + window);
    const ScopedSpan chunk(&tracer, chunk_span, 0, begin);
    {
      const ScopedSpan span(&tracer, submit_span, chunk.id(), begin);
      for (std::size_t i = begin; i < end; ++i) {
        dispatcher.submit(service::PendingRequest{
            1, i, service::FrameSplitter::Frame{frames[i], false},
            std::chrono::steady_clock::now()});
      }
    }
    const ScopedSpan span(&tracer, drain_span, chunk.id(), begin);
    dispatcher.drain();
  }
  const double elapsed_ns = static_cast<double>(now_ns() - start);
  dispatcher.stop();

  const std::lock_guard<std::mutex> lock(responses_mutex);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Config& config = workload.configs[order[i]];
    const std::string& frame = responses[i];
    if (frame.empty() ||
        !frame_matches(std::string_view(frame).substr(0, frame.size() - 1),
                       config.response_head, i, config.response_tail)) {
      result.failed += 1;
    }
  }
  const double n = static_cast<double>(order.size());
  const double per_request_us = ratio(elapsed_ns, n) / 1e3;
  const double replay_us =
      ratio(tracer.totals("service.wire.parse").wall_ns +
                tracer.totals("replay.engine").wall_ns +
                tracer.totals("service.wire.serialize").wall_ns,
            static_cast<double>(result.requests)) /
      1e3;
  result.metrics["service.dispatcher.per_request_us"] = per_request_us;
  result.metrics["service.dispatcher.overhead_us"] = per_request_us - replay_us;
}

/// EvaluatorPool::acquire + ChainEvaluator::error_pmf on the first 1000
/// analytic-pmf requests in workload order, on a fresh pool of the
/// daemon's per-shard size.
void pmf_eval_probe(const ServiceWorkload& workload,
                    const std::vector<Burst>& bursts, Tracer& tracer,
                    LadderResult& result) {
  const std::uint32_t acquire_span = tracer.name("probe.pmf.acquire");
  const std::uint32_t pmf_span = tracer.name("probe.pmf.error_pmf");
  std::vector<Config> sequence;
  for (const Burst& burst : bursts) {
    for (const std::uint32_t index : burst) {
      const Config& config = workload.configs[index];
      if (config.method == engine::Method::kAnalyticPmf &&
          sequence.size() < 1000) {
        sequence.push_back(config);
      }
    }
  }
  if (sequence.empty()) return;
  engine::EvaluatorPool pool(service_palette());
  std::size_t evaluated = 0;
  for (const Config& config : sequence) {
    evaluated += 1;
    std::shared_ptr<engine::ChainEvaluator> evaluator;
    {
      const ScopedSpan span(&tracer, acquire_span, 0, evaluated);
      evaluator = pool.acquire(config.profile());
    }
    const ScopedSpan span(&tracer, pmf_span, 0, evaluated);
    (void)evaluator->error_pmf(config.choices);
  }
  result.metrics["engine.pmf_eval_us"] =
      ratio(tracer.totals("probe.pmf.acquire").wall_ns +
                tracer.totals("probe.pmf.error_pmf").wall_ns,
            static_cast<double>(evaluated)) /
      1e3;
}

/// ChainEvaluator::evaluate_batch on the recursive families, each on a
/// cold evaluator, per lane-stage advanced.
void soa_probe(const ServiceWorkload& workload, Tracer& tracer,
               LadderResult& result) {
  const std::uint32_t batch_span = tracer.name("engine.soa.evaluate_batch");
  const std::vector<Config> recursive =
      configs_of(workload, engine::Method::kRecursive, 256);
  if (recursive.empty()) return;
  double wall_ns = 0.0;
  double lane_stages = 0.0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t begin = 0; begin < recursive.size(); begin += 8) {
      const std::size_t end = std::min(recursive.size(), begin + 8);
      engine::ChainEvaluator evaluator(recursive[begin].profile(),
                                       service_palette());
      std::vector<std::span<const std::size_t>> chains;
      for (std::size_t i = begin; i < end; ++i) {
        if (recursive[i].width != recursive[begin].width ||
            recursive[i].p != recursive[begin].p) {
          continue;
        }
        chains.emplace_back(recursive[i].choices);
      }
      const std::int64_t start = now_ns();
      (void)evaluator.evaluate_batch(chains);
      const std::int64_t stop = now_ns();
      tracer.record(batch_span, 0, begin, 0, start, stop);
      wall_ns += static_cast<double>(stop - start);
      lane_stages += static_cast<double>(evaluator.batch_stats().lane_stages);
    }
  }
  result.metrics["engine.soa.lane_stage_ns"] = ratio(wall_ns, lane_stages);
}

/// ChainEvaluator::evaluate on the workload's widest recursive chain:
/// fully cached, and from a cleared cache.
void chain_probe(const ServiceWorkload& workload, Tracer& tracer,
                 LadderResult& result) {
  const std::uint32_t hit_span = tracer.name("engine.chain.hit");
  const std::uint32_t miss_span = tracer.name("engine.chain.miss");
  const std::vector<Config> recursive =
      configs_of(workload, engine::Method::kRecursive, 1u << 20);
  if (recursive.empty()) return;
  const Config* widest = &recursive.front();
  for (const Config& config : recursive) {
    if (config.width > widest->width) widest = &config;
  }
  engine::ChainEvaluator evaluator(widest->profile(), service_palette());
  constexpr int kMisses = 500;
  for (int i = 0; i < kMisses; ++i) {
    evaluator.clear();
    const ScopedSpan span(&tracer, miss_span, 0, static_cast<std::uint64_t>(i));
    (void)evaluator.evaluate(widest->choices);
  }
  constexpr int kHits = 20000;
  {
    const ScopedSpan span(&tracer, hit_span, 0, 0);
    for (int i = 0; i < kHits; ++i) (void)evaluator.evaluate(widest->choices);
  }
  result.metrics["engine.chain.miss_ns"] =
      tracer.totals("engine.chain.miss").wall_ns / kMisses;
  result.metrics["engine.chain.hit_ns"] =
      tracer.totals("engine.chain.hit").wall_ns / kHits;
}

/// Cold engine::evaluate per method the workload sends; the Monte Carlo
/// time also gives the simulator's cost per sample.
void evaluate_probe(const ServiceWorkload& workload, Tracer& tracer,
                    LadderResult& result) {
  const std::pair<engine::Method, const char*> methods[] = {
      {engine::Method::kAnalyticPmf, "analytic_pmf"},
      {engine::Method::kRecursive, "recursive"},
      {engine::Method::kMonteCarlo, "monte_carlo"},
      {engine::Method::kBlockAnalytic, "block_analytic"},
  };
  for (const auto& [method, key] : methods) {
    const std::vector<Config> configs = configs_of(workload, method, 32);
    if (configs.empty()) continue;
    const std::string name = std::string("engine.evaluate.") + key;
    const std::uint32_t span_name = tracer.name(name);
    double samples = 0.0;
    for (const Config& config : configs) {
      const multibit::AdderChain chain = config.chain();
      const multibit::InputProfile profile = config.profile();
      const engine::EvaluateOptions options = config.options();
      const ScopedSpan span(&tracer, span_name);
      (void)engine::evaluate(chain, profile, method, options);
      samples += static_cast<double>(config.samples);
    }
    const Tracer::Totals totals = tracer.totals(name);
    result.metrics[name + "_us"] =
        ratio(totals.wall_ns, static_cast<double>(totals.count)) / 1e3;
    if (method == engine::Method::kMonteCarlo) {
      result.metrics["sim.mc.ns_per_sample"] = ratio(totals.wall_ns, samples);
    }
  }
}

/// The analysis layer under each method the workload sends.
void analysis_probe(const ServiceWorkload& workload, Tracer& tracer,
                    LadderResult& result) {
  const std::vector<Config> recursive =
      configs_of(workload, engine::Method::kRecursive, 256);
  if (!recursive.empty()) {
    const std::uint32_t span_name = tracer.name("analysis.recursive.analyze");
    double stages = 0.0;
    for (int round = 0; round < 4; ++round) {
      for (const Config& config : recursive) {
        const multibit::AdderChain chain = config.chain();
        const multibit::InputProfile profile = config.profile();
        const ScopedSpan span(&tracer, span_name);
        (void)analysis::RecursiveAnalyzer::analyze(chain, profile);
        stages += static_cast<double>(config.width);
      }
    }
    result.metrics["analysis.recursive.stage_ns"] =
        ratio(tracer.totals("analysis.recursive.analyze").wall_ns, stages);
  }

  const std::vector<Config> analytic =
      configs_of(workload, engine::Method::kAnalyticPmf, 16);
  if (!analytic.empty()) {
    const std::uint32_t span_name = tracer.name("analysis.pmf.advance");
    double support = 0.0;
    for (const Config& config : analytic) {
      const multibit::AdderChain chain = config.chain();
      const multibit::InputProfile profile = config.profile();
      analysis::ErrorPmfState state =
          analysis::make_error_pmf_state(profile.p_cin());
      for (std::size_t i = 0; i < config.width; ++i) {
        {
          const ScopedSpan span(&tracer, span_name);
          analysis::advance_error_pmf(state, chain.stage(i), profile.p_a(i),
                                      profile.p_b(i));
        }
        for (const analysis::ErrorPmf& segment : state.joint) {
          support += static_cast<double>(segment.support_size());
        }
      }
    }
    const Tracer::Totals pmf = tracer.totals("analysis.pmf.advance");
    result.metrics["analysis.pmf.stage_us"] =
        ratio(pmf.wall_ns, static_cast<double>(pmf.count)) / 1e3;
    result.metrics["analysis.pmf.support"] =
        ratio(support, static_cast<double>(pmf.count));
  }

  const std::vector<Config> block =
      configs_of(workload, engine::Method::kBlockAnalytic, 8);
  if (!block.empty()) {
    const std::uint32_t span_name = tracer.name("analysis.block.analyze");
    for (int round = 0; round < 3; ++round) {
      for (const Config& config : block) {
        const multibit::InputProfile profile = config.profile();
        const ScopedSpan span(&tracer, span_name);
        (void)analysis::BlockErrorModel::analyze(*config.blocks, profile);
      }
    }
    const Tracer::Totals totals = tracer.totals("analysis.block.analyze");
    result.metrics["analysis.block.analyze_us"] =
        ratio(totals.wall_ns, static_cast<double>(totals.count)) / 1e3;
  }
}

}  // namespace

LadderResult run_ladder(const ServiceWorkload& workload,
                        const std::vector<Burst>& bursts, double budget_s,
                        Tracer& tracer) {
  LadderResult result;
  const std::size_t replayed =
      replay(workload, bursts, budget_s, tracer, result);
  const std::vector<Burst> prefix(
      bursts.begin(), bursts.begin() + static_cast<std::ptrdiff_t>(replayed));
  dispatcher_probe(workload, prefix, tracer, result);
  pmf_eval_probe(workload, prefix, tracer, result);
  soa_probe(workload, tracer, result);
  chain_probe(workload, tracer, result);
  evaluate_probe(workload, tracer, result);
  analysis_probe(workload, tracer, result);
  return result;
}

}  // namespace bench
