// sealpaa_loadgen — deterministic load generator for the sealpaad
// service, and the CI gate for its fleet-shaped dispatch path.
//
// Simulates a production request mix against an in-process server: a
// seeded arrival process sweeps a grid of 48 (width, p) input profiles
// — the access pattern of a design-space-exploration fleet scoring
// candidate chains per operating point — with analytic-pmf requests
// dominating, plus beam-shaped recursive groups, Monte Carlo probes and
// block-analytic specs mixed in.  Every response is compared
// byte-for-byte against a frame built locally from engine::evaluate,
// and each run's final `stats` must reconcile with what its clients saw
// (received = ok + errors; per-method counts and batch sizes sum to the
// requests sent; each method's count minus its errors is that method's
// ok responses; the PMF cache ran one chain, one probe, per ok
// analytic-pmf response; every total is the sum over shards).  Any
// divergence exits non-zero.
//
// The run executes twice, with 1 and with 4 dispatch workers, and
// reports the throughput ratio.  The profile grid is sized to overflow
// a single worker's EvaluatorPool (48 keys against the 32-evaluator
// default, swept cyclically — the LRU-pessimal order), while the
// sharded fleet keeps every profile's evaluator and PMF cache resident
// on its home worker.  The ratio therefore measures what the
// sharding actually buys — aggregate evaluator-cache capacity — and
// holds on a single-core CI box, where a thread-parallelism speedup
// could not.
//
// Results land in BENCH_service_load.json (sealpaa.run-report schema)
// in the current directory; scripts/check_bench_regression.py gates the
// committed reference's booleans (verified, batched, scaling_at_least_4x)
// and its per-method latency percentiles (p99 regression > 2x fails).
//
// Flags: --requests=N (fleet phase)  --baseline-requests=N  --quick
//        --connections=C  --seed=S  --json-report=FILE  --no-json
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "sealpaa/sealpaa.hpp"

namespace {

using namespace sealpaa;

/// splitmix64 — the seeded arrival process and chain choices run on
/// this so the whole workload is a pure function of --seed.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// One distinct request configuration: the precomputed request line,
/// the byte-exact expected response frame, and the method label it
/// tallies under.  Requests reuse their config index as the wire id,
/// so a response is verified by lookup, never by arrival order.
struct Config {
  std::string request_line;    // no trailing newline
  std::string expected_frame;  // serialize_frame output, with newline
  std::string method;
};

struct Workload {
  std::vector<Config> configs;
  std::vector<std::uint32_t> schedule;  // config index per request
};

[[nodiscard]] std::string chain_json(
    const std::vector<adders::AdderCell>& stages) {
  std::string out = "[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += stages[i].name();
    out += '"';
  }
  out += ']';
  return out;
}

[[nodiscard]] std::string format_p(double p) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", p);
  return buffer;
}

/// The double the server will evaluate with is the parse of the wire
/// text, which can differ by an ulp from the grid arithmetic (0.3 +
/// 0.05 != parse("0.350")) — so expectations are computed from the
/// round-tripped value, never the raw grid value.
[[nodiscard]] double wire_p(const std::string& p_text) {
  return std::strtod(p_text.c_str(), nullptr);
}

/// The 48-key profile grid: widths {24, 28, 32} x 16 probabilities.
constexpr std::size_t kWidths[] = {24, 28, 32};
constexpr std::size_t kPs = 16;
[[nodiscard]] double grid_p(std::size_t j) {
  return 0.300 + 0.025 * static_cast<double>(j);
}

Workload build_workload(std::size_t total_requests, std::uint64_t seed) {
  const std::span<const adders::AdderCell> lpaas = adders::builtin_lpaas();
  Workload workload;

  struct Key {
    std::size_t width;
    double p;
    std::vector<std::uint32_t> analytic;  // config indices, 16 chains
    std::vector<std::uint32_t> recursive;  // beam family, 8 chains
  };
  std::vector<Key> keys;

  const auto add_config = [&workload](std::string line, std::string method,
                                      const engine::Evaluation& evaluation) {
    const std::uint64_t id = workload.configs.size();
    workload.configs.push_back(Config{
        std::move(line),
        service::serialize_frame(
            service::make_evaluation_response(obs::Json(id), evaluation)),
        std::move(method)});
    return static_cast<std::uint32_t>(id);
  };

  SplitMix chain_rng(seed * 0x2545f4914f6cdd1dull + 1);
  for (const std::size_t width : kWidths) {
    for (std::size_t j = 0; j < kPs; ++j) {
      const std::string p_text = format_p(grid_p(j));
      Key key{width, wire_p(p_text), {}, {}};
      const auto profile = multibit::InputProfile::uniform(width, key.p);

      // 16 analytic-pmf chains per profile, distinct from the first
      // stage on: cold visits pay full per-chain PMF propagation, hot
      // visits are answered from the evaluator's PMF cache.  The low
      // 12 stages are approximate with an accurate tail — the shape
      // such chains deploy as, and it keeps the error-PMF support well
      // under PmfOptions::max_support at width 32.
      for (std::size_t member = 0; member < 16; ++member) {
        std::vector<adders::AdderCell> stages;
        stages.reserve(width);
        for (std::size_t i = 0; i < width; ++i) {
          stages.push_back(i < 12 ? lpaas[chain_rng.below(lpaas.size())]
                                  : adders::accurate());
        }
        const engine::Evaluation evaluation = engine::evaluate(
            multibit::AdderChain(stages), profile,
            engine::Method::kAnalyticPmf);
        key.analytic.push_back(add_config(
            "{\"id\":" + std::to_string(workload.configs.size()) +
                ",\"method\":\"analytic-pmf\",\"width\":" +
                std::to_string(width) + ",\"chain\":" + chain_json(stages) +
                ",\"params\":{\"p\":" + p_text + ",\"timeout_ms\":300000}}",
            "analytic-pmf", evaluation));
      }

      // A beam-shaped recursive family: shared prefix, last two stages
      // enumerated — siblings share the profile's pooled evaluator.
      for (std::size_t member = 0; member < 8; ++member) {
        std::vector<adders::AdderCell> stages;
        stages.reserve(width);
        for (std::size_t i = 0; i + 2 < width; ++i) {
          stages.push_back(lpaas[(j * 7 + i * 3) % lpaas.size()]);
        }
        stages.push_back(lpaas[member % lpaas.size()]);
        stages.push_back(lpaas[(member / lpaas.size()) % lpaas.size()]);
        const engine::Evaluation evaluation =
            engine::evaluate(multibit::AdderChain(stages), profile,
                             engine::Method::kRecursive);
        key.recursive.push_back(add_config(
            "{\"id\":" + std::to_string(workload.configs.size()) +
                ",\"method\":\"recursive\",\"width\":" +
                std::to_string(width) + ",\"chain\":" + chain_json(stages) +
                ",\"params\":{\"p\":" + p_text + ",\"timeout_ms\":300000}}",
            "recursive", evaluation));
      }
      keys.push_back(std::move(key));
    }
  }

  // A few Monte Carlo probes and block-adder specs season the mix.
  std::vector<std::uint32_t> monte_carlo;
  for (std::size_t k = 0; k < 4; ++k) {
    const std::size_t width = 16;
    const std::uint64_t samples = 65536;
    std::vector<adders::AdderCell> stages;
    for (std::size_t i = 0; i < width; ++i) {
      stages.push_back(lpaas[(k + i) % lpaas.size()]);
    }
    const auto profile = multibit::InputProfile::uniform(width, 0.5);
    engine::EvaluateOptions options;
    options.samples = samples;
    const engine::Evaluation evaluation =
        engine::evaluate(multibit::AdderChain(stages), profile,
                         engine::Method::kMonteCarlo, options);
    monte_carlo.push_back(add_config(
        "{\"id\":" + std::to_string(workload.configs.size()) +
            ",\"method\":\"monte-carlo\",\"width\":" + std::to_string(width) +
            ",\"chain\":" + chain_json(stages) +
            ",\"params\":{\"samples\":" + std::to_string(samples) +
            ",\"timeout_ms\":300000}}",
        "monte-carlo", evaluation));
  }
  std::vector<std::uint32_t> block;
  for (std::size_t k = 0; k < 4; ++k) {
    const std::size_t width = kWidths[k % 3];
    const std::string p_text = format_p(grid_p((k * 5) % kPs));
    const auto profile =
        multibit::InputProfile::uniform(width, wire_p(p_text));
    engine::EvaluateOptions options;
    options.blocks =
        multibit::BlockChainSpec::parse(static_cast<int>(width), "aca:4");
    const engine::Evaluation evaluation = engine::evaluate(
        multibit::AdderChain(
            std::vector<adders::AdderCell>(width, lpaas[0])),
        profile, engine::Method::kBlockAnalytic, options);
    block.push_back(add_config(
        "{\"id\":" + std::to_string(workload.configs.size()) +
            ",\"method\":\"block-analytic\",\"width\":" +
            std::to_string(width) + ",\"blocks\":\"aca:4\"" +
            ",\"params\":{\"p\":" + p_text + ",\"timeout_ms\":300000}}",
        "block-analytic", evaluation));
  }

  // The arrival process: a cyclic sweep over the profile grid (the
  // LRU-pessimal order for an undersized pool) with a seeded burst of
  // 1-3 analytic-pmf requests per visit, recursive beam bursts and the
  // occasional simulation probe.
  SplitMix arrivals(seed);
  std::vector<std::size_t> cursor(keys.size(), 0);
  std::size_t sweep_position = 0;
  while (workload.schedule.size() < total_requests) {
    const std::size_t key_index = sweep_position;
    Key& key = keys[key_index];
    sweep_position = (sweep_position + 1) % keys.size();
    const std::size_t burst = 1 + arrivals.below(3);
    for (std::size_t b = 0; b < burst; ++b) {
      workload.schedule.push_back(
          key.analytic[cursor[key_index]++ % key.analytic.size()]);
    }
    const std::uint64_t roll = arrivals.below(100);
    if (roll < 6) {
      // A beam expansion: several siblings at once, sharing a prefix.
      const std::size_t lanes = 2 + arrivals.below(3);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        workload.schedule.push_back(
            key.recursive[arrivals.below(key.recursive.size())]);
      }
    } else if (roll < 8) {
      workload.schedule.push_back(
          monte_carlo[arrivals.below(monte_carlo.size())]);
    } else if (roll < 10) {
      workload.schedule.push_back(block[arrivals.below(block.size())]);
    }
  }
  workload.schedule.resize(total_requests);
  return workload;
}

struct PhaseResult {
  double seconds = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;
  /// Verified ok responses per method label.
  std::map<std::string, std::uint64_t> ok_by_method;
  int serve_rc = -1;
  obs::Json server_stats;
};

/// Parses the `"id":N` a response frame echoes, or -1.
[[nodiscard]] std::int64_t response_id(const std::string& frame) {
  const std::size_t at = frame.find("\"id\":");
  if (at == std::string::npos) return -1;
  std::size_t i = at + 5;
  std::int64_t value = 0;
  bool digits = false;
  while (i < frame.size() && frame[i] >= '0' && frame[i] <= '9') {
    value = value * 10 + (frame[i] - '0');
    ++i;
    digits = true;
  }
  return digits ? value : -1;
}

/// Runs the whole schedule against a fresh server with `workers`
/// dispatch workers: `connections` clients each pump their slice of the
/// schedule from a sender thread while a reader thread verifies every
/// response by id — responses may complete out of order.
PhaseResult run_phase(unsigned workers, unsigned connections,
                      const Workload& workload) {
  service::ServerOptions options;
  options.port = 0;  // ephemeral: parallel CI jobs must not collide
  options.dispatcher.dispatch_threads = workers;
  service::Server server(options);
  const std::uint16_t port = server.start();
  PhaseResult result;
  std::thread io([&] { result.serve_rc = server.serve(); });

  // Slice the schedule round-robin and precompute each connection's
  // request byte stream.
  std::vector<std::string> streams(connections);
  std::vector<std::vector<std::uint64_t>> expected_counts(
      connections, std::vector<std::uint64_t>(workload.configs.size(), 0));
  std::vector<std::uint64_t> totals(connections, 0);
  for (std::size_t i = 0; i < workload.schedule.size(); ++i) {
    const std::uint32_t config = workload.schedule[i];
    const std::size_t connection = i % connections;
    streams[connection] += workload.configs[config].request_line;
    streams[connection] += '\n';
    expected_counts[connection][config] += 1;
    totals[connection] += 1;
  }

  std::vector<std::uint64_t> mismatches(connections, 0);
  std::vector<std::map<std::string, std::uint64_t>> ok_by_method(
      connections);
  const util::WallTimer timer;
  std::vector<std::thread> pumps;
  pumps.reserve(connections);
  for (unsigned c = 0; c < connections; ++c) {
    pumps.emplace_back([&, c] {
      try {
        service::Client client;
        client.connect("127.0.0.1", port);
        // The sender thread pushes the whole stream (the server's
        // per-connection inflight cap applies backpressure) while this
        // thread verifies responses as they complete.
        std::thread sender(
            [&client, &streams, c] { client.send_bytes(streams[c]); });
        for (std::uint64_t n = 0; n < totals[c]; ++n) {
          const auto frame = client.read_frame();
          if (!frame) {
            mismatches[c] += totals[c] - n;
            break;
          }
          const std::int64_t id = response_id(*frame);
          if (id < 0 ||
              static_cast<std::size_t>(id) >= workload.configs.size() ||
              expected_counts[c][static_cast<std::size_t>(id)] == 0) {
            mismatches[c] += 1;
            continue;
          }
          const Config& config =
              workload.configs[static_cast<std::size_t>(id)];
          const std::string& expected = config.expected_frame;
          if (frame->size() + 1 != expected.size() ||
              expected.compare(0, frame->size(), *frame) != 0) {
            mismatches[c] += 1;
          } else {
            ok_by_method[c][config.method] += 1;
          }
          expected_counts[c][static_cast<std::size_t>(id)] -= 1;
        }
        sender.join();
        client.close();
      } catch (const std::exception& e) {
        std::cerr << "connection " << c << " failed: " << e.what() << "\n";
        mismatches[c] += 1;
      }
    });
  }
  for (std::thread& pump : pumps) pump.join();
  result.seconds = timer.elapsed_seconds();
  result.requests = workload.schedule.size();
  for (unsigned c = 0; c < connections; ++c) {
    result.mismatches += mismatches[c];
    for (const auto& [method, ok] : ok_by_method[c]) {
      result.ok_by_method[method] += ok;
    }
  }

  {
    service::Client client;
    client.connect("127.0.0.1", port);
    client.send_frame(R"({"id":"stats","method":"stats"})");
    const auto response = client.read_frame();
    const obs::Json parsed =
        response ? obs::Json::parse(*response) : obs::Json();
    if (const obs::Json* stats = parsed.find("stats")) {
      result.server_stats = *stats;
    } else {
      result.mismatches += 1;
    }
    client.close();
  }
  server.request_stop();
  io.join();
  return result;
}

/// The counter at the dotted `path` below `stats`; 0 when absent.
[[nodiscard]] std::uint64_t stat_at(const obs::Json& stats,
                                    std::string_view path) {
  const obs::Json* node = &stats;
  for (std::size_t begin = 0; node != nullptr && begin <= path.size();) {
    const std::size_t end = std::min(path.find('.', begin), path.size());
    node = node->find(std::string(path.substr(begin, end - begin)));
    begin = end + 1;
  }
  return node == nullptr ? 0 : node->unsigned_integer();
}

/// Checks that a phase's final `stats` reconcile with what its clients
/// saw: every evaluation request plus the stats request itself were
/// received, received = ok + errors, the per-method counts and the batch
/// sizes each sum to the evaluations, each method's count minus its
/// errors is that method's ok responses, the PMF cache ran one chain and
/// one probe per ok analytic-pmf response, and every top-level total is
/// the sum over the shards.  Prints each broken invariant.
[[nodiscard]] bool stats_reconcile(const char* phase,
                                   const PhaseResult& result) {
  const obs::Json& stats = result.server_stats;
  const std::uint64_t evaluations = result.requests;
  bool holds = true;
  const auto expect = [&](std::uint64_t got, std::uint64_t want,
                          const std::string& what) {
    if (got == want) return;
    std::cerr << "FAIL: " << phase << " stats: " << what << " = " << got
              << ", expected " << want << "\n";
    holds = false;
  };
  const std::uint64_t received = stat_at(stats, "requests.received");
  expect(received, evaluations + 1, "requests.received");
  expect(stat_at(stats, "requests.ok") + stat_at(stats, "requests.errors"),
         received, "requests.ok + requests.errors");
  expect(stat_at(stats, "batches.size.sum"), evaluations, "batches.size.sum");
  const auto ok_of = [&result](const std::string& method) -> std::uint64_t {
    const auto it = result.ok_by_method.find(method);
    return it == result.ok_by_method.end() ? 0 : it->second;
  };
  const std::uint64_t pmf_chains =
      stat_at(stats, "evaluators.pmf_cache.chains_evaluated");
  expect(pmf_chains, ok_of("analytic-pmf"),
         "evaluators.pmf_cache.chains_evaluated (ok analytic-pmf responses)");
  expect(stat_at(stats, "evaluators.pmf_cache.hits") +
             stat_at(stats, "evaluators.pmf_cache.misses"),
         pmf_chains, "evaluators.pmf_cache.hits + misses");

  std::vector<std::string> totals = {
      "batches.count", "batches.size.count", "batches.size.sum",
      "dispatch.cut_through_batches", "dispatch.coalesced_batches",
      "evaluators.live", "evaluators.created", "evaluators.evicted",
      "evaluators.pool_hits"};
  for (const char* key : {"hits", "misses", "insertions", "evictions",
                          "stages_computed", "chains_evaluated"}) {
    totals.push_back("evaluators.pmf_cache." + std::string(key));
  }
  std::uint64_t method_count = 0;
  if (const obs::Json* methods = stats.find("methods")) {
    for (const auto& [name, method] : methods->items()) {
      method_count += stat_at(method, "count");
      expect(stat_at(method, "count") - stat_at(method, "errors"),
             ok_of(name),
             "methods." + name + ".count - errors (ok " + name +
                 " responses)");
      totals.push_back("methods." + name + ".count");
      totals.push_back("methods." + name + ".errors");
    }
  }
  expect(method_count, evaluations, "sum of methods.*.count");

  const obs::Json* shards = stats.find("shards");
  for (const std::string& path : totals) {
    // A shard entry holds its dispatch counters at its top level.
    const std::string shard_path =
        path.starts_with("dispatch.") ? path.substr(9) : path;
    std::uint64_t sum = 0;
    for (std::size_t s = 0; shards != nullptr && s < shards->size(); ++s) {
      sum += stat_at(shards->at(s), shard_path);
    }
    expect(stat_at(stats, path), sum, path + " (sum over shards)");
  }
  return holds;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  try {
    args.expect_flags({"requests", "baseline-requests", "connections", "seed",
                       "quick", "json-report", "no-json"});
    const bool quick = args.get_bool("quick", false);
    const std::size_t fleet_requests = static_cast<std::size_t>(
        args.get_uint("requests", quick ? 2000 : 60000));
    const std::size_t baseline_requests = static_cast<std::size_t>(
        args.get_uint("baseline-requests", quick ? 1000 : 6000));
    const unsigned connections =
        static_cast<unsigned>(args.get_uint("connections", 4));
    const std::uint64_t seed = args.get_uint("seed", 0x10adc0de);

    std::cout << util::banner(
        "service load: sharded fleet (4 workers) vs single dispatch worker");
    std::cout << "profile grid: " << (std::size(kWidths) * kPs)
              << " (width, p) keys  fleet requests: "
              << util::with_commas(fleet_requests)
              << "  baseline requests: "
              << util::with_commas(baseline_requests) << "  connections: "
              << connections << "\n";

    obs::RunReport report("sealpaa_loadgen");
    report.record_args(args);
    obs::ScopedTimer total(report.counters(), "total");

    std::cout << "building workload + expected responses ..." << std::flush;
    const Workload fleet_load = build_workload(fleet_requests, seed);
    Workload baseline_load = fleet_load;
    baseline_load.schedule.resize(
        std::min(baseline_requests, baseline_load.schedule.size()));
    std::cout << " " << fleet_load.configs.size() << " configs\n";

    PhaseResult baseline = run_phase(1, connections, baseline_load);
    const double baseline_rps =
        baseline.seconds > 0.0
            ? static_cast<double>(baseline.requests) / baseline.seconds
            : 0.0;
    std::cout << "  1 worker : " << util::with_commas(baseline.requests)
              << " requests in " << util::duration(baseline.seconds) << "  ("
              << util::with_commas(static_cast<std::uint64_t>(baseline_rps))
              << " req/s)\n";

    PhaseResult fleet = run_phase(4, connections, fleet_load);
    const double fleet_rps =
        fleet.seconds > 0.0
            ? static_cast<double>(fleet.requests) / fleet.seconds
            : 0.0;
    std::cout << "  4 workers: " << util::with_commas(fleet.requests)
              << " requests in " << util::duration(fleet.seconds) << "  ("
              << util::with_commas(static_cast<std::uint64_t>(fleet_rps))
              << " req/s)\n";

    const double speedup = baseline_rps > 0.0 ? fleet_rps / baseline_rps : 0.0;
    const std::uint64_t batch_size_p50 =
        stat_at(fleet.server_stats, "batches.size.p50");
    const std::uint64_t batch_size_p99 =
        stat_at(fleet.server_stats, "batches.size.p99");
    const std::uint64_t mismatches = baseline.mismatches + fleet.mismatches;
    const bool verified =
        mismatches == 0 && baseline.serve_rc == 0 && fleet.serve_rc == 0;
    const bool batched = batch_size_p50 > 1;
    const bool baseline_reconciled = stats_reconcile("baseline", baseline);
    const bool fleet_reconciled = stats_reconcile("fleet", fleet);
    const bool reconciled = baseline_reconciled && fleet_reconciled;
    const bool scaling_at_least_4x = speedup >= 4.0;

    std::cout << "worker scaling = " << util::fixed(speedup, 2)
              << "x  batch size p50/p99 = " << batch_size_p50 << "/"
              << batch_size_p99 << "  verified vs engine::evaluate: "
              << (verified ? "yes" : "NO")
              << "  stats reconcile: " << (reconciled ? "yes" : "NO") << "\n";
    if (mismatches != 0) {
      std::cerr << "FAIL: " << util::with_commas(mismatches)
                << " responses diverged from engine::evaluate\n";
    }
    if (baseline.serve_rc != 0 || fleet.serve_rc != 0) {
      std::cerr << "FAIL: server drain returned " << baseline.serve_rc << "/"
                << fleet.serve_rc << "\n";
    }
    if (!batched) {
      std::cerr << "FAIL: batch size p50 " << batch_size_p50
                << " — batches never formed under load\n";
    }
    if (!scaling_at_least_4x && !quick) {
      std::cerr << "FAIL: 4-worker scaling " << util::fixed(speedup, 2)
                << "x < 4x — sharded pools no longer pay for themselves\n";
    }

    total.stop();
    obs::Json& section = report.section("service_load");
    section.set("keys", obs::Json(static_cast<std::uint64_t>(
                            std::size(kWidths) * kPs)));
    section.set("configs", obs::Json(static_cast<std::uint64_t>(
                               fleet_load.configs.size())));
    section.set("fleet_requests", obs::Json(fleet.requests));
    section.set("baseline_requests", obs::Json(baseline.requests));
    section.set("connections",
                obs::Json(static_cast<std::uint64_t>(connections)));
    section.set("baseline_rps", obs::Json(baseline_rps));
    section.set("fleet_rps", obs::Json(fleet_rps));
    section.set("worker_scaling_speedup", obs::Json(speedup));
    section.set("scaling_at_least_4x", obs::Json(scaling_at_least_4x));
    section.set("batch_size_p50", obs::Json(batch_size_p50));
    section.set("batch_size_p99", obs::Json(batch_size_p99));
    section.set("batched", obs::Json(batched));
    section.set("mismatches", obs::Json(mismatches));
    section.set("verified", obs::Json(verified));
    section.set("cut_through_batches",
                obs::Json(stat_at(fleet.server_stats,
                                  "dispatch.cut_through_batches")));
    section.set("coalesced_batches",
                obs::Json(stat_at(fleet.server_stats,
                                  "dispatch.coalesced_batches")));
    // Per-method evaluation latency percentiles from the fleet phase —
    // the keys the p99-regression gate in check_bench_regression.py
    // watches (lower is better, >2x the reference fails).
    const std::pair<const char*, const char*> methods[] = {
        {"analytic-pmf", "analytic_pmf"},
        {"recursive", "recursive"},
        {"monte-carlo", "monte_carlo"},
        {"block-analytic", "block_analytic"},
    };
    for (const auto& [wire_name, key] : methods) {
      const std::string latency =
          std::string("methods.") + wire_name + ".latency_us.";
      section.set(std::string(key) + "_p50_us",
                  obs::Json(stat_at(fleet.server_stats, latency + "p50")));
      section.set(std::string(key) + "_p99_us",
                  obs::Json(stat_at(fleet.server_stats, latency + "p99")));
    }
    section.set("server_stats_fleet", std::move(fleet.server_stats));
    section.set("server_stats_baseline", std::move(baseline.server_stats));

    if (const auto path = obs::report_path(args, "BENCH_service_load.json")) {
      report.write_file(*path);
      std::cout << "json report written to " << *path << "\n";
    }
    // --quick runs are far too small to expose the single-pool thrash
    // the scaling gate measures; they gate correctness, batching and
    // stats reconciliation only.
    return verified && batched && reconciled && (scaling_at_least_4x || quick)
               ? 0
               : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
