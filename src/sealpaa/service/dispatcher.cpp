#include "sealpaa/service/dispatcher.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/obs/serialize.hpp"
#include "sealpaa/util/timer.hpp"

namespace sealpaa::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Most requests one worker takes from its queue as one batch.
constexpr std::size_t kBatchMax = 256;

[[nodiscard]] std::vector<adders::AdderCell> builtin_palette() {
  const std::span<const adders::AdderCell> cells = adders::all_builtin_cells();
  return {cells.begin(), cells.end()};
}

struct MethodStats {
  std::uint64_t count = 0;
  std::uint64_t errors = 0;
  obs::Histogram latency_us;
};

/// Accounting one worker publishes after each batch.  Guarded by
/// Shard::stats_mutex, so stats requests read a coherent snapshot
/// without ever touching the worker's live EvaluatorPool.
struct ShardStats {
  std::uint64_t batches = 0;
  obs::Histogram batch_sizes;
  std::map<std::string, MethodStats> methods;
  std::uint64_t pool_live = 0;
  std::uint64_t pool_created = 0;
  std::uint64_t pool_evicted = 0;
  std::uint64_t pool_hits = 0;
  engine::CacheStats pmf{};

  /// Folds another shard's snapshot in: the fleet-wide totals are the
  /// sum over shards of every counter and histogram.
  void merge(const ShardStats& other) {
    batches += other.batches;
    batch_sizes.merge(other.batch_sizes);
    for (const auto& [name, stats] : other.methods) {
      MethodStats& merged = methods[name];
      merged.count += stats.count;
      merged.errors += stats.errors;
      merged.latency_us.merge(stats.latency_us);
    }
    pool_live += other.pool_live;
    pool_created += other.pool_created;
    pool_evicted += other.pool_evicted;
    pool_hits += other.pool_hits;
    pmf.merge(other.pmf);
  }
};

[[nodiscard]] obs::Json batches_to_json(const ShardStats& stats) {
  obs::Json out = obs::Json::object();
  out.set("count", obs::Json(stats.batches));
  out.set("size", stats.batch_sizes.to_json());
  return out;
}

/// Batch-kind keys the repository benchmark still reads: a worker runs
/// each batch as soon as it takes it, so every batch is cut through and
/// none coalesced.  No counter stands behind them; they go when the
/// benchmark's `cut_through_frac` does.
void set_batch_kinds(obs::Json& out, const ShardStats& stats) {
  out.set("cut_through_batches", obs::Json(stats.batches));
  out.set("coalesced_batches", obs::Json(std::uint64_t{0}));
}

[[nodiscard]] obs::Json methods_to_json(
    const std::map<std::string, MethodStats>& methods) {
  obs::Json out = obs::Json::object();
  for (const auto& [name, stats] : methods) {
    obs::Json entry = obs::Json::object();
    entry.set("count", obs::Json(stats.count));
    entry.set("errors", obs::Json(stats.errors));
    entry.set("latency_us", stats.latency_us.to_json());
    out.set(name, std::move(entry));
  }
  return out;
}

[[nodiscard]] obs::Json evaluators_to_json(const ShardStats& stats) {
  obs::Json out = obs::Json::object();
  out.set("live", obs::Json(stats.pool_live));
  out.set("created", obs::Json(stats.pool_created));
  out.set("evicted", obs::Json(stats.pool_evicted));
  out.set("pool_hits", obs::Json(stats.pool_hits));
  out.set("pmf_cache", obs::to_json(stats.pmf));
  return out;
}

}  // namespace

/// One framed request after parsing: the origin, the validated request,
/// and the chain resolved to palette indices.
struct Dispatcher::ParsedItem {
  PendingRequest pending;
  Request request;
  std::vector<std::size_t> choices;
};

/// One dispatch worker's world: its queue and its own EvaluatorPool.  The
/// pool is touched only by the owning worker, so evaluator state needs no
/// locking.
struct Dispatcher::Shard {
  Shard(unsigned index_, std::vector<adders::AdderCell> palette,
        const engine::EvaluatorPoolOptions& pool_options)
      : index(index_), pool(std::move(palette), pool_options) {}

  const unsigned index;

  std::mutex mutex;  // guards queue / draining / high_water
  std::condition_variable cv;
  std::deque<ParsedItem> queue;
  bool draining = false;
  std::uint64_t high_water = 0;

  engine::EvaluatorPool pool;

  std::mutex stats_mutex;
  ShardStats stats;

  std::thread worker;
};

Dispatcher::Dispatcher(DispatcherOptions options) : options_(options) {
  if (options_.dispatch_threads == 0) options_.dispatch_threads = 1;
  palette_ = builtin_palette();
  palette_index_.reserve(palette_.size());
  for (std::size_t i = 0; i < palette_.size(); ++i) {
    palette_index_.emplace(palette_[i].name(), i);
  }
  shards_.reserve(options_.dispatch_threads);
  for (unsigned shard = 0; shard < options_.dispatch_threads; ++shard) {
    shards_.push_back(
        std::make_unique<Shard>(shard, palette_, options_.pool));
  }
}

Dispatcher::~Dispatcher() { stop(); }

unsigned Dispatcher::shard_of(std::size_t width, double p,
                              unsigned shards) noexcept {
  if (shards <= 1) return 0;
  // FNV-1a over the exact (width, p) bits — the same identity the
  // EvaluatorPool keys on for uniform profiles, so one profile's
  // evaluators can never be split across two workers.  The murmur3
  // fmix64 finalizer avalanches the hash: plain FNV's low bits barely
  // move for small-integer widths, collapsing every profile onto shard
  // 0 at small worker counts.
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (unsigned byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  };
  mix(static_cast<std::uint64_t>(width));
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(p));
  std::memcpy(&bits, &p, sizeof(bits));
  mix(bits);
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ull;
  hash ^= hash >> 33;
  return static_cast<unsigned>(hash % shards);
}

void Dispatcher::start(ResponseSink sink) {
  if (started_) return;
  sink_ = std::move(sink);
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->draining = false;
    }
    shard->worker =
        std::thread([this, shard = shard.get()] { worker_loop(*shard); });
  }
  started_ = true;
}

void Dispatcher::submit(PendingRequest request) {
  requests_received_.fetch_add(1, std::memory_order_relaxed);
  ParsedItem item;
  switch (admit(std::move(request), &item)) {
    case Admission::kResponded:
      return;
    case Admission::kControl:
      // Answered inline: control requests never queue behind
      // evaluations (a stats probe may race ahead of an in-flight
      // batch — by design).
      requests_ok_.fetch_add(1, std::memory_order_relaxed);
      sink_(OutgoingResponse{item.pending.connection, item.pending.sequence,
                             serialize_frame(control_response(item.request))});
      return;
    case Admission::kEvaluate:
      route(std::move(item));
      return;
  }
}

void Dispatcher::drain() {
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  drain_cv_.wait(lock, [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

void Dispatcher::stop() {
  if (!started_) return;
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->draining = true;
    }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  started_ = false;
}

Dispatcher::Admission Dispatcher::admit(PendingRequest pending,
                                        ParsedItem* item) {
  ParseOutcome outcome = parse_request(pending.frame, options_.limits);
  if (outcome.error) {
    requests_error_.fetch_add(1, std::memory_order_relaxed);
    sink_(OutgoingResponse{
        pending.connection, pending.sequence,
        serialize_frame(make_error_response(outcome.id, outcome.error->code,
                                            outcome.error->message))});
    return Admission::kResponded;
  }
  item->pending = std::move(pending);
  item->request = std::move(*outcome.request);
  item->choices.clear();
  if (item->request.kind != Request::Kind::kEvaluate) {
    return Admission::kControl;
  }
  item->choices.reserve(item->request.chain.size());
  for (const std::string& name : item->request.chain) {
    const auto found = palette_index_.find(name);
    if (found == palette_index_.end()) {
      requests_error_.fetch_add(1, std::memory_order_relaxed);
      sink_(OutgoingResponse{
          item->pending.connection, item->pending.sequence,
          serialize_frame(make_error_response(
              item->request.id, error_code::kUnknownCell,
              "unknown cell '" + name + "' (try: sealpaa_cli cells)"))});
      return Admission::kResponded;
    }
    item->choices.push_back(found->second);
  }
  return Admission::kEvaluate;
}

void Dispatcher::route(ParsedItem item) {
  Shard& shard = *shards_[shard_of(item.request.width, item.request.p,
                                   static_cast<unsigned>(shards_.size()))];
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.queue.push_back(std::move(item));
    shard.high_water = std::max(shard.high_water,
                                static_cast<std::uint64_t>(shard.queue.size()));
  }
  shard.cv.notify_one();
}

void Dispatcher::worker_loop(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mutex);
  for (;;) {
    shard.cv.wait(lock, [&shard] {
      return !shard.queue.empty() || shard.draining;
    });
    if (shard.queue.empty()) return;  // draining and nothing left to do
    // Take what queued while the previous batch ran, never waiting for
    // more: a lone request runs at once.
    const std::size_t take = std::min(shard.queue.size(), kBatchMax);
    std::vector<ParsedItem> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(shard.queue.front()));
      shard.queue.pop_front();
    }
    lock.unlock();
    process_batch(shard, std::move(batch));
    {
      std::lock_guard<std::mutex> guard(lifecycle_mutex_);
      inflight_.fetch_sub(take, std::memory_order_acq_rel);
    }
    drain_cv_.notify_all();
    lock.lock();
  }
}

void Dispatcher::process_batch(Shard& shard, std::vector<ParsedItem> items) {
  struct Slot {
    obs::Json response;
    bool error = false;
    std::uint64_t micros = 0;
  };
  std::vector<Slot> slots(items.size());

  // Recursive and analytic-pmf requests run on their profile's pooled
  // ChainEvaluator, acquired once per batch.  The key is the width plus
  // the exact probability bits — the identity EvaluatorPool keys on for
  // uniform profiles.
  std::map<std::string, std::shared_ptr<engine::ChainEvaluator>> evaluators;
  const auto evaluate = [&](const ParsedItem& item) {
    const Request& request = item.request;
    if (request.method == engine::Method::kRecursive ||
        request.method == engine::Method::kAnalyticPmf) {
      std::string key = std::to_string(request.width);
      key.push_back(':');
      key.append(reinterpret_cast<const char*>(&request.p), sizeof(double));
      std::shared_ptr<engine::ChainEvaluator>& evaluator = evaluators[key];
      if (!evaluator) {
        evaluator = shard.pool.acquire(
            multibit::InputProfile::uniform(request.width, request.p));
      }
      // ChainEvaluator::evaluate is bit-identical to
      // RecursiveAnalyzer::analyze and error_pmf to propagate_error_pmf
      // for a full-width chain, so this response is byte-for-byte what
      // engine::evaluate serializes — the PMF cache only changes how
      // often stages recompute.
      analysis::AnalysisResult result = evaluator->evaluate(item.choices);
      std::optional<analysis::ErrorPmf> pmf;
      if (request.method == engine::Method::kAnalyticPmf) {
        pmf = evaluator->error_pmf(item.choices);
      }
      return engine::to_evaluation(request.method, std::move(result),
                                   request.width, pmf ? &*pmf : nullptr);
    }
    std::vector<adders::AdderCell> stages;
    stages.reserve(item.choices.size());
    for (const std::size_t choice : item.choices) {
      stages.push_back(palette_[choice]);
    }
    engine::EvaluateOptions options;
    options.samples = request.samples;
    options.seed = request.seed;
    options.kernel = request.kernel;
    options.blocks = request.blocks;
    // Evaluate inline: dispatch workers must not contend for the shared
    // thread pool.  Monte Carlo results are thread-count-independent
    // (disjoint jump streams), so responses stay byte-identical to any
    // other worker count.
    options.threads = 1;
    return engine::evaluate(
        multibit::AdderChain(std::move(stages)),
        multibit::InputProfile::uniform(request.width, request.p),
        request.method, options);
  };

  for (std::size_t i = 0; i < items.size(); ++i) {
    Slot& slot = slots[i];
    const ParsedItem& item = items[i];
    const Request& request = item.request;
    const util::WallTimer timer;
    try {
      if (request.timeout_ms == 0 ||
          Clock::now() >= item.pending.arrival +
                              std::chrono::milliseconds(request.timeout_ms)) {
        slot.response = make_error_response(
            request.id, error_code::kTimeout,
            "deadline of " + std::to_string(request.timeout_ms) +
                " ms expired before evaluation started");
        slot.error = true;
      } else {
        slot.response = make_evaluation_response(request.id, evaluate(item));
      }
    } catch (const std::invalid_argument& e) {
      slot.response =
          make_error_response(request.id, error_code::kBadRequest, e.what());
      slot.error = true;
    } catch (const std::exception& e) {
      slot.response =
          make_error_response(request.id, error_code::kInternal, e.what());
      slot.error = true;
    }
    slot.micros = static_cast<std::uint64_t>(timer.elapsed_seconds() * 1e6);
  }

  // Publish before emitting: a client that reads a response and then
  // asks for stats must find that response counted.  The sink runs after
  // stats_mutex is released, so it may call stats_json() itself.
  std::uint64_t errors = 0;
  for (const Slot& slot : slots) errors += slot.error ? 1 : 0;
  requests_ok_.fetch_add(items.size() - errors, std::memory_order_relaxed);
  requests_error_.fetch_add(errors, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> guard(shard.stats_mutex);
    ShardStats& stats = shard.stats;
    stats.batches += 1;
    stats.batch_sizes.record(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      MethodStats& method = stats.methods[std::string(
          engine::method_name(items[i].request.method))];
      method.count += 1;
      if (slots[i].error) method.errors += 1;
      method.latency_us.record(slots[i].micros);
    }
    stats.pool_live = static_cast<std::uint64_t>(shard.pool.size());
    stats.pool_created = shard.pool.created();
    stats.pool_evicted = shard.pool.evicted();
    stats.pool_hits = shard.pool.pool_hits();
    stats.pmf = shard.pool.aggregate_pmf_stats();
  }

  // Emit in queue order.  Each connection submits its requests in
  // sequence order, so one shard's responses to one connection leave
  // FIFO; only responses from different shards interleave on the wire.
  for (std::size_t i = 0; i < items.size(); ++i) {
    sink_(OutgoingResponse{items[i].pending.connection,
                          items[i].pending.sequence,
                          serialize_frame(slots[i].response)});
  }
}

obs::Json Dispatcher::control_response(const Request& request) const {
  if (request.kind == Request::Kind::kPing) {
    return make_ping_response(request.id);
  }
  obs::Json out = obs::Json::object();
  out.set("schema", obs::Json(std::string(kWireSchema)));
  out.set("schema_version", obs::Json(kWireSchemaVersion));
  out.set("id", request.id);
  out.set("ok", obs::Json(true));
  out.set("stats", stats_json());
  return out;
}

obs::Json Dispatcher::stats_json() const {
  ShardStats totals;
  std::uint64_t queue_high_water = 0;
  obs::Json shards = obs::Json::array();
  for (const auto& shard : shards_) {
    ShardStats snapshot;
    {
      std::lock_guard<std::mutex> guard(shard->stats_mutex);
      snapshot = shard->stats;
    }
    std::uint64_t high_water = 0;
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      high_water = shard->high_water;
    }
    totals.merge(snapshot);
    queue_high_water = std::max(queue_high_water, high_water);

    obs::Json entry = obs::Json::object();
    entry.set("index", obs::Json(static_cast<std::uint64_t>(shard->index)));
    entry.set("batches", batches_to_json(snapshot));
    set_batch_kinds(entry, snapshot);
    entry.set("queue_high_water", obs::Json(high_water));
    entry.set("evaluators", evaluators_to_json(snapshot));
    entry.set("methods", methods_to_json(snapshot.methods));
    shards.push_back(std::move(entry));
  }

  obs::Json out = obs::Json::object();

  obs::Json requests = obs::Json::object();
  requests.set("received",
               obs::Json(requests_received_.load(std::memory_order_relaxed)));
  requests.set("ok", obs::Json(requests_ok_.load(std::memory_order_relaxed)));
  requests.set("errors",
               obs::Json(requests_error_.load(std::memory_order_relaxed)));
  out.set("requests", std::move(requests));
  out.set("batches", batches_to_json(totals));

  obs::Json dispatch = obs::Json::object();
  dispatch.set("workers",
               obs::Json(static_cast<std::uint64_t>(shards_.size())));
  dispatch.set("batch_max", obs::Json(static_cast<std::uint64_t>(kBatchMax)));
  set_batch_kinds(dispatch, totals);
  dispatch.set("queue_high_water", obs::Json(queue_high_water));
  out.set("dispatch", std::move(dispatch));

  out.set("evaluators", evaluators_to_json(totals));
  out.set("methods", methods_to_json(totals.methods));
  out.set("shards", std::move(shards));
  return out;
}

std::uint64_t Dispatcher::requests_served() const noexcept {
  return requests_ok_.load(std::memory_order_relaxed) +
         requests_error_.load(std::memory_order_relaxed);
}

}  // namespace sealpaa::service
