// Sharded multi-worker request dispatcher — the bridge between the
// transport layer and engine::evaluate.
//
// The dispatcher owns N dispatch workers (`DispatcherOptions::
// dispatch_threads`), each with its own request queue and its own
// engine::EvaluatorPool.  submit() parses a frame on the caller's
// thread (cheap, bounded by the frame limit) and routes it to the shard
// of its `(width, profile)` key, so every request against one profile
// always lands on the same worker: evaluator state is never shared
// across threads, and a design-sweep client's chains keep hitting one
// evaluator's matrices and PMF cache no matter how many workers run.
// Control requests (ping / stats) are answered inline by submit() — they
// never queue behind evaluations.
//
// Each worker waits for work, takes everything queued on its shard (at
// most 256 requests) as one batch, runs it and emits the responses in
// queue order.  A lone request runs at once; a pipelined burst that
// queued while the previous batch ran is taken whole, so its requests
// share one pooled evaluator per profile.  A batch runs its requests one
// at a time: recursive and analytic-pmf requests on their profile's
// pooled ChainEvaluator (acquired once per batch), every other method
// through engine::evaluate, each timed on its own.  Responses are
// emitted through the sink as each shard batch completes, so responses
// to one connection complete out of order across shards — clients match
// them by request id.  Within one shard (hence one profile) a
// connection's responses leave in the order its requests were
// submitted.
//
// Robustness contract: a batch never throws.  Malformed frames, limit
// violations, expired deadlines and engine rejections all become
// structured error responses; every submitted request produces exactly
// one response.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sealpaa/engine/evaluator_pool.hpp"
#include "sealpaa/obs/counters.hpp"
#include "sealpaa/obs/histogram.hpp"
#include "sealpaa/service/wire.hpp"

namespace sealpaa::service {

struct DispatcherOptions {
  WireLimits limits{};
  engine::EvaluatorPoolOptions pool{};
  /// Dispatch workers; each owns one shard queue + one EvaluatorPool.
  unsigned dispatch_threads = 1;
};

/// One framed request as the transport saw it, tagged with its origin so
/// responses can be routed and ordered.
struct PendingRequest {
  std::uint64_t connection = 0;
  std::uint64_t sequence = 0;  // per-connection arrival order
  FrameSplitter::Frame frame;
  std::chrono::steady_clock::time_point arrival{};
};

/// One serialized response line, addressed back to its connection.
struct OutgoingResponse {
  std::uint64_t connection = 0;
  std::uint64_t sequence = 0;
  std::string frame;  // newline-terminated JSON
};

class Dispatcher {
 public:
  /// Called with each finished response.  May be invoked from any
  /// dispatch worker and from the submit() caller (parse errors and
  /// control requests) — implementations synchronize themselves.
  using ResponseSink = std::function<void(OutgoingResponse)>;

  explicit Dispatcher(DispatcherOptions options = {});
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Spawns the dispatch workers and installs the response sink.  Must
  /// be called before submit(); idempotent once started.
  void start(ResponseSink sink);

  /// Parses `request` and either answers it immediately through the
  /// sink (parse errors, ping, stats) or enqueues it on its profile's
  /// shard.  Thread-safe against the workers; call from one submitting
  /// thread at a time (the server's IO thread), each connection's
  /// requests in sequence order — a shard answers in submission order.
  /// Well-formed evaluation requests may be submitted before start() —
  /// they queue and run once the workers spawn — but anything answered
  /// through the sink requires start() first.
  void submit(PendingRequest request);

  /// Blocks until every submitted request has been answered.
  void drain();

  /// Drains, then joins the workers.  start() may be called again
  /// afterwards.  Called by the destructor.
  void stop();

  /// Lifetime service statistics: request/batch counters, evaluator-
  /// pool and PMF-cache accounting and per-method latency histograms —
  /// aggregated across shards, plus a per-shard breakdown under
  /// "shards".  The payload of a {"method": "stats"} response.
  /// Thread-safe (reads the per-shard snapshots workers publish after
  /// each batch).
  [[nodiscard]] obs::Json stats_json() const;

  [[nodiscard]] const WireLimits& limits() const noexcept {
    return options_.limits;
  }
  [[nodiscard]] std::uint64_t requests_served() const noexcept;

  /// Shard a `(width, p)` profile key routes to under `shards` workers.
  /// Exposed so tests (and the smoke suite's fixtures) can pick keys
  /// that provably land on different workers.
  [[nodiscard]] static unsigned shard_of(std::size_t width, double p,
                                         unsigned shards) noexcept;

 private:
  struct Shard;
  struct ParsedItem;

  /// What became of one frame inside admit().
  enum class Admission {
    kResponded,  // parse error / unknown cell — response already emitted
    kControl,    // ping or stats, `item` holds the parsed request
    kEvaluate,   // evaluation, `item` holds request + resolved choices
  };

  [[nodiscard]] Admission admit(PendingRequest pending, ParsedItem* item);
  void route(ParsedItem item);
  void process_batch(Shard& shard, std::vector<ParsedItem> items);
  void worker_loop(Shard& shard);
  [[nodiscard]] obs::Json control_response(const Request& request) const;

  DispatcherOptions options_;
  std::vector<adders::AdderCell> palette_;
  std::unordered_map<std::string, std::size_t> palette_index_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ResponseSink sink_;
  bool started_ = false;
  std::atomic<std::uint64_t> requests_received_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> inflight_{0};
  mutable std::mutex lifecycle_mutex_;
  std::condition_variable drain_cv_;
};

}  // namespace sealpaa::service
