// Tests for the batch analysis service: newline framing over
// arbitrarily fragmented byte streams, strict request validation, the
// batching dispatcher (id echo, response ordering, timeouts, stats),
// the keyed evaluator pool, and the TCP server end to end — including
// two concurrent pipelined clients and graceful drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/engine/evaluator_pool.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/obs/serialize.hpp"
#include "sealpaa/service/client.hpp"
#include "sealpaa/service/dispatcher.hpp"
#include "sealpaa/service/server.hpp"
#include "sealpaa/service/wire.hpp"

namespace {

using sealpaa::engine::EvaluatorPool;
using sealpaa::engine::EvaluatorPoolOptions;
using sealpaa::obs::Json;
using sealpaa::service::Client;
using sealpaa::service::Dispatcher;
using sealpaa::service::DispatcherOptions;
using sealpaa::service::FrameSplitter;
using sealpaa::service::OutgoingResponse;
using sealpaa::service::ParseOutcome;
using sealpaa::service::PendingRequest;
using sealpaa::service::Server;
using sealpaa::service::ServerOptions;
using sealpaa::service::WireLimits;
namespace error_code = sealpaa::service::error_code;

// ---------------------------------------------------------------------------
// FrameSplitter

[[nodiscard]] std::vector<FrameSplitter::Frame> drain(FrameSplitter& splitter) {
  std::vector<FrameSplitter::Frame> frames;
  while (auto frame = splitter.next()) frames.push_back(std::move(*frame));
  return frames;
}

TEST(FrameSplitter, SplitAcrossManyReads) {
  FrameSplitter splitter(1024);
  const std::string wire = "{\"id\":1}\n{\"id\":2}\n";
  for (const char c : wire) splitter.feed(std::string_view(&c, 1));
  const auto frames = drain(splitter);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].text, "{\"id\":1}");
  EXPECT_EQ(frames[1].text, "{\"id\":2}");
  EXPECT_FALSE(frames[0].oversized);
  EXPECT_EQ(splitter.buffered(), 0u);
}

TEST(FrameSplitter, MergedIntoOneRead) {
  FrameSplitter splitter(1024);
  splitter.feed("{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n{\"d\":");
  const auto frames = drain(splitter);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[2].text, "{\"c\":3}");
  EXPECT_EQ(splitter.buffered(), 5u);  // the incomplete {"d": tail
}

TEST(FrameSplitter, CrlfAndEmptyLines) {
  FrameSplitter splitter(1024);
  splitter.feed("{\"a\":1}\r\n\n\r\n{\"b\":2}\n");
  const auto frames = drain(splitter);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].text, "{\"a\":1}");
  EXPECT_EQ(frames[1].text, "{\"b\":2}");
}

TEST(FrameSplitter, OversizedFrameIsFlaggedAndStreamRecovers) {
  FrameSplitter splitter(8);
  splitter.feed("123456789abcdef\n{\"x\":1}\n");
  const auto frames = drain(splitter);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].oversized);
  EXPECT_FALSE(frames[1].oversized);
  EXPECT_EQ(frames[1].text, "{\"x\":1}");
}

TEST(FrameSplitter, OversizedSplitAcrossReadsStillOneRejection) {
  FrameSplitter splitter(8);
  splitter.feed("aaaaaaaaaa");   // already over the limit
  splitter.feed("bbbbbbbbbb");   // same line continues
  splitter.feed("\n{\"y\":2}\n");
  const auto frames = drain(splitter);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].oversized);
  EXPECT_EQ(frames[1].text, "{\"y\":2}");
}

TEST(FrameSplitter, PathologicalChunkingRecoversEveryFrame) {
  // Frames of wildly varying size — including empties, CRLFs and one
  // oversized line mid-stream — fed in chunks whose sizes cycle through
  // a pattern deliberately misaligned with the frame boundaries.
  std::string wire;
  std::vector<std::string> expected;
  for (int i = 0; i < 100; ++i) {
    std::string frame = "{\"id\":" + std::to_string(i) + ",\"pad\":\"" +
                        std::string(static_cast<std::size_t>(i % 13), 'x') +
                        "\"}";
    wire += frame;
    wire += i % 3 == 0 ? "\r\n" : "\n";
    if (i % 7 == 0) wire += "\n";    // empty line
    if (i % 11 == 0) wire += "\r\n";  // CR-only line
    expected.push_back(std::move(frame));
  }
  wire += std::string(600, 'z') + "\n";  // oversized, flagged not fatal

  FrameSplitter splitter(512);
  std::vector<FrameSplitter::Frame> frames;
  const std::size_t chunk_sizes[] = {1, 7, 2, 31, 3, 1, 64, 5};
  std::size_t offset = 0;
  std::size_t cycle = 0;
  while (offset < wire.size()) {
    const std::size_t n =
        std::min(chunk_sizes[cycle++ % 8], wire.size() - offset);
    splitter.feed(std::string_view(wire).substr(offset, n));
    offset += n;
    for (auto frame = splitter.next(); frame; frame = splitter.next()) {
      frames.push_back(std::move(*frame));
    }
  }
  ASSERT_EQ(frames.size(), expected.size() + 1);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(frames[i].text, expected[i]);
    EXPECT_FALSE(frames[i].oversized);
  }
  EXPECT_TRUE(frames.back().oversized);
  EXPECT_EQ(splitter.buffered(), 0u);
}

TEST(FrameSplitter, FinishFlushesTrailingLineWithoutNewline) {
  FrameSplitter splitter(1024);
  splitter.feed("{\"tail\":true}");
  EXPECT_TRUE(drain(splitter).empty());
  splitter.finish();
  const auto frames = drain(splitter);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].text, "{\"tail\":true}");
}

// ---------------------------------------------------------------------------
// parse_request

[[nodiscard]] ParseOutcome parse(const std::string& text) {
  return sealpaa::service::parse_request(FrameSplitter::Frame{text, false},
                                         WireLimits{});
}

TEST(ParseRequest, ValidEvaluateRequest) {
  const ParseOutcome outcome = parse(
      R"({"id":7,"method":"recursive","width":4,"chain":"LPAA3",)"
      R"("params":{"p":0.25,"timeout_ms":5000}})");
  ASSERT_TRUE(outcome.request.has_value()) << outcome.error->message;
  EXPECT_EQ(outcome.request->width, 4u);
  EXPECT_EQ(outcome.request->chain,
            (std::vector<std::string>{"LPAA3", "LPAA3", "LPAA3", "LPAA3"}));
  EXPECT_DOUBLE_EQ(outcome.request->p, 0.25);
  EXPECT_EQ(outcome.request->timeout_ms, 5000u);
  EXPECT_EQ(outcome.id.dump(0), "7");
}

TEST(ParseRequest, ChainArrayMustMatchWidth) {
  const ParseOutcome outcome = parse(
      R"({"method":"recursive","width":3,"chain":["LPAA1","LPAA2"]})");
  ASSERT_TRUE(outcome.error.has_value());
  EXPECT_EQ(outcome.error->code, error_code::kBadRequest);
}

TEST(ParseRequest, IdIsEchoedEvenWhenValidationFails) {
  const ParseOutcome outcome =
      parse(R"({"id":"req-9","method":"recursive","width":0,"chain":"LPAA1"})");
  ASSERT_TRUE(outcome.error.has_value());
  EXPECT_EQ(outcome.id.dump(0), "\"req-9\"");
}

TEST(ParseRequest, UnknownMethodAndUnknownKeyAreDistinctErrors) {
  EXPECT_EQ(parse(R"({"method":"nope","width":4,"chain":"LPAA1"})")
                .error->code,
            error_code::kUnknownMethod);
  EXPECT_EQ(parse(R"({"method":"recursive","width":4,"chain":"LPAA1",)"
                  R"("widht":4})")
                .error->code,
            error_code::kBadRequest);
}

TEST(ParseRequest, LimitsAreEnforced) {
  EXPECT_EQ(parse(R"({"method":"recursive","width":65,"chain":"LPAA1"})")
                .error->code,
            error_code::kWidthLimit);
  EXPECT_EQ(parse(R"({"method":"monte-carlo","width":4,"chain":"LPAA1",)"
                  R"("params":{"samples":999999999999}})")
                .error->code,
            error_code::kRequestLimit);
  EXPECT_EQ(parse(R"({"method":"recursive","width":4,"chain":"LPAA1",)"
                  R"("params":{"p":1.5}})")
                .error->code,
            error_code::kBadRequest);
}

TEST(ParseRequest, MalformedJsonAndOversizedFrames) {
  EXPECT_EQ(parse("not json at all").error->code, error_code::kInvalidJson);
  const ParseOutcome oversized = sealpaa::service::parse_request(
      FrameSplitter::Frame{std::string(), true}, WireLimits{});
  EXPECT_EQ(oversized.error->code, error_code::kFrameTooLarge);
}

TEST(ParseRequest, StatsAndPingTakeNoOtherFields) {
  EXPECT_TRUE(parse(R"({"method":"stats"})").request.has_value());
  EXPECT_TRUE(parse(R"({"id":3,"method":"ping"})").request.has_value());
  EXPECT_EQ(parse(R"({"method":"stats","width":4})").error->code,
            error_code::kBadRequest);
}

// ---------------------------------------------------------------------------
// EvaluatorPool

[[nodiscard]] std::vector<sealpaa::adders::AdderCell> palette() {
  const auto cells = sealpaa::adders::all_builtin_cells();
  return {cells.begin(), cells.end()};
}

TEST(EvaluatorPool, ReusesEvaluatorsPerProfile) {
  EvaluatorPool pool(palette());
  const auto p8 = sealpaa::multibit::InputProfile::uniform(8, 0.5);
  const auto p16 = sealpaa::multibit::InputProfile::uniform(16, 0.5);
  const auto first = pool.acquire(p8);
  EXPECT_EQ(pool.acquire(p8), first);
  EXPECT_NE(pool.acquire(p16), first);
  EXPECT_EQ(pool.created(), 2u);
  EXPECT_EQ(pool.pool_hits(), 1u);
}

TEST(EvaluatorPool, EvictsLeastRecentlyUsedAndKeepsSharedHandlesAlive) {
  EvaluatorPoolOptions options;
  options.max_evaluators = 2;
  EvaluatorPool pool(palette(), options);
  const auto a = pool.acquire(sealpaa::multibit::InputProfile::uniform(4, 0.1));
  (void)pool.acquire(sealpaa::multibit::InputProfile::uniform(4, 0.2));
  (void)pool.acquire(sealpaa::multibit::InputProfile::uniform(4, 0.3));  // a out
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.evicted(), 1u);
  // The evicted evaluator is still usable through the shared handle.
  const auto result = a->evaluate(std::vector<std::size_t>{0, 0, 0, 0});
  EXPECT_GE(result.p_error, 0.0);
}

TEST(EvaluatorPool, AggregateStatsFoldInEvictedEvaluators) {
  EvaluatorPoolOptions options;
  options.max_evaluators = 1;
  EvaluatorPool pool(palette(), options);
  const auto a = pool.acquire(sealpaa::multibit::InputProfile::uniform(4, 0.1));
  (void)a->error_pmf(std::vector<std::size_t>{0, 0, 0, 0});
  (void)pool.acquire(sealpaa::multibit::InputProfile::uniform(4, 0.2));
  EXPECT_EQ(pool.aggregate_pmf_stats().chains_evaluated, 1u);
}

// ---------------------------------------------------------------------------
// Dispatcher

[[nodiscard]] PendingRequest pending(std::uint64_t connection,
                                     std::uint64_t sequence,
                                     std::string text) {
  return PendingRequest{connection, sequence,
                        FrameSplitter::Frame{std::move(text), false},
                        std::chrono::steady_clock::now()};
}

/// A response sink that keeps every response it is handed.
struct Collector {
  std::mutex mutex;
  std::vector<OutgoingResponse> responses;

  [[nodiscard]] Dispatcher::ResponseSink sink() {
    return [this](OutgoingResponse response) {
      const std::lock_guard<std::mutex> lock(mutex);
      responses.push_back(std::move(response));
    };
  }
  /// The responses sorted by (connection, sequence).
  [[nodiscard]] std::vector<OutgoingResponse> sorted() {
    const std::lock_guard<std::mutex> lock(mutex);
    std::vector<OutgoingResponse> out = responses;
    std::sort(out.begin(), out.end(),
              [](const OutgoingResponse& a, const OutgoingResponse& b) {
                return a.connection != b.connection
                           ? a.connection < b.connection
                           : a.sequence < b.sequence;
              });
    return out;
  }
};

/// Runs `batch` through the live workers (start, submit, drain, stop)
/// and returns one response per request, sorted by (connection,
/// sequence).
[[nodiscard]] std::vector<OutgoingResponse> run_live(
    Dispatcher& dispatcher, std::vector<PendingRequest> batch) {
  Collector collector;
  dispatcher.start(collector.sink());
  for (PendingRequest& request : batch) dispatcher.submit(std::move(request));
  dispatcher.drain();
  dispatcher.stop();
  return collector.sorted();
}

TEST(Dispatcher, EchoesIdsAndOrdersResponsesPerConnection) {
  Dispatcher dispatcher;
  std::vector<PendingRequest> batch;
  batch.push_back(pending(2, 1, R"({"id":"b","method":"ping"})"));
  batch.push_back(pending(1, 0, R"({"id":"a","method":"ping"})"));
  batch.push_back(pending(2, 0, R"({"id":"c","method":"ping"})"));
  const auto responses = run_live(dispatcher, std::move(batch));
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].connection, 1u);
  EXPECT_EQ(responses[1].connection, 2u);
  EXPECT_EQ(responses[1].sequence, 0u);
  EXPECT_EQ(responses[2].sequence, 1u);
  EXPECT_NE(responses[1].frame.find("\"id\":\"c\""), std::string::npos);
}

TEST(Dispatcher, RecursiveResponseMatchesEngineEvaluate) {
  Dispatcher dispatcher;
  std::vector<PendingRequest> batch;
  batch.push_back(pending(
      1, 0, R"({"id":1,"method":"recursive","width":8,"chain":"LPAA6"})"));
  const auto responses = run_live(dispatcher, std::move(batch));
  ASSERT_EQ(responses.size(), 1u);

  const auto* cell = sealpaa::adders::find_builtin("LPAA6");
  ASSERT_NE(cell, nullptr);
  const sealpaa::multibit::AdderChain chain(
      std::vector<sealpaa::adders::AdderCell>(8, *cell));
  const auto profile = sealpaa::multibit::InputProfile::uniform(8, 0.5);
  const auto expected = sealpaa::engine::evaluate(
      chain, profile, sealpaa::engine::Method::kRecursive);

  // The evaluation projection must be byte-for-byte what the CLI writes.
  const std::string expected_fragment =
      "\"evaluation\":" + sealpaa::obs::to_json(expected).dump(0);
  EXPECT_NE(responses[0].frame.find(expected_fragment), std::string::npos)
      << responses[0].frame;
}

TEST(Dispatcher, ZeroTimeoutExpiresBeforeEvaluation) {
  Dispatcher dispatcher;
  std::vector<PendingRequest> batch;
  batch.push_back(pending(1, 0,
                          R"({"id":1,"method":"recursive","width":8,)"
                          R"("chain":"LPAA6","params":{"timeout_ms":0}})"));
  const auto responses = run_live(dispatcher, std::move(batch));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].frame.find("\"code\":\"timeout\""), std::string::npos)
      << responses[0].frame;
}

TEST(Dispatcher, UnknownCellIsAStructuredError) {
  Dispatcher dispatcher;
  std::vector<PendingRequest> batch;
  batch.push_back(
      pending(1, 0, R"({"id":1,"method":"recursive","width":4,"chain":"NO"})"));
  const auto responses = run_live(dispatcher, std::move(batch));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].frame.find("\"code\":\"unknown-cell\""),
            std::string::npos);
}

TEST(Dispatcher, StatsRequestSeesItsOwnBatch) {
  Dispatcher dispatcher;
  Collector collector;
  dispatcher.start(collector.sink());
  dispatcher.submit(pending(
      1, 0, R"({"id":1,"method":"recursive","width":4,"chain":"LPAA1"})"));
  dispatcher.drain();
  // Control requests are answered inline, so after the drain the stats
  // response covers the evaluation ahead of it.
  dispatcher.submit(pending(1, 1, R"({"id":2,"method":"stats"})"));
  dispatcher.stop();
  const auto responses = collector.sorted();
  ASSERT_EQ(responses.size(), 2u);
  const Json stats = Json::parse(responses[1].frame);
  EXPECT_EQ(stats.find("stats")
                ->find("requests")
                ->find("received")
                ->unsigned_integer(),
            2u);
  EXPECT_EQ(stats.find("stats")
                ->find("methods")
                ->find("recursive")
                ->find("count")
                ->unsigned_integer(),
            1u);
}

TEST(Dispatcher, CountersIncludeEachResponseBeforeItIsEmitted) {
  // The sink inspects the counters as every response leaves: the served
  // total and the per-method counts must already include that response,
  // so a client never sees an answer its stats do not account for.
  Dispatcher dispatcher;
  std::mutex mutex;
  std::uint64_t seen = 0;
  std::uint64_t served_behind = 0;
  std::uint64_t methods_behind = 0;
  dispatcher.start([&](OutgoingResponse) {
    const std::lock_guard<std::mutex> lock(mutex);
    seen += 1;
    if (dispatcher.requests_served() < seen) served_behind += 1;
    std::uint64_t counted = 0;
    const Json stats = dispatcher.stats_json();
    for (const auto& [name, method] : stats.find("methods")->items()) {
      counted += method.find("count")->unsigned_integer();
    }
    if (counted < seen) methods_behind += 1;
  });
  constexpr std::uint64_t kRequests = 16;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    dispatcher.submit(pending(
        1, i,
        R"({"id":)" + std::to_string(i) + R"(,"method":")" +
            (i % 2 == 0 ? "recursive" : "analytic-pmf") +
            R"(","width":8,"chain":"LPAA3"})"));
  }
  dispatcher.drain();
  dispatcher.stop();
  EXPECT_EQ(seen, kRequests);
  EXPECT_EQ(served_behind, 0u);
  EXPECT_EQ(methods_behind, 0u);
}

TEST(Dispatcher, DeterministicAcrossThreadCounts) {
  const auto run = [](unsigned threads) {
    DispatcherOptions options;
    options.dispatch_threads = threads;
    Dispatcher dispatcher(options);
    std::vector<PendingRequest> batch;
    const char* cells[] = {"LPAA1", "LPAA2", "LPAA3", "LPAA4"};
    for (std::uint64_t i = 0; i < 8; ++i) {
      batch.push_back(pending(
          1, i,
          R"({"id":)" + std::to_string(i) + R"(,"method":"recursive",)" +
              R"("width":6,"chain":")" + cells[i % 4] + "\"}"));
    }
    std::vector<std::string> frames;
    for (auto& response : run_live(dispatcher, std::move(batch))) {
      frames.push_back(std::move(response.frame));
    }
    return frames;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(Dispatcher, ShardOfSpreadsProfilesAndIsStable) {
  EXPECT_EQ(Dispatcher::shard_of(16, 0.5, 1), 0u);
  EXPECT_EQ(Dispatcher::shard_of(16, 0.5, 4), Dispatcher::shard_of(16, 0.5, 4));
  // The smoke suite's out-of-order phase relies on these two profiles
  // living on different workers at --dispatch-threads=4.
  EXPECT_NE(Dispatcher::shard_of(16, 0.5, 4), Dispatcher::shard_of(24, 0.5, 4));
  std::set<unsigned> seen;
  for (std::size_t width = 4; width <= 64; width += 4) {
    seen.insert(Dispatcher::shard_of(width, 0.5, 4));
  }
  EXPECT_GE(seen.size(), 3u) << "profiles collapsed onto too few shards";
}

/// Runs `frames` through a started dispatcher with `workers` dispatch
/// workers and returns the response frames in submission order.
[[nodiscard]] std::vector<std::string> run_frames(
    unsigned workers, const std::vector<std::string>& frames) {
  DispatcherOptions options;
  options.dispatch_threads = workers;
  Dispatcher dispatcher(options);
  std::mutex mutex;
  std::map<std::uint64_t, std::string> by_sequence;
  dispatcher.start([&mutex, &by_sequence](OutgoingResponse response) {
    const std::lock_guard<std::mutex> lock(mutex);
    by_sequence[response.sequence] = std::move(response.frame);
  });
  for (std::size_t i = 0; i < frames.size(); ++i) {
    dispatcher.submit(pending(1, i, frames[i]));
  }
  dispatcher.drain();
  dispatcher.stop();
  std::vector<std::string> out;
  out.reserve(by_sequence.size());
  for (auto& [sequence, frame] : by_sequence) {
    out.push_back(std::move(frame));
  }
  return out;
}

TEST(Dispatcher, WorkerCountDoesNotChangeResponseBytes) {
  // Every method class across several profiles: however requests shard,
  // batch and interleave, each response must be byte-identical.
  std::vector<std::string> frames;
  const char* cells[] = {"LPAA1", "LPAA2", "LPAA3", "LPAA6"};
  for (int i = 0; i < 12; ++i) {
    const std::string width = std::to_string(6 + 2 * (i % 3));
    const std::string cell = cells[i % 4];
    frames.push_back(R"({"id":)" + std::to_string(frames.size()) +
                     R"(,"method":"recursive","width":)" + width +
                     R"(,"chain":")" + cell + "\"}");
    frames.push_back(R"({"id":)" + std::to_string(frames.size()) +
                     R"(,"method":"analytic-pmf","width":)" + width +
                     R"(,"chain":")" + cell + "\"}");
  }
  frames.push_back(R"({"id":100,"method":"monte-carlo","width":8,)"
                   R"("chain":"LPAA3","params":{"samples":65536}})");
  frames.push_back(R"({"id":101,"method":"block-analytic","width":16,)"
                   R"("blocks":"aca:4","params":{"p":0.42}})");
  frames.push_back(R"({"id":102,"method":"nope"})");  // structured error
  const std::vector<std::string> one = run_frames(1, frames);
  EXPECT_EQ(one, run_frames(8, frames));
  ASSERT_EQ(one.size(), frames.size());
}

TEST(Dispatcher, LoneRequestIsAnsweredAtOnce) {
  DispatcherOptions options;
  options.dispatch_threads = 1;
  Dispatcher dispatcher(options);
  std::mutex mutex;
  std::vector<std::string> responses;
  dispatcher.start([&mutex, &responses](OutgoingResponse response) {
    const std::lock_guard<std::mutex> lock(mutex);
    responses.push_back(std::move(response.frame));
  });
  const auto begin = std::chrono::steady_clock::now();
  dispatcher.submit(pending(
      1, 0, R"({"id":1,"method":"recursive","width":8,"chain":"LPAA3"})"));
  dispatcher.drain();
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  // A worker never waits for more work before it runs what it took.
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  dispatcher.stop();
  ASSERT_EQ(responses.size(), 1u);
  const Json stats = dispatcher.stats_json();
  EXPECT_EQ(stats.find("batches")->find("count")->unsigned_integer(), 1u);
  EXPECT_EQ(stats.find("dispatch")
                ->find("cut_through_batches")
                ->unsigned_integer(),
            1u);
  EXPECT_EQ(
      stats.find("dispatch")->find("coalesced_batches")->unsigned_integer(),
      0u);
}

TEST(Dispatcher, TakeIsCappedAt256Requests) {
  DispatcherOptions options;
  options.dispatch_threads = 1;
  Dispatcher dispatcher(options);
  // Queue the whole burst before the worker spawns, so its first take
  // sees all 300 requests: it takes 256, and the next take the 44 left.
  for (std::uint64_t i = 0; i < 300; ++i) {
    dispatcher.submit(pending(
        1, i,
        R"({"id":)" + std::to_string(i) +
            R"(,"method":"recursive","width":8,"chain":"LPAA3"})"));
  }
  std::mutex mutex;
  std::size_t answered = 0;
  dispatcher.start([&mutex, &answered](OutgoingResponse) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++answered;
  });
  dispatcher.drain();
  dispatcher.stop();
  EXPECT_EQ(answered, 300u);
  const Json stats = dispatcher.stats_json();
  const Json& batches = *stats.find("batches");
  EXPECT_EQ(batches.find("count")->unsigned_integer(), 2u);
  EXPECT_EQ(batches.find("size")->find("max")->unsigned_integer(), 256u);
  EXPECT_EQ(batches.find("size")->find("sum")->unsigned_integer(), 300u);
  EXPECT_EQ(stats.find("dispatch")
                ->find("cut_through_batches")
                ->unsigned_integer(),
            2u);
  EXPECT_EQ(
      stats.find("dispatch")->find("coalesced_batches")->unsigned_integer(),
      0u);
}

TEST(Dispatcher, EachConnectionIsAnsweredInSequenceOrder) {
  // Two connections' requests interleaved on one profile, queued before
  // the worker spawns so they run as one batch: the sink must hand each
  // connection its responses in the order of its sequence numbers.
  DispatcherOptions options;
  options.dispatch_threads = 1;
  Dispatcher dispatcher(options);
  const char* cells[] = {"LPAA1", "LPAA3", "LPAA5", "LPAA6"};
  for (std::uint64_t i = 0; i < 8; ++i) {
    for (const std::uint64_t connection : {7u, 3u}) {
      const std::string method = i % 2 == 0 ? "recursive" : "analytic-pmf";
      dispatcher.submit(pending(
          connection, i,
          R"({"id":)" + std::to_string(i) + R"(,"method":")" + method +
              R"(","width":8,"chain":")" + cells[(i + connection) % 4] +
              "\"}"));
    }
  }
  Collector collector;
  dispatcher.start(collector.sink());
  dispatcher.drain();
  dispatcher.stop();
  EXPECT_EQ(dispatcher.stats_json()
                .find("batches")
                ->find("count")
                ->unsigned_integer(),
            1u);
  ASSERT_EQ(collector.responses.size(), 16u);
  std::map<std::uint64_t, std::vector<std::uint64_t>> sequences;
  for (const OutgoingResponse& response : collector.responses) {
    EXPECT_NE(response.frame.find(R"("ok":true)"), std::string::npos);
    sequences[response.connection].push_back(response.sequence);
  }
  const std::vector<std::uint64_t> in_order = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(sequences[3], in_order);
  EXPECT_EQ(sequences[7], in_order);
}

/// The node at the dotted `path` below `node`, or nullptr.
[[nodiscard]] const Json* find_at(const Json& node, std::string_view path) {
  const Json* at = &node;
  for (std::size_t begin = 0; at != nullptr && begin <= path.size();) {
    const std::size_t end = std::min(path.find('.', begin), path.size());
    at = at->find(std::string(path.substr(begin, end - begin)));
    begin = end + 1;
  }
  return at;
}

/// The counter at `path`; 0 and a test failure when it is absent.
[[nodiscard]] std::uint64_t uint_at(const Json& node, std::string_view path) {
  const Json* at = find_at(node, path);
  EXPECT_NE(at, nullptr) << "stats lack " << path;
  return at == nullptr ? 0 : at->unsigned_integer();
}

TEST(Dispatcher, StatsReconcileWithResponsesAtOneAndFourWorkers) {
  // Every evaluation method; two frames rejected at admission (invalid
  // JSON, unknown cell); three routed requests that fail (a zero
  // timeout, exhaustive at p 0.3, inclusion-exclusion at width 24); and
  // both control requests.
  const std::vector<std::string> frames = {
      R"({"id":0,"method":"recursive","width":8,"chain":"LPAA3"})",
      R"({"id":1,"method":"inclusion-exclusion","width":8,"chain":"LPAA1"})",
      R"({"id":2,"method":"exhaustive","width":6,"chain":"LPAA2"})",
      R"({"id":3,"method":"weighted-exhaustive","width":6,"chain":"LPAA4",)"
      R"("params":{"p":0.3}})",
      R"({"id":4,"method":"monte-carlo","width":8,"chain":"LPAA5",)"
      R"("params":{"samples":4096}})",
      R"({"id":5,"method":"analytic-pmf","width":8,"chain":"LPAA6",)"
      R"("params":{"p":0.35}})",
      R"({"id":6,"method":"block-analytic","width":16,"blocks":"aca:4"})",
      "this is not json",
      R"({"id":8,"method":"recursive","width":4,"chain":"NOPE"})",
      R"({"id":9,"method":"recursive","width":8,"chain":"LPAA3",)"
      R"("params":{"timeout_ms":0}})",
      R"({"id":10,"method":"exhaustive","width":6,"chain":"LPAA2",)"
      R"("params":{"p":0.3}})",
      R"({"id":11,"method":"inclusion-exclusion","width":24,"chain":"LPAA1"})",
      R"({"id":12,"method":"ping"})",
      R"({"id":13,"method":"stats"})",
  };
  constexpr std::uint64_t kFailed = 5;
  constexpr std::uint64_t kRouted = 10;  // evaluation requests on a shard

  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    DispatcherOptions options;
    options.dispatch_threads = workers;
    Dispatcher dispatcher(options);
    Collector collector;
    dispatcher.start(collector.sink());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      dispatcher.submit(pending(1, i, frames[i]));
    }
    dispatcher.drain();
    const Json stats = dispatcher.stats_json();
    dispatcher.stop();

    // Exactly one response per request; received = ok + errors.
    const std::vector<OutgoingResponse> responses = collector.sorted();
    ASSERT_EQ(responses.size(), frames.size());
    std::uint64_t failed = 0;
    std::map<std::string, std::uint64_t> ok_by_method;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ(responses[i].sequence, i);
      if (!Json::parse(responses[i].frame).find("ok")->boolean()) {
        failed += 1;
        continue;
      }
      ok_by_method[Json::parse(frames[i]).find("method")->string_value()] += 1;
    }
    EXPECT_EQ(failed, kFailed);
    EXPECT_EQ(uint_at(stats, "requests.received"), frames.size());
    EXPECT_EQ(uint_at(stats, "requests.ok"), frames.size() - kFailed);
    EXPECT_EQ(uint_at(stats, "requests.errors"), kFailed);

    // For every evaluation method, count − errors = that method's ok
    // responses.
    const Json& methods = *stats.find("methods");
    EXPECT_EQ(methods.size(), 7u);
    for (const auto& [name, method] : methods.items()) {
      EXPECT_EQ(uint_at(method, "count") - uint_at(method, "errors"),
                ok_by_method[name])
          << name;
    }

    // Each ok analytic-pmf response ran one chain on its pooled
    // evaluator and probed the PMF cache exactly once.
    EXPECT_EQ(uint_at(stats, "evaluators.pmf_cache.chains_evaluated"),
              ok_by_method["analytic-pmf"]);
    EXPECT_EQ(uint_at(stats, "evaluators.pmf_cache.hits") +
                  uint_at(stats, "evaluators.pmf_cache.misses"),
              uint_at(stats, "evaluators.pmf_cache.chains_evaluated"));

    // Σ methods.*.count = batches.size.sum = routed evaluation requests.
    std::uint64_t routed = 0;
    for (const auto& [name, method] : methods.items()) {
      routed += uint_at(method, "count");
    }
    EXPECT_EQ(routed, kRouted);
    EXPECT_EQ(uint_at(stats, "batches.size.sum"), kRouted);

    // Every top-level total is the sum over the shards.  A shard entry
    // holds its dispatch counters at its top level, and has no entry
    // for a method it never saw.
    const Json& shards = *stats.find("shards");
    ASSERT_EQ(shards.size(), workers);
    std::vector<std::string> totals = {
        "batches.count", "batches.size.count", "batches.size.sum",
        "dispatch.cut_through_batches", "dispatch.coalesced_batches",
        "evaluators.live", "evaluators.created", "evaluators.evicted",
        "evaluators.pool_hits"};
    for (const char* key : {"hits", "misses", "insertions", "evictions",
                            "stages_computed", "chains_evaluated"}) {
      totals.push_back("evaluators.pmf_cache." + std::string(key));
    }
    for (const auto& [name, method] : methods.items()) {
      for (const char* key :
           {".count", ".errors", ".latency_us.count", ".latency_us.sum"}) {
        totals.push_back("methods." + name + key);
      }
    }
    for (const std::string& path : totals) {
      const std::string shard_path =
          path.starts_with("dispatch.") ? path.substr(9) : path;
      std::uint64_t sum = 0;
      for (std::size_t s = 0; s < shards.size(); ++s) {
        const Json* at = find_at(shards.at(s), shard_path);
        sum += at == nullptr ? 0 : at->unsigned_integer();
      }
      EXPECT_EQ(uint_at(stats, path), sum) << path;
    }
  }
}

TEST(Dispatcher, EvaluatorEvictedMidBatchKeepsItsCounts) {
  // One evaluator per shard: profile B evicts A's evaluator while the
  // batch still holds it, and the second A request runs on the evicted
  // evaluator.  That work must reach the stats too.
  DispatcherOptions options;
  options.pool.max_evaluators = 1;
  Dispatcher dispatcher(options);
  const std::vector<std::string> frames = {
      R"({"id":0,"method":"analytic-pmf","width":8,"chain":"LPAA3"})",
      R"({"id":1,"method":"analytic-pmf","width":8,"chain":"LPAA3",)"
      R"("params":{"p":0.3}})",
      R"({"id":2,"method":"analytic-pmf","width":8,"chain":"LPAA5"})",
  };
  // Submitted before start(), so the worker takes all three as one batch.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    dispatcher.submit(pending(1, i, frames[i]));
  }
  Collector collector;
  dispatcher.start(collector.sink());
  dispatcher.drain();
  const Json stats = dispatcher.stats_json();
  EXPECT_EQ(uint_at(stats, "batches.count"), 1u);
  EXPECT_EQ(uint_at(stats, "evaluators.evicted"), 1u);
  EXPECT_EQ(uint_at(stats, "evaluators.pmf_cache.chains_evaluated"), 3u);
  EXPECT_EQ(uint_at(stats, "evaluators.pmf_cache.misses"), 3u);

  // The next batch retires the evicted evaluator: its counts move into
  // the retired totals once, neither lost nor doubled.
  dispatcher.submit(pending(1, frames.size(), frames[1]));
  dispatcher.drain();
  const Json later = dispatcher.stats_json();
  dispatcher.stop();
  EXPECT_EQ(uint_at(later, "evaluators.pmf_cache.chains_evaluated"), 4u);
  EXPECT_EQ(uint_at(later, "evaluators.pmf_cache.hits"), 1u);
  EXPECT_EQ(uint_at(later, "evaluators.pmf_cache.misses"), 3u);
  EXPECT_EQ(collector.sorted().size(), frames.size() + 1);
}

// ---------------------------------------------------------------------------
// Server end to end

[[nodiscard]] ServerOptions fast_server_options() {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.dispatcher.dispatch_threads = 2;
  return options;
}

TEST(Server, PipelinedRequestsComeBackInOrder) {
  Server server(fast_server_options());
  const std::uint16_t port = server.start();
  ASSERT_GT(port, 0);
  std::thread io([&server] { EXPECT_EQ(server.serve(), 0); });

  Client client;
  client.connect("127.0.0.1", port);
  constexpr std::uint64_t kRequests = 50;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    client.send_frame(R"({"id":)" + std::to_string(i) +
                      R"(,"method":"recursive","width":8,"chain":"LPAA3"})");
  }
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value()) << "EOF after " << i << " responses";
    const Json response = Json::parse(*frame);
    EXPECT_EQ(response.find("id")->unsigned_integer(), i);
    EXPECT_TRUE(response.find("ok")->boolean());
  }
  client.close();

  server.request_stop();
  io.join();
  EXPECT_EQ(server.dispatcher().requests_served(), kRequests);
}

TEST(Server, MalformedFramesDoNotKillTheConnection) {
  Server server(fast_server_options());
  const std::uint16_t port = server.start();
  std::thread io([&server] { EXPECT_EQ(server.serve(), 0); });

  Client client;
  client.connect("127.0.0.1", port);
  client.send_bytes("this is not json\n");
  client.send_bytes(std::string(70 * 1024, 'x') + "\n");  // oversized
  client.send_frame(R"({"id":"ok","method":"ping"})");

  const auto bad = client.read_frame();
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("invalid-json"), std::string::npos);
  const auto oversized = client.read_frame();
  ASSERT_TRUE(oversized.has_value());
  EXPECT_NE(oversized->find("frame-too-large"), std::string::npos);
  const auto good = client.read_frame();
  ASSERT_TRUE(good.has_value());
  EXPECT_NE(good->find("\"pong\":true"), std::string::npos);

  client.close();
  server.request_stop();
  io.join();
}

TEST(Server, TwoConcurrentClientsGetTheirOwnAnswers) {
  Server server(fast_server_options());
  const std::uint16_t port = server.start();
  std::thread io([&server] { EXPECT_EQ(server.serve(), 0); });

  const auto worker = [port](const std::string& tag, const char* cell) {
    Client client;
    client.connect("127.0.0.1", port);
    for (int i = 0; i < 20; ++i) {
      client.send_frame(R"({"id":")" + tag + std::to_string(i) +
                        R"(","method":"recursive","width":8,"chain":")" +
                        cell + "\"}");
    }
    for (int i = 0; i < 20; ++i) {
      const auto frame = client.read_frame();
      ASSERT_TRUE(frame.has_value());
      const Json response = Json::parse(*frame);
      // Interleaved batches must never leak another client's responses.
      EXPECT_EQ(response.find("id")->string_value(), tag + std::to_string(i));
      EXPECT_TRUE(response.find("ok")->boolean());
    }
  };
  std::thread a(worker, "a", "LPAA1");
  std::thread b(worker, "b", "LPAA6");
  a.join();
  b.join();

  server.request_stop();
  io.join();
  EXPECT_EQ(server.dispatcher().requests_served(), 40u);
}

TEST(Server, ResponsesMultiplexOutOfOrderAcrossShards) {
  ServerOptions options;
  options.port = 0;
  options.dispatcher.dispatch_threads = 4;
  Server server(options);
  const std::uint16_t port = server.start();
  std::thread io([&server] { EXPECT_EQ(server.serve(), 0); });

  // Width 16 and width 24 live on different workers at 4 shards
  // (pinned by Dispatcher.ShardOfSpreadsProfilesAndIsStable), so the
  // fast recursive answer overtakes the slow Monte Carlo one on the
  // same connection and the client must match responses by id.
  Client client;
  client.connect("127.0.0.1", port);
  client.send_frame(
      R"({"id":"slow","method":"monte-carlo","width":16,"chain":"LPAA3",)"
      R"("params":{"samples":1048576}})");
  client.send_frame(
      R"({"id":"fast","method":"recursive","width":24,"chain":"LPAA6"})");
  const auto first = client.read_frame();
  ASSERT_TRUE(first.has_value());
  EXPECT_NE(first->find("\"id\":\"fast\""), std::string::npos) << *first;
  const auto second = client.read_frame();
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->find("\"id\":\"slow\""), std::string::npos) << *second;
  client.close();

  server.request_stop();
  io.join();
  EXPECT_EQ(server.dispatcher().requests_served(), 2u);
}

TEST(Server, EofDrainsLikeShutdownWrite) {
  Server server(fast_server_options());
  const std::uint16_t port = server.start();
  std::thread io([&server] { EXPECT_EQ(server.serve(), 0); });

  Client client;
  client.connect("127.0.0.1", port);
  client.send_frame(R"({"id":1,"method":"ping"})");
  client.send_bytes(R"({"id":2,"method":"ping"})");  // no trailing newline
  client.shutdown_write();  // EOF flushes the partial frame
  EXPECT_TRUE(client.read_frame().has_value());
  const auto second = client.read_frame();
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->find("\"id\":2"), std::string::npos);
  EXPECT_FALSE(client.read_frame().has_value());  // server closes after drain
  client.close();

  server.request_stop();
  io.join();
}

}  // namespace
