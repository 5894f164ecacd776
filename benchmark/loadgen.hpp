// Load generator: drives a running sealpaad over loopback from one
// process, with one reader thread per connection plus the calling thread
// as the pacer.  Every response is byte-compared with the precomputed
// engine::evaluate frame of its request.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sealpaa/service/client.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace bench {

struct ClosedResult {
  double seconds = 0.0;        // length of the measured window
  std::uint64_t verified = 0;  // correct responses received inside it
  std::vector<double> slice_rates;  // verified responses/s, per slice
};

struct OpenResult {
  double rate_rps = 0.0;
  std::uint64_t sent = 0;          // evaluation requests sent
  std::uint64_t within_limit = 0;  // correct and within the latency limit
  std::vector<double> latency_us;  // correct responses, timed from due
  std::vector<double> lag_us;      // per burst: sent minus due
  std::vector<double> ping_rtt_us;
};

class LoadGenerator {
 public:
  /// Connects `connections` clients to `port` and starts their readers.
  /// `tracer` receives one span per evaluation request while tracing is
  /// on; it may be null.
  LoadGenerator(std::uint16_t port, const ServiceWorkload& workload,
              BurstStream stream, std::size_t connections, Tracer* tracer);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Keeps workload.window requests outstanding per connection; counts
  /// the correct responses that arrive in the `measure_s` window after
  /// `warmup_s`, in total and per 0.5 s slice, then waits for the
  /// stragglers.
  ClosedResult closed_loop(double warmup_s, double measure_s);

  /// Sends bursts at Poisson arrival times averaging `rate_rps`
  /// requests/s for `seconds`, each request timed from when it was due;
  /// then waits for every response.  `pings` interleaves a ping every
  /// 50 bursts.
  OpenResult open_loop(double rate_rps, double seconds, double limit_ms,
                       std::uint64_t arrival_seed, bool pings);

  /// Evaluation requests sent so far, and those that failed: wrong
  /// bytes, unknown ids, IO errors, and (after close) no response.
  [[nodiscard]] std::uint64_t sent() const noexcept {
    return sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failed();

  /// Records a span per evaluation request from now on (needs a tracer).
  void set_tracing(bool on) noexcept {
    tracing_.store(on && tracer_ != nullptr, std::memory_order_relaxed);
  }

  /// Half-closes every connection and joins the readers once the
  /// daemon has answered and closed; unanswered requests count as
  /// failed.  Idempotent.
  void close();

 private:
  enum class Kind : std::uint8_t { kFree, kClosed, kOpen, kPing };
  struct Pending {
    std::uint64_t id = 0;
    std::int64_t due_ns = 0;
    std::uint32_t config = 0;
    Kind kind = Kind::kFree;
  };
  struct Connection {
    service::Client client;
    std::mutex send_mutex;  // one writer at a time on the socket
    std::mutex mutex;       // guards everything below
    std::vector<Pending> ring;
    std::uint64_t next_seq = 0;
    std::size_t outstanding = 0;
    std::uint64_t failed = 0;
    std::uint64_t window_verified = 0;
    std::vector<std::uint64_t> slice_verified;
    std::uint64_t within_limit = 0;
    std::vector<double> latency_us;
    std::vector<double> ping_rtt_us;
    Burst next;  // closed-loop refill; touched by the reader only
    std::thread reader;
  };

  void read_loop(std::size_t index);
  void handle(std::size_t index, const std::string& frame, std::int64_t now);
  void pull(Burst& burst);
  /// Reserves ids for `burst` and sends it; false (nothing sent) when
  /// it would take the connection past `limit` outstanding requests.
  bool try_send(std::size_t index, const Burst& burst, std::int64_t due_ns,
                Kind kind, std::size_t limit);
  void send_ping(std::size_t index);
  void wait_idle(double timeout_s);

  const ServiceWorkload& workload_;
  std::mutex stream_mutex_;
  BurstStream stream_;
  Tracer* tracer_;
  std::uint32_t span_name_ = 0;
  std::string ping_head_;
  std::string ping_tail_;
  std::atomic<bool> tracing_{false};
  std::atomic<bool> closed_active_{false};
  std::atomic<std::int64_t> window_start_ns_{0};
  std::atomic<std::int64_t> window_end_ns_{0};
  std::atomic<std::int64_t> slice_ns_{1};
  std::atomic<std::int64_t> limit_ns_{0};
  std::atomic<std::uint64_t> sent_{0};
  bool closed_ = false;
  std::vector<std::unique_ptr<Connection>> connections_;
};

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

}  // namespace bench
