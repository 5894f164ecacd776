// Long-running batch analysis server (`sealpaad`).
//
// The IO thread (serve()) runs a poll() loop over the TCP listener — or
// stdin/stdout in pipe mode — reading bytes, splitting frames and
// flushing response bytes.  Each frame is handed straight to the
// sharded Dispatcher, which parses it and routes it to its profile's
// shard; the shard's dispatch worker (`DispatcherOptions::
// dispatch_threads`) takes everything queued as one batch and evaluates
// it, and finished responses come back through the dispatcher's sink
// and a wake pipe.  The IO thread never evaluates anything, so a slow
// analysis cannot stall accepts or reads.
//
// Responses complete out of order per connection across shards (clients
// match them by request id); within one (connection, profile) pair they
// stay FIFO, because the IO thread numbers and submits each
// connection's frames in arrival order and a shard answers in
// submission order.
//
// Robustness behaviors, all exercised by tests/test_service.cpp and the
// CI smoke job:
//  * connection cap with backpressure — at the cap the listener simply
//    stops being polled, so new connections queue in the kernel backlog
//    instead of being dropped;
//  * per-connection pipelining cap — a client with too many responses
//    outstanding stops being read until they drain;
//  * malformed / oversized frames produce structured error responses
//    and the connection keeps serving;
//  * request_stop() (async-signal-safe; wired to SIGTERM by sealpaad)
//    triggers a graceful drain: stop accepting, stop reading, answer
//    everything already received, flush, then return 0 from serve().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "sealpaa/service/dispatcher.hpp"

namespace sealpaa::service {

struct ServerOptions {
  DispatcherOptions dispatcher{};
  /// TCP bind address; only IPv4 dotted-quad addresses are accepted.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (start() returns the choice).
  std::uint16_t port = 7413;
  /// Serve one session over stdin/stdout instead of TCP.
  bool pipe_mode = false;
  /// Connection cap; the listener is not polled while at the cap.
  std::size_t max_connections = 64;
  /// Per-connection outstanding-request cap; reads pause beyond it.
  std::size_t max_inflight_per_connection = 1024;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// TCP mode: binds and listens, returning the bound port.  Pipe mode:
  /// no-op returning 0.  Throws std::runtime_error on socket failure.
  std::uint16_t start();

  /// Runs the IO loop until end of input (pipe mode) or request_stop().
  /// Returns 0 after a clean drain, non-zero on a fatal IO error.
  /// start() must have been called first in TCP mode.
  int serve();

  /// Triggers a graceful drain.  Async-signal-safe and thread-safe —
  /// this is the SIGTERM hook.
  void request_stop() noexcept;

  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }
  /// Lifetime stats; meaningful once serve() returned (or between
  /// batches for an embedded server — reads are not synchronized with
  /// the dispatch thread).
  [[nodiscard]] const Dispatcher& dispatcher() const noexcept {
    return dispatcher_;
  }

 private:
  ServerOptions options_;
  Dispatcher dispatcher_;
  std::uint16_t bound_port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;   // poll()ed alongside the sockets
  int wake_write_fd_ = -1;  // written by request_stop / dispatch thread
  std::atomic<bool> stop_requested_{false};
};

}  // namespace sealpaa::service
