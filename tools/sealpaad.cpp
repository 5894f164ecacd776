// sealpaad — the batch analysis daemon.
//
// Serves newline-delimited JSON requests (schema sealpaa.service v1,
// see docs/API.md) over a TCP listener or, with --pipe, over
// stdin/stdout.  Evaluations run on N dispatch workers
// (--dispatch-threads), each owning the shard of (width, p) profiles
// that hashes to it.  A worker takes everything queued on its shard (up
// to 256 requests) as one batch, so a design-sweep client's pipelined
// chains share one pooled evaluator per batch.
// Responses complete out of order per connection across shards --
// clients match them by request id.
//
//   sealpaad --port=0                 # ephemeral port, printed on stdout
//   sealpaad --port=7413 --dispatch-threads=4
//   echo '{"method":"ping"}' | sealpaad --pipe
//
// SIGTERM and SIGINT drain gracefully: the daemon stops accepting,
// answers everything already received, flushes and exits 0.

#include <csignal>
#include <cstdio>
#include <exception>
#include <string>

#include "sealpaa/service/server.hpp"
#include "sealpaa/util/cli.hpp"

namespace {

sealpaa::service::Server* g_server = nullptr;

void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int usage(const char* program) {
  std::fprintf(
      stderr,
      "usage: %s [--port=N] [--bind=ADDR] [--pipe]\n"
      "          [--dispatch-threads=N] [--max-connections=N]\n"
      "          [--max-frame-bytes=N] [--max-width=N] [--timeout-ms=N]\n"
      "\n"
      "Batch analysis daemon: newline-delimited JSON requests, schema\n"
      "sealpaa.service v1 (docs/API.md).  --port=0 binds an ephemeral\n"
      "port; --pipe serves one session over stdin/stdout instead.\n",
      program);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const sealpaa::util::CliArgs args(argc, argv);
  try {
    args.expect_flags({"port", "bind", "pipe", "dispatch-threads",
                       "max-connections", "max-frame-bytes", "max-width",
                       "timeout-ms", "help"});
    if (args.has("help")) return usage(args.program().c_str());

    sealpaa::service::ServerOptions options;
    options.pipe_mode = args.get_bool("pipe", false);
    options.port = static_cast<std::uint16_t>(
        args.get_uint("port", options.port));
    options.bind_address = args.get("bind", options.bind_address);
    options.dispatcher.dispatch_threads = static_cast<unsigned>(
        args.get_uint("dispatch-threads", 1));
    options.max_connections = static_cast<std::size_t>(
        args.get_uint("max-connections", options.max_connections));
    auto& limits = options.dispatcher.limits;
    limits.max_frame_bytes = static_cast<std::size_t>(
        args.get_uint("max-frame-bytes", limits.max_frame_bytes));
    limits.max_width = static_cast<std::size_t>(
        args.get_uint("max-width", limits.max_width));
    limits.default_timeout_ms =
        args.get_uint("timeout-ms", limits.default_timeout_ms);

    // Broken pipes surface as send() errors; structured teardown beats
    // a silent SIGPIPE death.
    std::signal(SIGPIPE, SIG_IGN);

    sealpaa::service::Server server(options);
    g_server = &server;
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);

    if (options.pipe_mode) {
      std::fprintf(stderr, "sealpaad serving on stdin/stdout\n");
    } else {
      const std::uint16_t port = server.start();
      // The parseable readiness line smoke clients wait for.
      std::printf("sealpaad listening on %s:%u\n",
                  options.bind_address.c_str(), static_cast<unsigned>(port));
      std::fflush(stdout);
    }
    const int code = server.serve();
    g_server = nullptr;
    std::fprintf(stderr, "sealpaad drained after %llu requests\n",
                 static_cast<unsigned long long>(
                     server.dispatcher().requests_served()));
    return code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
