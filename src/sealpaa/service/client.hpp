// Minimal blocking client for the sealpaad TCP endpoint.
//
// This is the in-process counterpart of scripts/service_smoke.py: the
// unit tests and sealpaa_loadgen use it to pipeline requests
// and read newline-delimited responses without hand-rolling socket code
// at every call site.  Deliberately synchronous — measurement and test
// clients want deterministic, sequential IO.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sealpaa/service/wire.hpp"

namespace sealpaa::service {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects to an IPv4 address (dotted quad) and enables TCP_NODELAY.
  /// Throws std::runtime_error on failure.
  void connect(const std::string& host, std::uint16_t port);

  /// Writes `json` plus the terminating newline, fully.
  void send_frame(std::string_view json);

  /// Writes raw bytes verbatim — lets tests send malformed, merged or
  /// partial frames.
  void send_bytes(std::string_view bytes);

  /// Blocks for the next response line; nullopt once the server closes
  /// the connection.  Throws std::runtime_error on IO errors.
  [[nodiscard]] std::optional<std::string> read_frame();

  /// Half-closes the write side (the pipelined-EOF pattern: send
  /// everything, shut down writes, then drain responses).
  void shutdown_write();

  void close();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

 private:
  int fd_ = -1;
  /// Response frames can embed large stats payloads, so the client
  /// accepts far longer lines than the server does.
  FrameSplitter splitter_{std::size_t{1} << 22};
};

}  // namespace sealpaa::service
