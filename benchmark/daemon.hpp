// The sealpaad under test, as a child process of the benchmark.  It is
// stopped and reaped by its destructor, and is killed by the kernel
// should the benchmark itself die first.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "sealpaa/obs/json.hpp"

namespace bench {

/// A running sealpaad bound to an ephemeral loopback port.
class Daemon {
 public:
  /// Starts `path --port=0 --dispatch-threads=N` and waits until it
  /// prints its listening banner.  Throws std::runtime_error when it
  /// exits or stays silent for 30 s first.
  Daemon(const std::string& path, unsigned dispatch_threads);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Peak resident set (VmHWM) in MB; 0 once stopped.
  [[nodiscard]] double peak_rss_mb() const;

  /// SIGTERM, then waits (SIGKILL after `grace_s`).  Returns the exit
  /// code, or -1 when the daemon did not exit normally.  Idempotent.
  int stop(double grace_s = 10.0);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int exit_code_ = -1;
  std::uint16_t port_ = 0;
};

/// Peak resident set (VmHWM) of this process in MB.
[[nodiscard]] double self_peak_rss_mb();

/// One request/response exchange on a fresh connection (ping, stats).
[[nodiscard]] sealpaa::obs::Json exchange(std::uint16_t port,
                                          const std::string& frame);

}  // namespace bench
