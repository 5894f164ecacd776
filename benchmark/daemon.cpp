#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sealpaa/service/client.hpp"
#include "trace.hpp"

namespace bench {

namespace {

constexpr const char* kBanner = "listening on";
constexpr double kBannerTimeoutS = 30.0;

[[nodiscard]] double vm_hwm_mb(const std::string& status_path) {
  std::ifstream status(status_path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

Daemon::Daemon(const std::string& path, unsigned dispatch_threads) {
  const std::vector<std::string> argv = {
      path, "--port=0",
      "--dispatch-threads=" + std::to_string(dispatch_threads)};
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);

  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  const pid_t parent = ::getpid();
  // vfork, not fork: fork copies this process's page tables, so the
  // spawn time setup_s measures would grow with the benchmark's own
  // memory (by about 1 ms per 64 MB on a 4-vCPU Xeon VM) and vary with
  // it.
  pid_ = ::vfork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("vfork failed");
  }
  if (pid_ == 0) {
    // The child shares this address space until exec: plain system
    // calls only.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  stdout_fd_ = fds[0];

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(kBannerTimeoutS * 1e9);
  std::string buffer;
  for (;;) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.find(kBanner) == std::string::npos) continue;
      const std::size_t colon = line.rfind(':');
      const long port =
          colon == std::string::npos
              ? 0
              : std::strtol(line.c_str() + colon + 1, nullptr, 10);
      if (port <= 0 || port > 65535) {
        stop(1.0);
        throw std::runtime_error("unparseable daemon banner: " + line);
      }
      port_ = static_cast<std::uint16_t>(port);
      return;
    }
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready =
        left_ms > 0 ? ::poll(&pfd, 1, static_cast<int>(left_ms)) : 0;
    if (ready < 0 && errno == EINTR) continue;
    char chunk[512];
    const ssize_t n = ready > 0 ? ::read(stdout_fd_, chunk, sizeof(chunk)) : 0;
    if (n <= 0) {
      stop(1.0);
      throw std::runtime_error("'" + path + "' did not report '" + kBanner +
                               "'");
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const {
  if (pid_ < 0) return 0.0;
  return vm_hwm_mb("/proc/" + std::to_string(pid_) + "/status");
}

int Daemon::stop(double grace_s) {
  if (pid_ < 0) return exit_code_;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(grace_s * 1e9);
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (reaped == 0) {
    ::kill(pid_, SIGKILL);
    reaped = ::waitpid(pid_, &status, 0);
  }
  exit_code_ = reaped == pid_ && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  return exit_code_;
}

double self_peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }

sealpaa::obs::Json exchange(std::uint16_t port, const std::string& frame) {
  sealpaa::service::Client client;
  client.connect("127.0.0.1", port);
  client.send_frame(frame);
  const auto response = client.read_frame();
  client.close();
  if (!response) throw std::runtime_error("no response to " + frame);
  return sealpaa::obs::Json::parse(*response);
}

}  // namespace bench
