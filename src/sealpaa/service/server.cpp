#include "sealpaa/service/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sealpaa::service {

namespace {

[[nodiscard]] std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// One client session.  In TCP mode fd_in == fd_out (the socket); in
/// pipe mode they are stdin and stdout.  `inflight` counts frames
/// handed to the dispatcher whose responses have not yet reached
/// `outbuf` — the read-side backpressure signal.
struct Connection {
  Connection(std::uint64_t id_, int in, int out, bool tcp_,
             std::size_t max_frame_bytes)
      : id(id_), fd_in(in), fd_out(out), tcp(tcp_), splitter(max_frame_bytes) {}

  std::uint64_t id;
  int fd_in;
  int fd_out;
  bool tcp;  // owns its fd and may use send(MSG_NOSIGNAL)
  FrameSplitter splitter;
  std::uint64_t next_sequence = 0;
  std::size_t inflight = 0;
  std::string outbuf;
  std::size_t out_offset = 0;
  bool in_open = true;  // input side not yet at EOF
  bool dead = false;    // fatal IO error; drop without flushing
};

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), dispatcher_(options_.dispatcher) {
  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error(errno_message("Server: pipe2 failed"));
  }
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

std::uint16_t Server::start() {
  if (options_.pipe_mode) return 0;
  if (listen_fd_ >= 0) return bound_port_;

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(errno_message("Server: socket failed"));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    throw std::runtime_error("Server: invalid bind address \"" +
                             options_.bind_address + '"');
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string message = errno_message("Server: bind failed");
    ::close(fd);
    throw std::runtime_error(message);
  }
  if (::listen(fd, 128) != 0) {
    const std::string message = errno_message("Server: listen failed");
    ::close(fd);
    throw std::runtime_error(message);
  }

  sockaddr_in bound{};
  socklen_t length = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &length) != 0) {
    const std::string message = errno_message("Server: getsockname failed");
    ::close(fd);
    throw std::runtime_error(message);
  }
  bound_port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  return bound_port_;
}

void Server::request_stop() noexcept {
  stop_requested_.store(true, std::memory_order_relaxed);
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

int Server::serve() {
  if (!options_.pipe_mode && listen_fd_ < 0) start();

  const std::size_t max_frame = options_.dispatcher.limits.max_frame_bytes;
  std::map<std::uint64_t, Connection> connections;
  std::uint64_t next_connection_id = 2;  // 0 and 1 are the poll sentinels

  if (options_.pipe_mode) {
    set_nonblocking(STDIN_FILENO);
    set_nonblocking(STDOUT_FILENO);
    const std::uint64_t id = next_connection_id++;
    connections.emplace(
        id, Connection(id, STDIN_FILENO, STDOUT_FILENO, false, max_frame));
  }

  // Finished responses land here from the dispatch workers (and from
  // submit() itself for parse errors and control requests); a wake byte
  // pulls the IO thread out of poll() to flush them.  Only the push that
  // finds the list empty writes one: the IO thread drains the pipe before
  // it swaps the list out under this mutex, so a response pushed after a
  // swap finds the list empty and wakes it again, and one pushed before
  // is taken by that swap.  A burst of responses costs one write(2).
  std::mutex outgoing_mutex;
  std::vector<OutgoingResponse> outgoing;
  dispatcher_.start(
      [this, &outgoing_mutex, &outgoing](OutgoingResponse response) {
        bool first = false;
        {
          const std::lock_guard<std::mutex> lock(outgoing_mutex);
          first = outgoing.empty();
          outgoing.push_back(std::move(response));
        }
        if (!first) return;
        const char byte = 'r';
        [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
      });

  bool draining = false;
  int exit_code = 0;
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> owners;  // 0 = wake pipe, 1 = listener
  std::vector<OutgoingResponse> completed;

  for (;;) {
    if (stop_requested_.load(std::memory_order_relaxed) && !draining) {
      draining = true;
    }

    // Exit once every accepted request has been answered and flushed.
    // Per-connection inflight counts cover everything handed to the
    // dispatcher: a request is inflight until its response reached the
    // connection's output buffer.
    bool queues_empty = false;
    {
      const std::lock_guard<std::mutex> lock(outgoing_mutex);
      queues_empty = outgoing.empty();
    }
    bool connections_idle = true;
    for (const auto& [id, connection] : connections) {
      if (connection.inflight != 0 ||
          connection.out_offset < connection.outbuf.size()) {
        connections_idle = false;
        break;
      }
    }
    if (draining && queues_empty && connections_idle) break;
    if (options_.pipe_mode && connections.empty() && queues_empty) break;

    fds.clear();
    owners.clear();
    fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    owners.push_back(0);
    if (!options_.pipe_mode && !draining &&
        connections.size() < options_.max_connections) {
      // Backpressure: at the connection cap the listener is simply not
      // polled, so new clients wait in the kernel backlog.
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      owners.push_back(1);
    }
    for (const auto& [id, connection] : connections) {
      if (connection.dead) continue;
      short read_events = 0;
      if (connection.in_open && !draining &&
          connection.inflight < options_.max_inflight_per_connection) {
        read_events = POLLIN;
      }
      const short write_events =
          connection.out_offset < connection.outbuf.size() ? POLLOUT
                                                           : short{0};
      if (connection.fd_in == connection.fd_out) {
        const short events = static_cast<short>(read_events | write_events);
        if (events != 0) {
          fds.push_back(pollfd{connection.fd_in, events, 0});
          owners.push_back(id);
        }
      } else {
        if (read_events != 0) {
          fds.push_back(pollfd{connection.fd_in, read_events, 0});
          owners.push_back(id);
        }
        if (write_events != 0) {
          fds.push_back(pollfd{connection.fd_out, write_events, 0});
          owners.push_back(id);
        }
      }
    }

    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      exit_code = 1;
      break;
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      const short revents = fds[i].revents;
      if (revents == 0) continue;

      if (owners[i] == 0) {
        char drain_buffer[64];
        while (::read(wake_read_fd_, drain_buffer, sizeof(drain_buffer)) > 0) {
        }
        continue;
      }

      if (owners[i] == 1) {
        for (;;) {
          if (connections.size() >= options_.max_connections) break;
          const int client = ::accept4(listen_fd_, nullptr, nullptr,
                                       SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (client < 0) break;
          const int one = 1;
          ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          const std::uint64_t id = next_connection_id++;
          connections.emplace(id,
                              Connection(id, client, client, true, max_frame));
        }
        continue;
      }

      const auto it = connections.find(owners[i]);
      if (it == connections.end()) continue;
      Connection& connection = it->second;
      if (connection.dead) continue;

      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        connection.dead = true;
        continue;
      }

      if ((revents & (POLLIN | POLLHUP)) != 0 &&
          fds[i].fd == connection.fd_in && connection.in_open) {
        char buffer[16384];
        const ssize_t n = ::read(connection.fd_in, buffer, sizeof(buffer));
        if (n > 0) {
          connection.splitter.feed(
              std::string_view(buffer, static_cast<std::size_t>(n)));
        } else if (n == 0) {
          connection.in_open = false;
          connection.splitter.finish();
        } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          connection.dead = true;
          continue;
        }
        const auto now = std::chrono::steady_clock::now();
        while (auto frame = connection.splitter.next()) {
          connection.inflight += 1;
          dispatcher_.submit(PendingRequest{connection.id,
                                            connection.next_sequence++,
                                            std::move(*frame), now});
        }
      }

      if ((revents & POLLOUT) != 0 && fds[i].fd == connection.fd_out) {
        while (connection.out_offset < connection.outbuf.size()) {
          const std::size_t remaining =
              connection.outbuf.size() - connection.out_offset;
          const char* data = connection.outbuf.data() + connection.out_offset;
          const ssize_t n =
              connection.tcp
                  ? ::send(connection.fd_out, data, remaining, MSG_NOSIGNAL)
                  : ::write(connection.fd_out, data, remaining);
          if (n > 0) {
            connection.out_offset += static_cast<std::size_t>(n);
            continue;
          }
          if (n < 0 &&
              (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
            break;
          }
          connection.dead = true;
          break;
        }
        if (connection.out_offset == connection.outbuf.size()) {
          connection.outbuf.clear();
          connection.out_offset = 0;
        }
      }
    }

    // After the wake pipe was drained above (see the sink).
    completed.clear();
    {
      const std::lock_guard<std::mutex> lock(outgoing_mutex);
      completed.swap(outgoing);
    }
    for (OutgoingResponse& response : completed) {
      const auto it = connections.find(response.connection);
      if (it == connections.end()) continue;  // client already gone
      it->second.inflight -= 1;
      if (!it->second.dead) it->second.outbuf += response.frame;
    }

    for (auto it = connections.begin(); it != connections.end();) {
      Connection& connection = it->second;
      const bool flushed = connection.out_offset >= connection.outbuf.size();
      const bool finished =
          (!connection.in_open || draining) && connection.inflight == 0 &&
          flushed;
      if (connection.dead || finished) {
        if (connection.tcp) ::close(connection.fd_in);
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Joins the dispatch workers after they drain their queues; responses
  // for requests whose connection already died are discarded with them.
  dispatcher_.stop();

  for (auto& [id, connection] : connections) {
    if (connection.tcp) ::close(connection.fd_in);
  }
  connections.clear();
  return exit_code;
}

}  // namespace sealpaa::service
