#include "loadgen.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>

namespace bench {

namespace {

/// Outstanding requests a connection can track; far above any window.
constexpr std::size_t kRing = std::size_t{1} << 16;

/// Length of the slices a closed-loop window is counted in.
constexpr double kSliceS = 0.5;

/// Parses the `"id":N` a response frame echoes, or UINT64_MAX.
[[nodiscard]] std::uint64_t response_id(const std::string& frame) {
  const std::size_t at = frame.find("\"id\":");
  if (at == std::string::npos) return UINT64_MAX;
  std::uint64_t value = 0;
  bool digits = false;
  for (std::size_t i = at + 5; i < frame.size() && frame[i] >= '0' &&
                               frame[i] <= '9' && value < UINT64_MAX / 10;
       ++i) {
    value = value * 10 + static_cast<std::uint64_t>(frame[i] - '0');
    digits = true;
  }
  return digits ? value : UINT64_MAX;
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

LoadGenerator::LoadGenerator(std::uint16_t port,
                             const ServiceWorkload& workload,
                             BurstStream stream, std::size_t connections,
                             Tracer* tracer)
    : workload_(workload), stream_(std::move(stream)), tracer_(tracer) {
  if (tracer_ != nullptr) span_name_ = tracer_->name("client.request");
  const std::string sentinel = "987654321987654321";
  const std::string ping = service::serialize_frame(
      service::make_ping_response(
          obs::Json(std::uint64_t{987654321987654321ull})));
  const std::size_t at = ping.find(sentinel);
  ping_head_ = ping.substr(0, at);
  ping_tail_ = ping.substr(at + sentinel.size());

  for (std::size_t i = 0; i < connections; ++i) {
    auto connection = std::make_unique<Connection>();
    connection->ring.resize(kRing);
    connection->client.connect("127.0.0.1", port);
    connections_.push_back(std::move(connection));
  }
  for (std::size_t i = 0; i < connections; ++i) {
    connections_[i]->reader = std::thread([this, i] { read_loop(i); });
  }
}

LoadGenerator::~LoadGenerator() { close(); }

void LoadGenerator::pull(Burst& burst) {
  const std::lock_guard<std::mutex> lock(stream_mutex_);
  stream_(burst);
}

bool LoadGenerator::try_send(std::size_t index, const Burst& burst,
                           std::int64_t due_ns, Kind kind, std::size_t limit) {
  Connection& c = *connections_[index];
  const std::size_t stride = connections_.size();
  std::string bytes;
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    if (c.outstanding + burst.size() > limit) return false;
    for (const std::uint32_t config : burst) {
      const std::uint64_t seq = c.next_seq++;
      Pending& slot = c.ring[seq % kRing];
      if (slot.kind != Kind::kFree) {
        throw std::runtime_error("more than 65536 requests outstanding");
      }
      const std::uint64_t id = seq * stride + index;
      slot = Pending{id, due_ns, config, kind};
      c.outstanding += 1;
      bytes += "{\"id\":";
      bytes += std::to_string(id);
      bytes += workload_.configs[config].request_tail;
    }
  }
  sent_.fetch_add(burst.size(), std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(c.send_mutex);
  c.client.send_bytes(bytes);
  return true;
}

void LoadGenerator::send_ping(std::size_t index) {
  Connection& c = *connections_[index];
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    const std::uint64_t seq = c.next_seq++;
    Pending& slot = c.ring[seq % kRing];
    if (slot.kind != Kind::kFree) {
      throw std::runtime_error("more than 65536 requests outstanding");
    }
    id = seq * connections_.size() + index;
    slot = Pending{id, now_ns(), 0, Kind::kPing};
    c.outstanding += 1;
  }
  const std::lock_guard<std::mutex> lock(c.send_mutex);
  c.client.send_bytes("{\"id\":" + std::to_string(id) +
                      ",\"method\":\"ping\"}\n");
}

void LoadGenerator::read_loop(std::size_t index) {
  Connection& c = *connections_[index];
  try {
    while (const auto frame = c.client.read_frame()) {
      handle(index, *frame, now_ns());
    }
  } catch (const std::exception& e) {
    std::cerr << "connection " << index << ": " << e.what() << "\n";
    const std::lock_guard<std::mutex> lock(c.mutex);
    c.failed += 1;
  }
}

void LoadGenerator::handle(std::size_t index, const std::string& frame,
                         std::int64_t now) {
  Connection& c = *connections_[index];
  const std::uint64_t id = response_id(frame);
  const std::size_t stride = connections_.size();
  Pending request;
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    Pending* slot = id == UINT64_MAX || id % stride != index
                        ? nullptr
                        : &c.ring[(id / stride) % kRing];
    if (slot == nullptr || slot->kind == Kind::kFree || slot->id != id) {
      c.failed += 1;
      return;
    }
    request = *slot;
    slot->kind = Kind::kFree;
    c.outstanding -= 1;

    if (request.kind == Kind::kPing) {
      if (frame_matches(frame, ping_head_, id, ping_tail_)) {
        c.ping_rtt_us.push_back(static_cast<double>(now - request.due_ns) /
                                1e3);
      } else {
        c.failed += 1;
      }
      return;
    }
    const Config& config = workload_.configs[request.config];
    if (!frame_matches(frame, config.response_head, id, config.response_tail)) {
      c.failed += 1;
    } else if (request.kind == Kind::kClosed) {
      const std::int64_t start =
          window_start_ns_.load(std::memory_order_relaxed);
      if (now >= start &&
          now < window_end_ns_.load(std::memory_order_relaxed)) {
        c.window_verified += 1;
        c.slice_verified[static_cast<std::size_t>(
            (now - start) / slice_ns_.load(std::memory_order_relaxed))] += 1;
      }
    } else {
      const std::int64_t latency = now - request.due_ns;
      c.latency_us.push_back(static_cast<double>(latency) / 1e3);
      if (latency <= limit_ns_.load(std::memory_order_relaxed)) {
        c.within_limit += 1;
      }
    }
  }
  if (tracing_.load(std::memory_order_relaxed)) {
    tracer_->record(span_name_, 0, id, static_cast<std::uint32_t>(index + 1),
                    request.due_ns, now);
  }
  while (closed_active_.load(std::memory_order_relaxed)) {
    if (c.next.empty()) pull(c.next);
    if (!try_send(index, c.next, now_ns(), Kind::kClosed, workload_.window)) {
      break;
    }
    c.next.clear();
  }
}

void LoadGenerator::wait_idle(double timeout_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (;;) {
    std::size_t outstanding = 0;
    for (auto& c : connections_) {
      const std::lock_guard<std::mutex> lock(c->mutex);
      outstanding += c->outstanding;
    }
    // Whatever is still outstanding at close() counts as failed.
    if (outstanding == 0 || now_ns() > deadline) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

ClosedResult LoadGenerator::closed_loop(double warmup_s, double measure_s) {
  const std::size_t slices = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(measure_s / kSliceS)));
  for (auto& c : connections_) {
    const std::lock_guard<std::mutex> lock(c->mutex);
    c->window_verified = 0;
    c->slice_verified.assign(slices, 0);
  }
  window_start_ns_.store(INT64_MAX);
  window_end_ns_.store(INT64_MAX);
  const std::int64_t slice_ns = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(measure_s * 1e9 /
                                             static_cast<double>(slices))));
  slice_ns_.store(slice_ns);
  closed_active_.store(true);
  // One burst per connection; each reader refills its window from the
  // first response on.
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    Burst burst;
    pull(burst);
    try_send(i, burst, now_ns(), Kind::kClosed, SIZE_MAX);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(measure_s * 1e9);
  window_end_ns_.store(end);
  window_start_ns_.store(start);
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(end)));
  closed_active_.store(false);
  wait_idle(30.0);

  ClosedResult result;
  result.seconds = static_cast<double>(end - start) / 1e9;
  std::vector<std::uint64_t> per_slice(slices, 0);
  for (auto& c : connections_) {
    const std::lock_guard<std::mutex> lock(c->mutex);
    result.verified += c->window_verified;
    for (std::size_t i = 0; i < slices; ++i) {
      per_slice[i] += c->slice_verified[i];
    }
  }
  for (const std::uint64_t count : per_slice) {
    result.slice_rates.push_back(static_cast<double>(count) * 1e9 /
                                 static_cast<double>(slice_ns));
  }
  return result;
}

OpenResult LoadGenerator::open_loop(double rate_rps, double seconds,
                                  double limit_ms,
                                  std::uint64_t arrival_seed, bool pings) {
  for (auto& c : connections_) {
    const std::lock_guard<std::mutex> lock(c->mutex);
    c->within_limit = 0;
    c->latency_us.clear();
    c->ping_rtt_us.clear();
  }
  limit_ns_.store(static_cast<std::int64_t>(limit_ms * 1e6));
  // The default 50 us timer slack would show up as generator lag.
  ::prctl(PR_SET_TIMERSLACK, 1UL);

  OpenResult result;
  result.rate_rps = rate_rps;
  SplitMix arrivals(arrival_seed);
  const std::int64_t start = now_ns() + 2'000'000;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t due = start;
  Burst burst;
  for (std::size_t n = 0; due < end; ++n) {
    pull(burst);
    const auto due_point = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due));
    std::this_thread::sleep_until(due_point);
    const std::size_t index = n % connections_.size();
    result.lag_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
    try_send(index, burst, due, Kind::kOpen, SIZE_MAX);
    result.sent += burst.size();
    if (pings && n % 50 == 0) send_ping(index);
    due += static_cast<std::int64_t>(-std::log(arrivals.unit()) *
                                     static_cast<double>(burst.size()) /
                                     rate_rps * 1e9);
  }
  wait_idle(30.0);
  for (auto& c : connections_) {
    const std::lock_guard<std::mutex> lock(c->mutex);
    result.within_limit += c->within_limit;
    result.latency_us.insert(result.latency_us.end(), c->latency_us.begin(),
                             c->latency_us.end());
    result.ping_rtt_us.insert(result.ping_rtt_us.end(),
                              c->ping_rtt_us.begin(), c->ping_rtt_us.end());
  }
  return result;
}

std::uint64_t LoadGenerator::failed() {
  std::uint64_t total = 0;
  for (auto& c : connections_) {
    const std::lock_guard<std::mutex> lock(c->mutex);
    total += c->failed;
  }
  return total;
}

void LoadGenerator::close() {
  if (closed_) return;
  closed_ = true;
  closed_active_.store(false);
  for (auto& c : connections_) c->client.shutdown_write();
  for (auto& c : connections_) {
    if (c->reader.joinable()) c->reader.join();
    c->failed += c->outstanding;
    c->outstanding = 0;
  }
}

}  // namespace bench
