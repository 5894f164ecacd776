// Client-side spans for the traced run.  Spans are recorded around calls
// into the library's public functions (and around whole requests on the
// load generator), into a buffer allocated once up front; nothing is
// written until the run ends.  A layer's self time is its span's
// duration minus the time its child spans cover.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  using Id = std::uint32_t;  // 0 = no span (root parent, or buffer full)

  explicit Tracer(std::size_t capacity);

  /// Interns a span name.  Not thread-safe: intern every name before
  /// recording from several threads.
  [[nodiscard]] std::uint32_t name(std::string_view text);

  /// Reserves a span id; its interval is filled by finish().  Safe to
  /// call from any thread.  Returns 0 once the buffer is full.
  [[nodiscard]] Id open(std::uint32_t name, Id parent, std::uint64_t request,
                        std::uint32_t lane);
  void finish(Id id, std::int64_t start_ns, std::int64_t end_ns);
  /// open() + finish() for a span whose interval is already known.
  void record(std::uint32_t name, Id parent, std::uint64_t request,
              std::uint32_t lane, std::int64_t start_ns, std::int64_t end_ns);

  struct Totals {
    std::uint64_t count = 0;
    double wall_ns = 0.0;  // summed durations
    double self_ns = 0.0;  // summed durations minus child coverage
  };
  /// Totals over the recorded spans called `name`.  Call after all
  /// recording threads have been joined.
  [[nodiscard]] Totals totals(std::string_view name) const;

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Writes every span as a Chrome trace-event file (loadable in
  /// Perfetto or chrome://tracing); each event's args carry its id,
  /// parent and request id, and "self_time" holds the totals of every
  /// span name.  Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    Id parent = 0;
    std::uint32_t lane = 0;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  [[nodiscard]] std::size_t used() const noexcept;
  [[nodiscard]] std::map<std::string, Totals> all_totals() const;

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span around one call; a no-op when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint32_t name, Tracer::Id parent = 0,
             std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->open(name, parent, request, 0) : 0),
        start_ns_(now_ns()) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->finish(id_, start_ns_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] Tracer::Id id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  Tracer::Id id_;
  std::int64_t start_ns_;
};

}  // namespace bench
