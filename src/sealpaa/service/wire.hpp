// Wire protocol of the batch analysis service (schema sealpaa.service,
// version 1).
//
// Transport framing is newline-delimited JSON: one request object per
// line, one response object per line, over either a TCP connection or
// the sealpaad stdin/stdout pipe.  Requests look like
//
//   {"id": 7, "method": "recursive", "width": 16,
//    "chain": "LPAA3",                     // or ["LPAA3", "AccuFA", ...]
//    "params": {"p": 0.35, "timeout_ms": 1000}}
//
// The block-analytic method takes its topology from a "blocks" spec
// string instead of the cell chain ("chain" is then optional and
// defaults to the accurate cell — block sub-adders are exact by
// construction):
//
//   {"id": 8, "method": "block-analytic", "width": 16,
//    "blocks": "gear:4:4", "params": {"p": 0.5}}
//
// and successful responses echo the id and carry the *same* evaluation
// projection the CLI writes into its run report:
//
//   {"schema": "sealpaa.service", "schema_version": 1, "id": 7,
//    "ok": true, "method": "recursive", "evaluation": {...}}
//
// Failures are structured, never silent:
//
//   {"schema": "sealpaa.service", "schema_version": 1, "id": 7,
//    "ok": false, "error": {"code": "width-limit", "message": "..."}}
//
// This header owns everything transport-independent: the frame
// splitter (robust against arbitrarily split/merged TCP reads and
// oversized frames), strict request parsing against WireLimits, and the
// response builders.  The dispatcher and server compose these; the unit
// tests drive them without any socket.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sealpaa/engine/method.hpp"
#include "sealpaa/obs/json.hpp"
#include "sealpaa/sim/kernel.hpp"

namespace sealpaa::service {

inline constexpr std::string_view kWireSchema = "sealpaa.service";
inline constexpr int kWireSchemaVersion = 1;

/// Stable error codes of the "error.code" response field.
namespace error_code {
inline constexpr std::string_view kInvalidJson = "invalid-json";
inline constexpr std::string_view kFrameTooLarge = "frame-too-large";
inline constexpr std::string_view kBadRequest = "bad-request";
inline constexpr std::string_view kUnknownMethod = "unknown-method";
inline constexpr std::string_view kUnknownCell = "unknown-cell";
inline constexpr std::string_view kWidthLimit = "width-limit";
inline constexpr std::string_view kRequestLimit = "request-limit";
inline constexpr std::string_view kTimeout = "timeout";
inline constexpr std::string_view kInternal = "internal";
}  // namespace error_code

/// Per-request robustness limits enforced before any work is scheduled.
struct WireLimits {
  /// Longest accepted request line (bytes, excluding the newline).
  std::size_t max_frame_bytes = 64 * 1024;
  /// Widest accepted chain; individual methods may reject earlier
  /// (inclusion-exclusion guards at 20, the exhaustive engines at
  /// 13/14).
  std::size_t max_width = 64;
  /// Monte Carlo sample cap per request.
  std::uint64_t max_samples = std::uint64_t{1} << 24;
  /// Deadline applied when a request does not set params.timeout_ms.
  std::uint64_t default_timeout_ms = 10'000;
  /// Largest accepted params.timeout_ms.
  std::uint64_t max_timeout_ms = 300'000;
};

/// Incremental newline-delimited framing over an arbitrary byte stream.
/// Bytes may arrive in any fragmentation (TCP gives no message
/// boundaries); frames come out exactly as sent.  A line exceeding
/// `max_frame_bytes` yields one frame flagged `oversized` (so the
/// caller can answer with a structured error) and the remainder of that
/// line is discarded — the stream stays usable for the next frame.
class FrameSplitter {
 public:
  struct Frame {
    std::string text;
    bool oversized = false;
  };

  explicit FrameSplitter(std::size_t max_frame_bytes);

  /// Appends raw bytes; complete frames become available via next().
  /// Empty lines are skipped (cheap keep-alives), a trailing "\r" is
  /// stripped so CRLF clients work.
  void feed(std::string_view bytes);

  /// Signals end of stream: a trailing line without a final newline is
  /// flushed as a frame.
  void finish();

  /// Next complete frame in arrival order, or nullopt.
  [[nodiscard]] std::optional<Frame> next();

  /// Bytes of the current incomplete line held back.
  [[nodiscard]] std::size_t buffered() const noexcept {
    return partial_.size();
  }

 private:
  std::size_t max_frame_bytes_;
  std::string partial_;
  bool discarding_ = false;  // inside an oversized line, eating to '\n'
  std::deque<Frame> ready_;
};

/// A fully validated evaluate request.
struct Request {
  enum class Kind { kEvaluate, kStats, kPing };

  obs::Json id;  // echoed verbatim; null when the client sent none
  Kind kind = Kind::kEvaluate;
  engine::Method method = engine::Method::kRecursive;
  std::size_t width = 0;
  /// Per-stage indices into the service palette,
  /// adders::all_builtin_cells(), least significant first;
  /// size() == width.
  std::vector<std::size_t> chain;
  /// Block-adder topology; set exactly when method == kBlockAnalytic.
  std::optional<multibit::BlockChainSpec> blocks;
  double p = 0.5;
  std::uint64_t samples = 1'000'000;
  std::uint64_t seed = 0x5ea1'c0de'2017'dacULL;
  sim::Kernel kernel = sim::Kernel::kBitSliced;
  std::uint64_t timeout_ms = 0;  // resolved; 0 = expire immediately
};

struct WireError {
  std::string code;
  std::string message;
};

/// Result of parsing one frame: `id` is always the best-effort echo
/// (null when the frame was not even valid JSON); exactly one of
/// `request` / `error` is set.
struct ParseOutcome {
  obs::Json id;
  std::optional<Request> request;
  std::optional<WireError> error;
};

/// Validates one frame against the limits.  Strict like the CLI parser:
/// unknown top-level or params keys, wrong value types, out-of-range
/// probabilities, malformed chains and cells off the palette are errors,
/// never guesses.  The frame is read once, by the same reader as
/// obs::Json::parse (so malformed JSON gets the same invalid-json
/// message), with no tree: only the id becomes a Json, and chain names
/// resolve to palette indices as they are read, with no allocation per
/// stage.  Validation runs after the whole frame is read, in a fixed
/// order — unknown keys, id, method, width, blocks, chain, params, and
/// unknown cells last — so a frame with several faults always gets the
/// first one's error.
[[nodiscard]] ParseOutcome parse_request(const FrameSplitter::Frame& frame,
                                         const WireLimits& limits);

/// {"schema", "schema_version", "id", "ok": false, "error": {...}}.
[[nodiscard]] obs::Json make_error_response(const obs::Json& id,
                                            std::string_view code,
                                            std::string_view message);

/// {"schema", "schema_version", "id", "ok": true, "method",
///  "evaluation": obs::to_json(evaluation)} — field-for-field the
/// projection `sealpaa_cli analyze` writes under
/// sections.analyze.evaluation.
[[nodiscard]] obs::Json make_evaluation_response(
    const obs::Json& id, const engine::Evaluation& evaluation);

/// {"schema", "schema_version", "id", "ok": true, "pong": true}.
[[nodiscard]] obs::Json make_ping_response(const obs::Json& id);

/// Compact single-line serialization plus the terminating newline.
[[nodiscard]] std::string serialize_frame(const obs::Json& response);

}  // namespace sealpaa::service
