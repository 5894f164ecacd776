// Seeded, dependency-free mutational differential test of the service's
// wire input path: FrameSplitter and parse_request (and Json::parse,
// which shares its reader) against a reference that keeps the codec they
// replaced — a tree-building recursive-descent JSON parser, a validation
// walk over that tree, the palette lookup the dispatcher used to do and a
// byte-at-a-time frame splitter, copied below as the oracle.  Valid
// request frames are mutated with byte flips, splices, truncation, depth
// bombs, duplicate keys, \u escapes and numeric edge tokens; every frame
// must get the oracle's outcome: the same id dump, the same error code
// and message, or the same request fields.  The same bytes also go
// through FrameSplitter in random chunkings.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <initializer_list>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/obs/json.hpp"
#include "sealpaa/service/wire.hpp"

namespace {

using sealpaa::obs::Json;
using sealpaa::service::FrameSplitter;
using sealpaa::service::ParseOutcome;
using sealpaa::service::WireLimits;
namespace error_code = sealpaa::service::error_code;

// ---------------------------------------------------------------------------
// Oracle: the JSON parser the service used before its one-pass reader.

class OracleParser {
 public:
  OracleParser(std::string_view text, std::size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  Json run() {
    skip_whitespace();
    Json value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("Json::parse: " + what + " at byte " +
                                std::to_string(pos_));
  }

  [[nodiscard]] bool done() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  void skip_whitespace() noexcept {
    while (!done()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (done() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value(std::size_t depth) {
    if (depth > max_depth_) fail("nesting exceeds max depth");
    if (done()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object(std::size_t depth) {
    expect('{');
    Json out = Json::object();
    skip_whitespace();
    if (!done() && peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_whitespace();
      if (done() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      skip_whitespace();
      if (out.find(key) != nullptr) fail("duplicate object key \"" + key + '"');
      out.set(key, parse_value(depth + 1));
      skip_whitespace();
      if (done()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  Json parse_array(std::size_t depth) {
    expect('[');
    Json out = Json::array();
    skip_whitespace();
    if (!done() && peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_whitespace();
      out.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (done()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
  }

  static void append_utf8(std::string& out, std::uint32_t code_point) {
    if (code_point < 0x80) {
      out.push_back(static_cast<char>(code_point));
    } else if (code_point < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code_point >> 6)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else if (code_point < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code_point >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code_point >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        --pos_;
        fail("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (done()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (done()) fail("truncated escape sequence");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t code_point = parse_hex4();
          if (code_point >= 0xD800 && code_point <= 0xDBFF) {
            if (!consume_literal("\\u")) fail("unpaired surrogate");
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            code_point =
                0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
          } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, code_point);
          break;
        }
        default:
          pos_ -= 1;
          fail("invalid escape sequence");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (!done() && peek() == '-') ++pos_;
    if (done() || peek() < '0' || peek() > '9') fail("invalid number");
    const std::size_t integer_start = pos_;
    while (!done() && peek() >= '0' && peek() <= '9') ++pos_;
    if (pos_ - integer_start > 1 && text_[integer_start] == '0') {
      pos_ = integer_start;
      fail("leading zeros are not allowed");
    }
    bool is_integer = true;
    if (!done() && peek() == '.') {
      is_integer = false;
      ++pos_;
      if (done() || peek() < '0' || peek() > '9') fail("invalid fraction");
      while (!done() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!done() && (peek() == 'e' || peek() == 'E')) {
      is_integer = false;
      ++pos_;
      if (!done() && (peek() == '+' || peek() == '-')) ++pos_;
      if (done() || peek() < '0' || peek() > '9') fail("invalid exponent");
      while (!done() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (is_integer) {
      if (token.front() == '-') {
        std::int64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec == std::errc() && ptr == token.data() + token.size()) {
          return Json(value);
        }
      } else {
        std::uint64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec == std::errc() && ptr == token.data() + token.size()) {
          return Json(value);
        }
      }
    }
    errno = 0;
    char* end = nullptr;
    const std::string copy(token);
    const double value = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size() || errno == ERANGE ||
        !std::isfinite(value)) {
      pos_ = start;
      fail("number out of range");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Oracle: the request validation walk over the tree, then the dispatcher's
// palette lookup.  Its outcome is rendered as one line, like the new one's.

struct OracleError {
  std::string_view code;
  std::string message;
};

[[noreturn]] void reject(std::string_view code, std::string message) {
  throw OracleError{code, std::move(message)};
}

void check_known_keys(const Json& object,
                      std::initializer_list<std::string_view> allowed,
                      const char* where) {
  for (const auto& [key, value] : object.items()) {
    bool known = false;
    for (const std::string_view candidate : allowed) {
      if (key == candidate) known = true;
    }
    if (!known) {
      reject(error_code::kBadRequest,
             std::string("unknown ") + where + " key \"" + key + '"');
    }
  }
}

/// The request fields as one line (kind, method, width, palette indices,
/// blocks, p bits, samples, seed, kernel, timeout).
[[nodiscard]] std::string render_request(
    const sealpaa::service::Request& request) {
  std::string out = "kind=" + std::to_string(static_cast<int>(request.kind));
  if (request.kind != sealpaa::service::Request::Kind::kEvaluate) return out;
  out += " method=";
  out += sealpaa::engine::method_name(request.method);
  out += " width=" + std::to_string(request.width) + " chain=";
  for (const std::size_t cell : request.chain) {
    out += std::to_string(cell) + ',';
  }
  out += " blocks=" + (request.blocks ? request.blocks->to_string() : "-");
  out += " p=" + std::to_string(std::bit_cast<std::uint64_t>(request.p));
  out += " samples=" + std::to_string(request.samples);
  out += " seed=" + std::to_string(request.seed);
  out += " kernel=" + std::to_string(static_cast<int>(request.kernel));
  out += " timeout=" + std::to_string(request.timeout_ms);
  return out;
}

[[nodiscard]] std::string render(const ParseOutcome& outcome) {
  std::string out = "id=" + outcome.id.dump(0) + " | ";
  if (outcome.error) {
    return out + "error " + outcome.error->code + ": " +
           outcome.error->message;
  }
  return out + render_request(*outcome.request);
}

[[nodiscard]] sealpaa::service::Request oracle_validate(
    const Json& doc, const Json& id, const WireLimits& limits) {
  using sealpaa::service::Request;
  check_known_keys(doc, {"id", "method", "width", "chain", "blocks", "params"},
                   "request");
  Request request;
  request.id = id;
  if (!id.is_null() && !id.is_string() && !id.is_number()) {
    reject(error_code::kBadRequest,
           "\"id\" must be a string, a number or absent");
  }
  const Json* method = doc.find("method");
  if (method == nullptr || !method->is_string()) {
    reject(error_code::kBadRequest, "\"method\" must be a string");
  }
  const std::string& method_name = method->string_value();
  if (method_name == "stats" || method_name == "ping") {
    if (doc.find("width") != nullptr || doc.find("chain") != nullptr ||
        doc.find("blocks") != nullptr || doc.find("params") != nullptr) {
      reject(error_code::kBadRequest,
             '"' + method_name + "\" requests take no other fields");
    }
    request.kind =
        method_name == "stats" ? Request::Kind::kStats : Request::Kind::kPing;
    return request;
  }
  try {
    request.method = sealpaa::engine::parse_method(method_name);
  } catch (const std::invalid_argument& e) {
    reject(error_code::kUnknownMethod, e.what());
  }
  const Json* width = doc.find("width");
  if (width == nullptr || !width->is_number() || width->is_bool()) {
    reject(error_code::kBadRequest, "\"width\" must be a positive integer");
  }
  std::uint64_t width_value = 0;
  try {
    width_value = width->unsigned_integer();
  } catch (const std::invalid_argument&) {
    reject(error_code::kBadRequest, "\"width\" must be a positive integer");
  }
  if (width_value == 0) {
    reject(error_code::kBadRequest, "\"width\" must be >= 1");
  }
  if (width_value > limits.max_width) {
    reject(error_code::kWidthLimit,
           "width " + std::to_string(width_value) + " exceeds the limit of " +
               std::to_string(limits.max_width));
  }
  request.width = static_cast<std::size_t>(width_value);
  const Json* blocks = doc.find("blocks");
  if (request.method == sealpaa::engine::Method::kBlockAnalytic) {
    if (blocks == nullptr || !blocks->is_string()) {
      reject(error_code::kBadRequest,
             "\"blocks\" must be a spec string (R:P,R:P,... or aca:K / "
             "etaii:X / gear:R:P) for method \"block-analytic\"");
    }
    try {
      request.blocks = sealpaa::multibit::BlockChainSpec::parse(
          static_cast<int>(request.width), blocks->string_value());
    } catch (const std::invalid_argument& e) {
      reject(error_code::kBadRequest, e.what());
    }
  } else if (blocks != nullptr) {
    reject(error_code::kBadRequest,
           "\"blocks\" is only valid with method \"block-analytic\"");
  }
  std::vector<std::string> names;
  const Json* chain = doc.find("chain");
  if (chain == nullptr) {
    if (request.method == sealpaa::engine::Method::kBlockAnalytic) {
      names.assign(request.width, "AccuFA");
    } else {
      reject(error_code::kBadRequest,
             "\"chain\" is required (a cell name or an array of cell names)");
    }
  } else if (chain->is_string()) {
    names.assign(request.width, chain->string_value());
  } else if (chain->is_array()) {
    if (chain->size() != request.width) {
      reject(error_code::kBadRequest,
             "\"chain\" lists " + std::to_string(chain->size()) +
                 " stages but \"width\" is " + std::to_string(request.width));
    }
    for (std::size_t i = 0; i < chain->size(); ++i) {
      if (!chain->at(i).is_string()) {
        reject(error_code::kBadRequest,
               "\"chain\"[" + std::to_string(i) + "] must be a cell name");
      }
      names.push_back(chain->at(i).string_value());
    }
  } else {
    reject(error_code::kBadRequest,
           "\"chain\" must be a cell name or an array of cell names");
  }
  request.timeout_ms = limits.default_timeout_ms;
  if (const Json* params = doc.find("params"); params != nullptr) {
    if (!params->is_object()) {
      reject(error_code::kBadRequest, "\"params\" must be an object");
    }
    check_known_keys(*params, {"p", "samples", "seed", "kernel", "timeout_ms"},
                     "params");
    if (const Json* p = params->find("p"); p != nullptr) {
      if (!p->is_number()) {
        reject(error_code::kBadRequest, "params.p must be a number");
      }
      request.p = p->number();
      if (!(request.p >= 0.0 && request.p <= 1.0)) {
        reject(error_code::kBadRequest, "params.p must be in [0, 1]");
      }
    }
    if (const Json* samples = params->find("samples"); samples != nullptr) {
      try {
        request.samples = samples->unsigned_integer();
      } catch (const std::invalid_argument&) {
        reject(error_code::kBadRequest,
               "params.samples must be a non-negative integer");
      }
      if (request.samples > limits.max_samples) {
        reject(error_code::kRequestLimit,
               "params.samples " + std::to_string(request.samples) +
                   " exceeds the limit of " +
                   std::to_string(limits.max_samples));
      }
    }
    if (const Json* seed = params->find("seed"); seed != nullptr) {
      try {
        request.seed = seed->unsigned_integer();
      } catch (const std::invalid_argument&) {
        reject(error_code::kBadRequest,
               "params.seed must be a non-negative integer");
      }
    }
    if (const Json* kernel = params->find("kernel"); kernel != nullptr) {
      if (!kernel->is_string()) {
        reject(error_code::kBadRequest, "params.kernel must be a string");
      }
      try {
        request.kernel = sealpaa::sim::parse_kernel(kernel->string_value());
      } catch (const std::invalid_argument& e) {
        reject(error_code::kBadRequest, e.what());
      }
    }
    if (const Json* timeout = params->find("timeout_ms"); timeout != nullptr) {
      try {
        request.timeout_ms = timeout->unsigned_integer();
      } catch (const std::invalid_argument&) {
        reject(error_code::kBadRequest,
               "params.timeout_ms must be a non-negative integer");
      }
      if (request.timeout_ms > limits.max_timeout_ms) {
        reject(error_code::kRequestLimit,
               "params.timeout_ms " + std::to_string(request.timeout_ms) +
                   " exceeds the limit of " +
                   std::to_string(limits.max_timeout_ms));
      }
    }
  }
  // The dispatcher's palette lookup, after validation.
  const auto cells = sealpaa::adders::all_builtin_cells();
  for (const std::string& name : names) {
    std::size_t index = cells.size();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].name() == name) index = i;
    }
    if (index == cells.size()) {
      reject(error_code::kUnknownCell,
             "unknown cell '" + name + "' (try: sealpaa_cli cells)");
    }
    request.chain.push_back(index);
  }
  return request;
}

[[nodiscard]] std::string oracle_parse_request(
    const FrameSplitter::Frame& frame, const WireLimits& limits) {
  if (frame.oversized) {
    return "id=null | error " + std::string(error_code::kFrameTooLarge) +
           ": frame exceeds the " + std::to_string(limits.max_frame_bytes) +
           "-byte limit";
  }
  Json doc;
  try {
    doc = OracleParser(frame.text, 64).run();
  } catch (const std::invalid_argument& e) {
    return "id=null | error " + std::string(error_code::kInvalidJson) + ": " +
           e.what();
  }
  if (!doc.is_object()) {
    return "id=null | error " + std::string(error_code::kBadRequest) +
           ": request must be a JSON object";
  }
  Json id;
  if (const Json* found = doc.find("id"); found != nullptr) id = *found;
  const std::string head = "id=" + id.dump(0) + " | ";
  try {
    return head + render_request(oracle_validate(doc, id, limits));
  } catch (const OracleError& e) {
    return head + "error " + std::string(e.code) + ": " + e.message;
  }
}

/// The byte-at-a-time splitter FrameSplitter replaced.
class OracleSplitter {
 public:
  explicit OracleSplitter(std::size_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(std::string_view bytes) {
    for (const char c : bytes) {
      if (discarding_) {
        if (c == '\n') discarding_ = false;
        continue;
      }
      if (c == '\n') {
        if (!partial_.empty() && partial_.back() == '\r') partial_.pop_back();
        if (!partial_.empty()) frames.push_back({std::move(partial_), false});
        partial_.clear();
        continue;
      }
      partial_.push_back(c);
      if (partial_.size() > max_frame_bytes_) {
        frames.push_back({std::string(), true});
        partial_.clear();
        discarding_ = true;
      }
    }
  }

  void finish() {
    if (discarding_) {
      discarding_ = false;
      return;
    }
    if (!partial_.empty() && partial_.back() == '\r') partial_.pop_back();
    if (!partial_.empty()) frames.push_back({std::move(partial_), false});
    partial_.clear();
  }

  [[nodiscard]] std::size_t buffered() const noexcept {
    return partial_.size();
  }

  std::vector<FrameSplitter::Frame> frames;

 private:
  std::size_t max_frame_bytes_;
  std::string partial_;
  bool discarding_ = false;
};

// ---------------------------------------------------------------------------
// Mutations

/// splitmix64: the same sequence on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform-ish in [0, n) for n >= 1.
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  template <class T>
  const T& pick(const std::vector<T>& values) {
    return values[below(values.size())];
  }

 private:
  std::uint64_t state_;
};

const std::vector<std::string>& seed_frames() {
  static const std::vector<std::string> frames = {
      R"({"id":1,"method":"recursive","width":8,"chain":"LPAA1","params":{"p":0.35}})",
      R"({"id":2,"method":"analytic-pmf","width":6,"chain":["LPAA2","AccuFA","LPAA5","LPAA7","LPAA3","AccuFA"],"params":{"p":0.3}})",
      R"({"id":3,"method":"inclusion-exclusion","width":6,"chain":"LPAA4","params":{"p":0.5}})",
      R"({"id":4,"method":"exhaustive","width":5,"chain":"LPAA6"})",
      R"({"id":5,"method":"weighted-exhaustive","width":5,"chain":"LPAA3","params":{"p":0.2}})",
      R"({"id":6,"method":"monte-carlo","width":8,"chain":"LPAA2","params":{"p":0.4,"samples":4096,"seed":11,"kernel":"scalar"}})",
      R"({"id":7,"method":"block-analytic","width":12,"blocks":"gear:4:4","params":{"p":0.5}})",
      R"({"id":8,"method":"ping"})",
      R"({"id":9,"method":"stats"})",
      R"({"id":"x","method":"recursive","width":4,"chain":"LPAA1","params":{"p":1.5}})",
      R"({"id":3,"method":"recursive","width":3,"chain":["LPAA1","LPAA9","AccuFA"]})",
      R"({"id":5,"method":"monte-carlo","width":4,"chain":"LPAA1","params":{"samples":999999999999}})",
      R"({"id":6,"method":"recursive","width":4,"chain":"LPAA1","params":{"timeout_ms":0}})",
      R"({"id":-12,"method":"recursive","width":4,"chain":["LPAA1","LPAA2","LPAA3","LPAA4"],"params":{"p":0.25,"timeout_ms":300000}})",
      R"( { "id" : 2.5 , "method" : "recursive" , "width" : 2 , "chain" : [ "AccuFA" , "LPAA7" ] } )",
      R"({"\u0069d":"a\"b\\c","\u006dethod":"recursive","width":2,"chain":["LPA\u00411","LPAA2"]})",
      R"({"id":{"k":[1,2.5,"x"],"n":null},"method":"ping"})",
      R"({"id":[1,-2,3.25e-5,false],"method":"ping"})",
      R"({"method":"block-analytic","width":8,"blocks":"4:0,4:2","chain":"AccuFA","params":{"p":0.6}})",
      R"({"method":"monte-carlo","width":4,"chain":"LPAA5","params":{"kernel":"bitsliced","seed":18446744073709551615,"samples":0}})",
      R"({"method":"recursive","width":2,"chain":["LPAA1",7],"params":{"p":0,"extra":1}})",
      R"({"method":"recursive","width":2,"chain":"LPAA1","widht":2})",
      R"([{"method":"ping"}])",
  };
  return frames;
}

const std::vector<std::string>& edge_tokens() {
  static const std::vector<std::string> tokens = {
      "1e309", "-1e309", "1e-310", "4.9e-324", "-4.9e-324", "1e-400",
      "0e-400", "-0", "-0.0", "0.0", "NaN", "Infinity", "-", "1.", ".5",
      "1e", "1e+", "01", "18446744073709551615", "18446744073709551616",
      "99999999999999999999", "-9223372036854775808", "-9223372036854775809",
      "2.2250738585072012e-308", "2.2250738585072014e-308",
      "2.2250738585072011e-308", "1.7976931348623157e308",
      "1.7976931348623159e308", "0.35", "1E2", "1e-5", "true", "null", "\"\"",
      "{}", "[]", "0.99999999999999999"};
  return tokens;
}

const std::vector<std::string>& escapes() {
  static const std::vector<std::string> values = {
      "\\u0041", "\\u00e9", "\\ud83d\\ude00", "\\ud83d", "\\ude00",
      "\\ud83dx", "\\ud83d\\u0041", "\\u00zz", "\\u12", "\\/", "\\x", "\\",
      "\\\"", "\\u0000", "\\n", "\\u004c"};
  return values;
}

std::string mutate(std::string frame, Rng& rng) {
  const std::size_t rounds = 1 + rng.below(3);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::size_t at = frame.empty() ? 0 : rng.below(frame.size() + 1);
    switch (rng.below(8)) {
      case 0: {  // byte flip
        if (frame.empty()) break;
        const std::size_t i = rng.below(frame.size());
        static const std::string kSignificant = "{}[]\":,\\ 0123456789eE+-.tfnu\r\n\t";
        frame[i] = rng.below(2) == 0
                       ? static_cast<char>(frame[i] ^
                                           static_cast<int>(1 + rng.below(255)))
                       : kSignificant[rng.below(kSignificant.size())];
        break;
      }
      case 1: {  // splice a piece of another frame in
        const std::string& other = rng.pick(seed_frames());
        const std::size_t from = rng.below(other.size());
        const std::size_t length = rng.below(other.size() - from + 1);
        const std::size_t erase = rng.below(frame.size() - at + 1);
        frame.replace(at, rng.below(2) == 0 ? 0 : erase,
                      other.substr(from, length));
        break;
      }
      case 2:  // truncation
        frame.resize(at);
        break;
      case 3: {  // depth bomb around a value
        static const std::vector<std::size_t> kDepths = {62, 63, 64, 65, 66,
                                                         300};
        const std::size_t depth = rng.pick(kDepths);
        const bool objects = rng.below(2) == 0;
        std::string open;
        std::string close;
        for (std::size_t i = 0; i < depth; ++i) {
          open += objects ? "{\"a\":" : "[";
          close += objects ? "}" : "]";
        }
        const std::size_t colon = frame.find(':', at);
        if (colon == std::string::npos) {
          frame = open + frame + close;
        } else {
          frame.insert(colon + 1, open);
          const std::size_t end = frame.find_first_of(",}", colon + 1 + open.size());
          frame.insert(end == std::string::npos ? frame.size() : end, close);
        }
        break;
      }
      case 4: {  // duplicate a key
        static const std::vector<std::string> kDuplicates = {
            "\"method\":\"ping\",", "\"id\":1,", "\"width\":4,",
            "\"chain\":\"LPAA1\",", "\"\\u006dethod\":\"ping\",",
            "\"p\":0.5,", "\"timeout_ms\":1,", "\"params\":{},"};
        const std::size_t brace = frame.find('{', at);
        const std::size_t target =
            brace == std::string::npos ? frame.find('{') : brace;
        if (target == std::string::npos) break;
        frame.insert(target + 1, rng.pick(kDuplicates));
        break;
      }
      case 5: {  // a \u escape (or a broken one) inside a string
        const std::size_t quote = frame.find('"', at);
        if (quote == std::string::npos) break;
        frame.insert(quote + 1, rng.pick(escapes()));
        break;
      }
      case 6: {  // a numeric edge token in place of a number or value
        const std::size_t digit = frame.find_first_of("-0123456789", at);
        const std::string& token = rng.pick(edge_tokens());
        if (digit == std::string::npos) {
          frame.insert(at, token);
          break;
        }
        std::size_t end = digit + 1;
        while (end < frame.size() &&
               std::string_view("0123456789.eE+-").find(frame[end]) !=
                   std::string_view::npos) {
          ++end;
        }
        frame.replace(digit, end - digit, token);
        break;
      }
      default: {  // a value replaced by an edge token
        const std::size_t colon = frame.find(':', at);
        if (colon == std::string::npos) break;
        const std::size_t end = frame.find_first_of(",}", colon + 1);
        frame.replace(colon + 1,
                      (end == std::string::npos ? frame.size() : end) -
                          colon - 1,
                      rng.pick(edge_tokens()));
        break;
      }
    }
  }
  return frame;
}

void expect_same_outcome(const FrameSplitter::Frame& frame,
                         const WireLimits& limits) {
  const std::string actual =
      render(sealpaa::service::parse_request(frame, limits));
  const std::string expected = oracle_parse_request(frame, limits);
  ASSERT_EQ(actual, expected) << "frame: " << frame.text;
}

/// Json::parse must agree with the oracle parser, and the text of a
/// document it accepts must parse again.  parse → dump reaches a fixed
/// point after at most two rounds: a double -0.0 dumps as "-0", which
/// reads back as the integer 0 (the value survives, the type does not).
void expect_same_document(const std::string& text) {
  std::string expected;
  try {
    expected = OracleParser(text, 64).run().dump(0);
  } catch (const std::invalid_argument& e) {
    expected = e.what();
  }
  std::string actual;
  try {
    actual = Json::parse(text).dump(0);
  } catch (const std::invalid_argument& e) {
    ASSERT_EQ(e.what(), expected) << "text: " << text;
    return;
  }
  ASSERT_EQ(actual, expected) << "text: " << text;
  const std::string again = Json::parse(actual).dump(0);
  if (again != actual) {
    ASSERT_NE(actual.find("-0"), std::string::npos) << "text: " << text;
  }
  ASSERT_EQ(Json::parse(again).dump(0), again) << "text: " << text;
}

TEST(WireFuzz, SeedFramesMatchTheOracle) {
  const WireLimits limits;
  for (const std::string& text : seed_frames()) {
    expect_same_outcome(FrameSplitter::Frame{text, false}, limits);
    expect_same_document(text);
  }
  expect_same_outcome(FrameSplitter::Frame{std::string(), true}, limits);
}

TEST(WireFuzz, EdgeTokensInEveryNumericSlot) {
  // Every edge token as each numeric field and as the id.
  const WireLimits limits;
  for (const std::string& token : edge_tokens()) {
    for (const std::string& text :
         {R"({"id":)" + token + R"(,"method":"ping"})",
          R"({"method":"recursive","width":)" + token + R"(,"chain":"LPAA1"})",
          R"({"method":"recursive","width":2,"chain":"LPAA1","params":{"p":)" +
              token + "}}",
          R"({"method":"monte-carlo","width":2,"chain":"LPAA1","params":{"samples":)" +
              token + "}}",
          R"({"method":"monte-carlo","width":2,"chain":"LPAA1","params":{"seed":)" +
              token + "}}",
          R"({"method":"recursive","width":2,"chain":"LPAA1","params":{"timeout_ms":)" +
              token + "}}"}) {
      expect_same_outcome(FrameSplitter::Frame{text, false}, limits);
      expect_same_document(text);
    }
  }
}

TEST(WireFuzz, MutatedFramesMatchTheOracle) {
  Rng rng(0x5ea1'7413'f022ULL);
  WireLimits limits;
  for (int i = 0; i < 30000; ++i) {
    const std::string text = mutate(rng.pick(seed_frames()), rng);
    // A narrower width limit now and then, so width-limit shows up.
    limits.max_width = i % 5 == 0 ? 4 : 64;
    expect_same_outcome(FrameSplitter::Frame{text, false}, limits);
    expect_same_document(text);
    if (HasFatalFailure()) return;
  }
}

TEST(WireFuzz, SplitterMatchesTheOracleInRandomChunkings) {
  Rng rng(0x5ea1'0000'5117ULL);
  static const std::vector<std::string> kTerminators = {
      "\n", "\r\n", "\n\n", "\r\n\r\n", "\r\r\n", "\n\r\n"};
  static const std::vector<std::size_t> kLimits = {8, 64, 200, 64 * 1024};
  for (int stream = 0; stream < 400; ++stream) {
    WireLimits limits;
    limits.max_frame_bytes = rng.pick(kLimits);
    std::string wire;
    const std::size_t frames = 1 + rng.below(24);
    for (std::size_t i = 0; i < frames; ++i) {
      wire += rng.below(3) == 0 ? mutate(rng.pick(seed_frames()), rng)
                                : rng.pick(seed_frames());
      if (i + 1 < frames || rng.below(4) != 0) wire += rng.pick(kTerminators);
    }
    FrameSplitter splitter(limits.max_frame_bytes);
    OracleSplitter oracle(limits.max_frame_bytes);
    oracle.feed(wire);
    std::vector<FrameSplitter::Frame> got;
    for (std::size_t offset = 0; offset < wire.size();) {
      const std::size_t n =
          std::min(wire.size() - offset, 1 + rng.below(rng.below(2) == 0 ? 8 : 300));
      splitter.feed(std::string_view(wire).substr(offset, n));
      offset += n;
      while (auto frame = splitter.next()) got.push_back(std::move(*frame));
    }
    ASSERT_EQ(splitter.buffered(), oracle.buffered());
    splitter.finish();
    oracle.finish();
    while (auto frame = splitter.next()) got.push_back(std::move(*frame));
    ASSERT_EQ(got.size(), oracle.frames.size()) << "stream " << stream;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].text, oracle.frames[i].text);
      ASSERT_EQ(got[i].oversized, oracle.frames[i].oversized);
      expect_same_outcome(got[i], limits);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
