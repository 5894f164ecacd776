// The one JSON grammar of the library: a strict RFC 8259 reader that
// reports a document as a stream of events.
//
// `read_json(text, handler, max_depth)` reads exactly one document
// (whitespace around it allowed, anything else after it an error) and
// calls, in document order:
//
//   handler.begin_object();   handler.key(std::string_view);
//   handler.end_object();     handler.begin_array();  handler.end_array();
//   handler.string(std::string_view);     // a string value, unescaped
//   handler.scalar(Json&&);               // null, true/false or a number
//
// Views are only valid for the duration of the call.  Numbers arrive as
// Json values that keep their native type: non-negative integers as
// Unsigned, negative ones as Integer, everything else (fractions,
// exponents, magnitudes beyond 64 bits) as Double, with strtod's
// accept/reject rule — a value that overflows, or underflows to a
// subnormal or zero from non-zero digits, is an error.
//
// Malformed input, a duplicate key within one object and nesting deeper
// than `max_depth` throw std::invalid_argument("Json::parse: <what> at
// byte <offset>"), possibly after some events were delivered.  Two
// consumers share this code, so they share every accept/reject decision
// and every message: `Json::parse` builds a tree (JsonBuilder below), and
// the service's `parse_request` notes the request fields as they pass.
#pragma once

#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sealpaa/obs/json.hpp"

namespace sealpaa::obs {

namespace detail {

template <class Handler>
class JsonReader {
 public:
  JsonReader(std::string_view text, std::size_t max_depth, Handler& handler)
      : text_(text), max_depth_(max_depth), handler_(handler) {}

  void run() {
    skip_whitespace();
    value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing garbage after document");
  }

 private:
  /// One key of an object still being read: where its text lies
  /// between the quotes, and whether it holds escapes (then it is
  /// decoded again to compare).
  struct KeySpan {
    std::size_t begin;  // first byte after the opening quote
    std::size_t end;    // offset of the closing quote
    bool escaped;
  };

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

  void value(std::size_t depth) {
    if (depth > max_depth_) fail("nesting exceeds max depth");
    if (done()) fail("unexpected end of input");
    switch (peek()) {
      case '{':
        object(depth);
        return;
      case '[':
        array(depth);
        return;
      case '"':
        handler_.string(string());
        return;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        handler_.scalar(Json(true));
        return;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        handler_.scalar(Json(false));
        return;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        handler_.scalar(Json());
        return;
      default:
        handler_.scalar(number());
        return;
    }
  }

  void object(std::size_t depth) {
    expect('{');
    handler_.begin_object();
    skip_whitespace();
    if (!done() && peek() == '}') {
      ++pos_;
      handler_.end_object();
      return;
    }
    const std::size_t first_key = key_count_;
    while (true) {
      skip_whitespace();
      if (done() || peek() != '"') fail("expected object key string");
      const std::size_t key_begin = pos_ + 1;
      const std::string_view key = string();
      const KeySpan span{key_begin, pos_ - 1,
                         key.data() != text_.data() + key_begin};
      skip_whitespace();
      expect(':');
      skip_whitespace();
      for (std::size_t i = first_key; i < key_count_; ++i) {
        if (same_key(key_at(i), key)) {
          fail("duplicate object key \"" + std::string(key) + '"');
        }
      }
      push_key(span);
      handler_.key(key);
      value(depth + 1);
      skip_whitespace();
      if (done()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      pop_keys(first_key);
      handler_.end_object();
      return;
    }
  }

  [[nodiscard]] const KeySpan& key_at(std::size_t i) const {
    return i < kInlineKeys ? inline_keys_[i] : more_keys_[i - kInlineKeys];
  }
  void push_key(const KeySpan& span) {
    if (key_count_ < kInlineKeys) {
      inline_keys_[key_count_] = span;
    } else {
      more_keys_.push_back(span);
    }
    ++key_count_;
  }
  /// Forgets every key from the `count`th on (an object was closed).
  void pop_keys(std::size_t count) {
    key_count_ = count;
    if (count < kInlineKeys) count = kInlineKeys;
    more_keys_.resize(count - kInlineKeys);
  }

  /// Whether the earlier key `span` decodes to `key`.
  [[nodiscard]] bool same_key(const KeySpan& span, std::string_view key) {
    if (!span.escaped) {
      return text_.substr(span.begin, span.end - span.begin) == key;
    }
    // Rare: decode the earlier key again, which succeeded once.  `key`
    // may live in scratch_, so decode with a second reader.
    JsonReader again(text_.substr(span.begin, span.end + 1 - span.begin),
                     max_depth_, handler_);
    return again.decode_rest(0) == key;
  }

  void array(std::size_t depth) {
    expect('[');
    handler_.begin_array();
    skip_whitespace();
    if (!done() && peek() == ']') {
      ++pos_;
      handler_.end_array();
      return;
    }
    while (true) {
      skip_whitespace();
      value(depth + 1);
      skip_whitespace();
      if (done()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      handler_.end_array();
      return;
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

  std::uint32_t hex4() {
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

  /// Reads a string token; returns its unescaped value.  A string with
  /// no escape is a view into the text; any other is decoded into
  /// scratch_, which the next string overwrites.
  std::string_view string() {
    expect('"');
    const std::size_t begin = pos_;
    while (!done()) {
      const char c = peek();
      if (c == '"') {
        ++pos_;
        return text_.substr(begin, pos_ - 1 - begin);
      }
      if (c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        return decode_rest(begin);
      }
      ++pos_;
    }
    fail("unterminated string");
  }

  /// Decodes the string whose content starts at `begin` into scratch_;
  /// every byte from `begin` up to pos_ is plain.
  std::string_view decode_rest(std::size_t begin) {
    scratch_.assign(text_.substr(begin, pos_ - begin));
    std::string& out = scratch_;
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
          std::uint32_t code_point = hex4();
          if (code_point >= 0xD800 && code_point <= 0xDBFF) {
            // High surrogate: require the low half to follow.
            if (!consume_literal("\\u")) fail("unpaired surrogate");
            const std::uint32_t low = hex4();
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

  Json number() {
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
    const char* first = token.data();
    const char* last = token.data() + token.size();
    if (is_integer) {
      // Keep the native integer type so ids and counters round-trip
      // bit-exactly: non-negative → Unsigned, negative → Integer.
      if (token.front() == '-') {
        std::int64_t value = 0;
        const auto [ptr, ec] = std::from_chars(first, last, value);
        if (ec == std::errc() && ptr == last) return Json(value);
      } else {
        std::uint64_t value = 0;
        const auto [ptr, ec] = std::from_chars(first, last, value);
        if (ec == std::errc() && ptr == last) return Json(value);
      }
      // Fall through to double for magnitudes beyond 64 bits.
    }
    // from_chars and strtod both round correctly, so they agree on every
    // value.  They differ in what they reject (strtod flags a subnormal
    // result, or one that rounds to the smallest normal from below, with
    // ERANGE; from_chars does not), and only where a result is not
    // strictly between the smallest normal and the largest finite
    // double: there strtod decides.
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc() && ptr == last && std::fabs(value) > DBL_MIN &&
        std::fabs(value) < DBL_MAX) {
      return Json(value);
    }
    errno = 0;
    char* end = nullptr;
    const std::string copy(token);  // strtod needs a terminated buffer
    value = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size() || errno == ERANGE ||
        !std::isfinite(value)) {
      pos_ = start;
      fail("number out of range");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t max_depth_;
  Handler& handler_;
  std::size_t pos_ = 0;
  std::string scratch_;
  // Keys of the open objects, innermost last.  The first kInlineKeys sit
  // in place, so a request frame is read without allocating.
  static constexpr std::size_t kInlineKeys = 16;
  KeySpan inline_keys_[kInlineKeys];
  std::vector<KeySpan> more_keys_;
  std::size_t key_count_ = 0;
};

}  // namespace detail

template <class Handler>
void read_json(std::string_view text, Handler& handler,
               std::size_t max_depth = 64) {
  detail::JsonReader<Handler>(text, max_depth, handler).run();
}

/// read_json handler that builds the document's tree (Json::parse).
class JsonBuilder {
 public:
  void begin_object() { open_.push_back(Json::object()); }
  void begin_array() { open_.push_back(Json::array()); }
  void key(std::string_view key) { keys_.emplace_back(key); }
  void end_object() { close(); }
  void end_array() { close(); }
  void string(std::string_view value) { add(Json(std::string(value))); }
  void scalar(Json&& value) { add(std::move(value)); }

  /// The finished document.
  [[nodiscard]] Json take() { return std::move(root_); }

 private:
  void add(Json&& value);
  void close();

  std::vector<Json> open_;         // containers being filled, innermost last
  std::vector<std::string> keys_;  // key awaiting its value, per open object
  Json root_;
};

}  // namespace sealpaa::obs
