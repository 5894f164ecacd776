// Minimal JSON document builder *and parser* for the observability and
// service layers.
//
// The library has no external JSON dependency, so this is a small,
// self-contained value tree that covers exactly what RunReport needs:
// null / bool / integer / double / string / array / object, with
// insertion-ordered object keys (reports diff cleanly run-to-run) and
// RFC 8259-conformant escaping.  Non-finite doubles serialize as null —
// JSON has no NaN, and a NaN leaking into a report is precisely the bug
// class the observability layer exists to surface.
//
// Doubles print as printf("%.17g") does in the C locale (through
// std::to_chars, which the standard defines that way), so every double
// round-trips and the bytes match what earlier builds wrote.
//
// `Json::parse` is the inverse: it builds a tree from the events of
// obs::read_json (json_reader.hpp), the strict RFC 8259 reader the
// service's request parser consumes too.  It accepts exactly one
// document per call, keeps integers as integers (so request ids echo
// back bit-exactly), bounds nesting depth and rejects trailing garbage —
// malformed network input must fail loudly, never be guessed at.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sealpaa::obs {

class Json {
 public:
  enum class Type { Null, Bool, Integer, Unsigned, Double, String, Array,
                    Object };

  Json() noexcept : type_(Type::Null) {}
  Json(bool value) noexcept : type_(Type::Bool), bool_(value) {}
  Json(std::int64_t value) noexcept : type_(Type::Integer), int_(value) {}
  Json(int value) noexcept : Json(static_cast<std::int64_t>(value)) {}
  Json(unsigned value) noexcept : Json(static_cast<std::uint64_t>(value)) {}
  Json(std::uint64_t value) noexcept : type_(Type::Unsigned), uint_(value) {}
  Json(double value) noexcept : type_(Type::Double), double_(value) {}
  Json(std::string value) : type_(Type::String), string_(std::move(value)) {}
  Json(const char* value) : Json(std::string(value)) {}

  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  /// Parses exactly one JSON document (leading/trailing whitespace
  /// allowed, anything else after the value is an error).  Throws
  /// std::invalid_argument with a byte offset on malformed input or
  /// nesting deeper than `max_depth` (stack-overflow guard for
  /// adversarial network frames).
  [[nodiscard]] static Json parse(std::string_view text,
                                  std::size_t max_depth = 64);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::String;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::Object;
  }
  /// Integer, Unsigned or Double.
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::Integer || type_ == Type::Unsigned ||
           type_ == Type::Double;
  }

  // Checked readers for parsed documents.  Each throws std::invalid_argument
  // naming the actual type when the value cannot represent the request —
  // the service turns these into structured bad-request responses.
  [[nodiscard]] bool boolean() const;
  /// Integer value; accepts Unsigned values that fit std::int64_t.
  [[nodiscard]] std::int64_t integer() const;
  /// Non-negative integer; accepts Integer values >= 0.
  [[nodiscard]] std::uint64_t unsigned_integer() const;
  /// Numeric value as double (Integer / Unsigned / Double).
  [[nodiscard]] double number() const;
  [[nodiscard]] const std::string& string_value() const;
  /// Array element access with bounds checking.
  [[nodiscard]] const Json& at(std::size_t index) const;
  /// Ordered key/value pairs of an object (empty span otherwise).
  [[nodiscard]] std::span<const std::pair<std::string, Json>> items()
      const noexcept;

  /// Appends to an array (the value must have been created via array()).
  Json& push_back(Json value);

  /// Inserts or replaces `key` in an object; insertion order is kept.
  Json& set(std::string_view key, Json value);

  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept;

  /// Serializes the tree.  `indent` > 0 pretty-prints with that many
  /// spaces per level; 0 emits the compact single-line form.
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Escapes `raw` as a JSON string literal including the quotes.
  [[nodiscard]] static std::string escape(std::string_view raw);

 private:
  friend class JsonBuilder;

  void dump_to(std::string& out, int indent, int depth) const;
  static void escape_to(std::string& out, std::string_view raw);

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace sealpaa::obs
