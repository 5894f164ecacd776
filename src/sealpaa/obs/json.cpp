#include "sealpaa/obs/json.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sealpaa/obs/json_reader.hpp"

namespace sealpaa::obs {

Json Json::array() {
  Json value;
  value.type_ = Type::Array;
  return value;
}

Json Json::object() {
  Json value;
  value.type_ = Type::Object;
  return value;
}

Json& Json::push_back(Json value) {
  if (type_ != Type::Array) {
    throw std::logic_error("Json::push_back: value is not an array");
  }
  array_.push_back(std::move(value));
  return array_.back();
}

Json& Json::set(std::string_view key, Json value) {
  if (type_ != Type::Object) {
    throw std::logic_error("Json::set: value is not an object");
  }
  for (auto& [existing_key, existing_value] : object_) {
    if (existing_key == key) {
      existing_value = std::move(value);
      return existing_value;
    }
  }
  object_.emplace_back(key, std::move(value));
  return object_.back().second;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [existing_key, value] : object_) {
    if (existing_key == key) return &value;
  }
  return nullptr;
}

namespace {

[[nodiscard]] const char* type_label(Json::Type type) noexcept {
  switch (type) {
    case Json::Type::Null: return "null";
    case Json::Type::Bool: return "bool";
    case Json::Type::Integer: return "integer";
    case Json::Type::Unsigned: return "unsigned";
    case Json::Type::Double: return "double";
    case Json::Type::String: return "string";
    case Json::Type::Array: return "array";
    case Json::Type::Object: return "object";
  }
  return "?";
}

[[noreturn]] void wrong_type(const char* want, Json::Type got) {
  throw std::invalid_argument(std::string("Json: expected ") + want +
                              ", got " + type_label(got));
}

}  // namespace

bool Json::boolean() const {
  if (type_ != Type::Bool) wrong_type("bool", type_);
  return bool_;
}

std::int64_t Json::integer() const {
  if (type_ == Type::Integer) return int_;
  if (type_ == Type::Unsigned) {
    if (uint_ > static_cast<std::uint64_t>(
                    std::numeric_limits<std::int64_t>::max())) {
      throw std::invalid_argument("Json: unsigned value overflows int64");
    }
    return static_cast<std::int64_t>(uint_);
  }
  wrong_type("integer", type_);
}

std::uint64_t Json::unsigned_integer() const {
  if (type_ == Type::Unsigned) return uint_;
  if (type_ == Type::Integer) {
    if (int_ < 0) {
      throw std::invalid_argument("Json: negative value for unsigned field");
    }
    return static_cast<std::uint64_t>(int_);
  }
  wrong_type("unsigned integer", type_);
}

double Json::number() const {
  switch (type_) {
    case Type::Integer: return static_cast<double>(int_);
    case Type::Unsigned: return static_cast<double>(uint_);
    case Type::Double: return double_;
    default: wrong_type("number", type_);
  }
}

const std::string& Json::string_value() const {
  if (type_ != Type::String) wrong_type("string", type_);
  return string_;
}

const Json& Json::at(std::size_t index) const {
  if (type_ != Type::Array) wrong_type("array", type_);
  if (index >= array_.size()) {
    throw std::out_of_range("Json::at: index " + std::to_string(index) +
                            " out of range (size " +
                            std::to_string(array_.size()) + ")");
  }
  return array_[index];
}

std::span<const std::pair<std::string, Json>> Json::items() const noexcept {
  if (type_ != Type::Object) return {};
  return object_;
}

std::size_t Json::size() const noexcept {
  switch (type_) {
    case Type::Array:
      return array_.size();
    case Type::Object:
      return object_.size();
    default:
      return 0;
  }
}

std::string Json::escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  escape_to(out, raw);
  return out;
}

void Json::escape_to(std::string& out, std::string_view raw) {
  out.push_back('"');
  std::size_t plain = 0;  // start of the run not yet appended
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(raw, plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(code, sizeof code);
      }
    }
  }
  out.append(raw, plain, raw.size() - plain);
  out.push_back('"');
}

namespace {

/// Appends a number as std::to_chars writes it.  For a double with a
/// precision, the standard defines that text as printf's in the C
/// locale, so `general` at 17 digits is "%.17g".
template <class... Format>
void append_number(std::string& out, auto value, Format... format) {
  char buffer[32];
  const auto result =
      std::to_chars(buffer, buffer + sizeof buffer, value, format...);
  out.append(buffer, result.ptr);
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::Null:
      out += "null";
      return;
    case Type::Bool:
      out += bool_ ? "true" : "false";
      return;
    case Type::Integer:
      append_number(out, int_);
      return;
    case Type::Unsigned:
      append_number(out, uint_);
      return;
    case Type::Double:
      // Non-finite values have no JSON representation; emit null so a
      // NaN in a metric is visible in the report instead of corrupting it.
      if (!std::isfinite(double_)) {
        out += "null";
      } else {
        append_number(out, double_, std::chars_format::general, 17);
      }
      return;
    case Type::String:
      escape_to(out, string_);
      return;
    case Type::Array: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline_indent(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out.push_back(']');
      return;
    }
    case Type::Object: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline_indent(out, indent, depth + 1);
        escape_to(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void JsonBuilder::add(Json&& value) {
  if (open_.empty()) {
    root_ = std::move(value);
    return;
  }
  Json& parent = open_.back();
  if (parent.type_ == Json::Type::Array) {
    parent.array_.push_back(std::move(value));
    return;
  }
  // The reader rejects duplicate keys, so every key is new.
  parent.object_.emplace_back(std::move(keys_.back()), std::move(value));
  keys_.pop_back();
}

void JsonBuilder::close() {
  Json done = std::move(open_.back());
  open_.pop_back();
  add(std::move(done));
}

Json Json::parse(std::string_view text, std::size_t max_depth) {
  JsonBuilder builder;
  read_json(text, builder, max_depth);
  return builder.take();
}

}  // namespace sealpaa::obs
