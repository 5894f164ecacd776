#include "sealpaa/util/cli.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "sealpaa/util/parallel.hpp"

namespace sealpaa::util {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("--" + name + "=" + value + ": expected " +
                              expected);
}

// Full-string std::from_chars parse: rejects empty values, trailing
// garbage ("1e6", "8x"), and out-of-range magnitudes.
std::int64_t parse_int(const std::string& name, const std::string& value) {
  std::int64_t parsed = 0;
  const char* first = value.data();
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, parsed);
  if (ec == std::errc::result_out_of_range) {
    bad_value(name, value, "an integer in the std::int64_t range");
  }
  if (ec != std::errc() || ptr != last) {
    bad_value(name, value, "a base-10 integer (no suffix; '1e6' is invalid)");
  }
  return parsed;
}

double parse_double(const std::string& name, const std::string& value) {
  if (value.empty()) bad_value(name, value, "a number");
  // strtod accepts leading whitespace; reject it to keep the "full
  // string, nothing else" contract symmetric with parse_int.
  if (std::isspace(static_cast<unsigned char>(value.front()))) {
    bad_value(name, value, "a number");
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size()) {
    bad_value(name, value, "a number (trailing characters found)");
  }
  if (errno == ERANGE || !std::isfinite(parsed)) {
    bad_value(name, value, "a finite number in double range");
  }
  return parsed;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      // Bare `--flag` is a boolean switch; values must use `--key=value`
      // (the space-separated form is ambiguous next to positionals).
      flags_[body] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_int(name, it->second);
}

std::uint64_t CliArgs::get_uint(const std::string& name,
                                std::uint64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  std::uint64_t parsed = 0;
  const char* first = it->second.data();
  const char* last = it->second.data() + it->second.size();
  const auto [ptr, ec] = std::from_chars(first, last, parsed);
  if (ec == std::errc::result_out_of_range) {
    bad_value(name, it->second, "an integer in the std::uint64_t range");
  }
  if (ec != std::errc() || ptr != last) {
    bad_value(name, it->second,
              "a non-negative base-10 integer (no suffix; '1e6' is invalid)");
  }
  return parsed;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_double(name, it->second);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  bad_value(name, value, "a boolean (true/1/yes or false/0/no)");
}

unsigned CliArgs::threads() const {
  const std::int64_t value = get_int("threads", 0);
  if (value <= 0) return hardware_threads();
  return static_cast<unsigned>(value);
}

void CliArgs::expect_flags(
    std::initializer_list<std::string_view> allowed) const {
  expect_flags(std::span<const std::string_view>(allowed.begin(),
                                                 allowed.size()));
}

void CliArgs::expect_flags(std::span<const std::string_view> allowed) const {
  for (const auto& [name, value] : flags_) {
    bool known = false;
    for (const std::string_view candidate : allowed) {
      if (name == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::invalid_argument("unknown flag --" + name +
                                  " (run with no arguments for usage)");
    }
  }
}

}  // namespace sealpaa::util
