// Tiny command-line flag parser for the CLI, examples and benches.
// Supports --name=value and boolean --flag forms.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sealpaa::util {

/// Parses `--key=value` and bare `--flag` arguments.
/// Positional arguments are collected in order.  Numeric getters parse
/// the *full* value and throw std::invalid_argument on trailing garbage
/// ("--samples=1e6" is rejected for an integer flag, not silently read
/// as 1) and on out-of-range values.  Unknown flags are kept at parse
/// time; call `expect_flags` to reject typos loudly.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Returns the flag value, or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;

  /// Strict integer: the whole value must be a base-10 integer that fits
  /// std::int64_t.  Throws std::invalid_argument otherwise.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;

  /// Strict non-negative integer (counts, sample sizes, seeds).
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t fallback) const;

  /// Strict finite double: the whole value must parse and be finite.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  /// true/1/yes or false/0/no (a bare `--flag` is true); any other value
  /// throws std::invalid_argument, like a malformed number.
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Worker-thread count from `--threads=N`.  Absent or non-positive
  /// values fall back to `hardware_threads()`, so every driver gets a
  /// uniform `--threads` flag that defaults to full hardware concurrency.
  [[nodiscard]] unsigned threads() const;

  /// Throws std::invalid_argument when any parsed `--flag` is not in
  /// `allowed`, naming the offender — so `--thread=8` fails loudly
  /// instead of being ignored.  Call once per entry point with the full
  /// flag vocabulary (including global flags).
  void expect_flags(std::initializer_list<std::string_view> allowed) const;
  /// Overload for callers that assemble the vocabulary at runtime
  /// (e.g. subcommand-specific flags plus a shared global set).
  void expect_flags(std::span<const std::string_view> allowed) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// All parsed `--key=value` / `--flag` pairs (bare flags map to
  /// "true").  Used by the observability layer to echo the command line.
  [[nodiscard]] const std::map<std::string, std::string>& flags() const {
    return flags_;
  }

  /// Name of the executable (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace sealpaa::util
