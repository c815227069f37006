#pragma once
// Minimal command-line flag parsing for benches and examples.
// Supports `--name value`, `--name=value`, and boolean `--name`.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace psched::util {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;

  /// Numeric flag accessors parse strictly: the whole value must be one
  /// in-range number ("12x", "1e999", "nan", "inf" are all malformed). A
  /// malformed value is a usage error — it prints "error: --name wants ..."
  /// and exits 1 — never a silently misparsed 0. `get_int` treats a given
  /// value below `min` the same way, so a count or period flag can never
  /// wrap through a cast to an unsigned type.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback,
                                     std::int64_t min = INT64_MIN) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback = false) const;

  /// Strict full-string parsers behind the accessors, reusable for compound
  /// flag fields ("name:price:boot"): reject empty text, trailing garbage,
  /// out-of-range values, and non-finite doubles. False leaves `out` alone.
  [[nodiscard]] static bool parse_int(const std::string& text, std::int64_t& out);
  [[nodiscard]] static bool parse_double(const std::string& text, double& out);

  /// Positional (non-flag) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace psched::util
