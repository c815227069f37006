#include "util/argparse.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>

namespace psched::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      flags_.emplace(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
      continue;
    }
    // `--name value` unless the next token is another flag (then boolean).
    if (i + 1 < argc && std::string_view(argv[i + 1]).starts_with("--") == false) {
      flags_.emplace(std::string(arg), std::string(argv[++i]));
    } else {
      flags_.emplace(std::string(arg), "true");
    }
  }
}

bool ArgParser::has(const std::string& name) const { return flags_.contains(name); }

std::string ArgParser::get(const std::string& name, const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

[[noreturn]] void malformed(const std::string& name, const std::string& wants,
                            const std::string& got) {
  std::fprintf(stderr, "error: --%s wants %s, got '%s'\n", name.c_str(),
               wants.c_str(), got.c_str());
  std::exit(1);
}

}  // namespace

bool ArgParser::parse_int(const std::string& text, std::int64_t& out) {
  std::int64_t value = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [end, ec] = std::from_chars(first, last, value, 10);
  if (ec != std::errc{} || end != last) return false;
  out = value;
  return true;
}

bool ArgParser::parse_double(const std::string& text, double& out) {
  double value = 0.0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || end != last || !std::isfinite(value)) return false;
  out = value;
  return true;
}

std::int64_t ArgParser::get_int(const std::string& name, std::int64_t fallback,
                               std::int64_t min) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  std::int64_t value = 0;
  if (!parse_int(it->second, value) || value < min)
    malformed(name,
              min == INT64_MIN ? "an integer" : "an integer >= " + std::to_string(min),
              it->second);
  return value;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  double value = 0.0;
  if (!parse_double(it->second, value)) malformed(name, "a finite number", it->second);
  return value;
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace psched::util
