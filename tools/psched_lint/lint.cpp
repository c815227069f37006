#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iostream>
#include <sstream>

namespace psched::lint {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// One lexical token we care about: an identifier or a numeric literal.
struct Token {
  std::string text;
  std::size_t begin = 0;  ///< offset into the blanked code
  std::size_t end = 0;    ///< one past the last character
  std::size_t line = 1;
  bool is_number = false;
};

/// True for numeric literals that are floating-point: a '.', an exponent, or
/// an f/F suffix on a decimal literal (0x1p3 hex floats are not used here).
bool is_float_literal(const std::string& t) {
  if (t.size() >= 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) return false;
  const bool has_dot = t.find('.') != std::string::npos;
  const bool has_exp = t.find('e') != std::string::npos || t.find('E') != std::string::npos;
  const bool f_suffix = t.back() == 'f' || t.back() == 'F';
  return has_dot || has_exp || f_suffix;
}

/// Blank comments and string/char literals (preserving newlines and column
/// positions) and hand each comment's text to `on_comment(line, text)` where
/// `line` is the line the comment ends on.
template <typename CommentFn>
std::string blank_noncode(const std::string& in, CommentFn on_comment) {
  std::string out = in;
  std::size_t i = 0;
  std::size_t line = 1;
  const auto blank_at = [&](std::size_t pos) {
    if (out[pos] != '\n') out[pos] = ' ';
  };
  while (i < in.size()) {
    const char c = in[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (c == '/' && i + 1 < in.size() && in[i + 1] == '/') {
      const std::size_t start = i;
      while (i < in.size() && in[i] != '\n') {
        blank_at(i);
        ++i;
      }
      on_comment(line, in.substr(start, i - start));
    } else if (c == '/' && i + 1 < in.size() && in[i + 1] == '*') {
      const std::size_t start = i;
      blank_at(i);
      blank_at(i + 1);
      i += 2;
      while (i + 1 < in.size() && !(in[i] == '*' && in[i + 1] == '/')) {
        if (in[i] == '\n') ++line;
        blank_at(i);
        ++i;
      }
      if (i + 1 < in.size()) {
        blank_at(i);
        blank_at(i + 1);
        i += 2;
      } else {
        i = in.size();
      }
      on_comment(line, in.substr(start, i - start));
    } else if (c == 'R' && i + 1 < in.size() && in[i + 1] == '"') {
      // Raw string literal: R"delim( ... )delim"
      std::size_t j = i + 2;
      std::string delim;
      while (j < in.size() && in[j] != '(') delim += in[j++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t close = in.find(closer, j);
      const std::size_t stop = close == std::string::npos ? in.size() : close + closer.size();
      for (; i < stop; ++i) {
        if (in[i] == '\n') ++line;
        blank_at(i);
      }
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      blank_at(i);
      ++i;
      while (i < in.size() && in[i] != quote) {
        if (in[i] == '\\' && i + 1 < in.size()) {
          blank_at(i);
          ++i;
        }
        if (in[i] == '\n') ++line;  // unterminated literal; keep line counts sane
        blank_at(i);
        ++i;
      }
      if (i < in.size()) {
        blank_at(i);
        ++i;
      }
    } else {
      ++i;
    }
  }
  return out;
}

std::vector<Token> tokenize(const std::string& code) {
  std::vector<Token> tokens;
  std::size_t line = 1;
  std::size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (is_ident_start(c)) {
      Token t;
      t.begin = i;
      t.line = line;
      while (i < code.size() && is_ident_char(code[i])) ++i;
      t.end = i;
      t.text = code.substr(t.begin, t.end - t.begin);
      tokens.push_back(std::move(t));
    } else if (is_digit(c) || (c == '.' && i + 1 < code.size() && is_digit(code[i + 1]))) {
      Token t;
      t.begin = i;
      t.line = line;
      t.is_number = true;
      // Consume the numeric literal: digits, '.', exponents with signs,
      // digit separators, and suffixes.
      while (i < code.size()) {
        const char d = code[i];
        if (is_ident_char(d) || d == '.' || d == '\'') {
          ++i;
        } else if ((d == '+' || d == '-') && i > t.begin &&
                   (code[i - 1] == 'e' || code[i - 1] == 'E' || code[i - 1] == 'p' ||
                    code[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      t.end = i;
      t.text = code.substr(t.begin, t.end - t.begin);
      tokens.push_back(std::move(t));
    } else {
      ++i;
    }
  }
  return tokens;
}

std::size_t skip_space(const std::string& code, std::size_t i) {
  while (i < code.size() &&
         std::isspace(static_cast<unsigned char>(code[i])))
    ++i;
  return i;
}

/// From an opening bracket at `open` ('(' / '{' / '<'), return the offset of
/// the matching closer, or npos. For '<', parentheses inside template
/// arguments are balanced too.
std::size_t match_bracket(const std::string& code, std::size_t open) {
  const char oc = code[open];
  const char cc = oc == '(' ? ')' : oc == '{' ? '}' : '>';
  int depth = 0;
  int paren_depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (oc == '<') {
      if (c == '(') ++paren_depth;
      if (c == ')') --paren_depth;
      if (paren_depth > 0) continue;
    }
    if (c == oc) ++depth;
    else if (c == cc && --depth == 0) return i;
  }
  return std::string::npos;
}

std::size_t line_of(const std::vector<std::size_t>& line_starts, std::size_t pos) {
  const auto it = std::upper_bound(line_starts.begin(), line_starts.end(), pos);
  return static_cast<std::size_t>(it - line_starts.begin());
}

std::vector<std::size_t> compute_line_starts(const std::string& code) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < code.size(); ++i)
    if (code[i] == '\n') starts.push_back(i + 1);
  return starts;
}

bool is_known_rule(const std::string& rule) {
  return rule.size() == 2 && rule[0] == 'D' && rule[1] >= '1' && rule[1] <= '8';
}

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\n\r");
  if (b == std::string::npos) return {};
  const std::size_t e = s.find_last_not_of(" \t\n\r");
  return s.substr(b, e - b + 1);
}

/// Parse `psched-lint:` directives out of one comment's text. Returns the
/// suppression keys granted; malformed directives are reported via `errors`.
std::set<std::string> parse_directives(const std::string& comment, std::size_t line,
                                       const std::string& file,
                                       std::vector<Finding>& errors) {
  std::set<std::string> keys;
  std::size_t pos = 0;
  static const std::string kMarker = "psched-lint:";
  while ((pos = comment.find(kMarker, pos)) != std::string::npos) {
    pos += kMarker.size();
    std::size_t i = pos;
    while (i < comment.size() && comment[i] == ' ') ++i;
    std::size_t word_end = i;
    while (word_end < comment.size() &&
           (is_ident_char(comment[word_end]) || comment[word_end] == '-'))
      ++word_end;
    const std::string word = comment.substr(i, word_end - i);
    const auto malformed = [&](const std::string& why) {
      errors.push_back(Finding{file, line, "SUPP",
                               "malformed psched-lint directive (" + why +
                                   "): every suppression needs a justification, "
                                   "e.g. `psched-lint: suppress(D6) ms vs "
                                   "seconds is converted two lines up` or "
                                   "`psched-lint: order-insensitive(max is "
                                   "commutative)`"});
    };
    if (word == "order-insensitive") {
      const std::size_t open = skip_space(comment, word_end);
      const std::size_t close =
          open < comment.size() && comment[open] == '('
              ? comment.find(')', open)
              : std::string::npos;
      if (close == std::string::npos || close - open <= 1) {
        malformed("order-insensitive without a justification");
      } else {
        keys.insert("order-insensitive");
      }
    } else if (word == "suppress") {
      // suppress(Dk) <justification after the paren>.
      const std::size_t open = skip_space(comment, word_end);
      const std::size_t close =
          open < comment.size() && comment[open] == '('
              ? comment.find(')', open)
              : std::string::npos;
      if (close == std::string::npos) {
        malformed("suppress without a (rule)");
      } else {
        const std::string rule = trim(comment.substr(open + 1, close - open - 1));
        const std::string justification = trim(comment.substr(close + 1));
        if (!is_known_rule(rule)) {
          malformed("unknown rule id '" + rule + "'");
        } else if (justification.empty()) {
          malformed("suppress(" + rule + ") without a justification");
        } else {
          keys.insert(rule);
        }
      }
    }
    // Other words after "psched-lint:" are prose (docs talking about the
    // linter), not directives. A typo'd directive therefore grants no
    // suppression — fail-safe, since the underlying violation still fires.
  }
  return keys;
}

bool has_prefix(const std::string& path, const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(), [&](const std::string& p) {
    return path.rfind(p, 0) == 0;
  });
}

bool suppressed(const SourceFile& file, std::size_t line, const std::string& key) {
  for (const std::size_t l : {line, line > 0 ? line - 1 : 0}) {
    const auto it = file.suppressions.find(l);
    if (it != file.suppressions.end() && it->second.count(key) > 0) return true;
  }
  return false;
}

// --- D1: wall-clock and ambient entropy -----------------------------------

void check_wall_clock(const SourceFile& file, const std::vector<Token>& tokens,
                      const LintOptions& options, std::vector<Finding>& out) {
  const bool clocks_allowed = options.clock_allowlist.count(file.path) > 0 ||
                              has_prefix(file.path, options.clock_allowed_prefixes);
  const auto flag = [&](const Token& t, const std::string& what) {
    if (suppressed(file, t.line, "D1")) return;
    out.push_back(Finding{file.path, t.line, "D1",
                          what + " — simulated code must take time and entropy "
                                "from the simulation clock / seeded util::Rng "
                                "(see DESIGN.md §8)"});
  };
  for (const Token& t : tokens) {
    if (t.is_number) continue;
    const char next =
        skip_space(file.code, t.end) < file.code.size()
            ? file.code[skip_space(file.code, t.end)]
            : '\0';
    if (t.text == "system_clock" || t.text == "steady_clock" ||
        t.text == "high_resolution_clock") {
      if (!clocks_allowed) flag(t, "clock read (std::chrono::" + t.text + ")");
    } else if (t.text == "gettimeofday" || t.text == "localtime" || t.text == "gmtime") {
      if (!clocks_allowed) flag(t, "wall-clock call (" + t.text + ")");
    } else if (t.text == "clock" && next == '(') {
      if (!clocks_allowed) flag(t, "wall-clock call (clock())");
    } else if (t.text == "time" && next == '(') {
      // time(nullptr) / time(0) / time(NULL): the classic seed source.
      const std::size_t open = skip_space(file.code, t.end);
      const std::size_t arg = skip_space(file.code, open + 1);
      if (file.code.compare(arg, 7, "nullptr") == 0 ||
          file.code.compare(arg, 4, "NULL") == 0 ||
          (arg < file.code.size() && file.code[arg] == '0')) {
        if (!clocks_allowed) flag(t, "wall-clock call (time(...))");
      }
    } else if (t.text == "rand" && next == '(') {
      flag(t, "unseeded global RNG (rand())");
    } else if (t.text == "srand") {
      flag(t, "global RNG seeding (srand)");
    } else if (t.text == "random_device") {
      flag(t, "ambient entropy (std::random_device)");
    }
  }
}

// --- D2: unordered-container traversal ------------------------------------

/// Final identifier of an expression like `this->foo.bar_` / `x.y`; empty
/// when the expression is not a plain member/identifier chain (calls,
/// arithmetic, brackets all disqualify it).
std::string chain_tail(const std::string& expr) {
  std::string tail;
  std::size_t i = 0;
  const std::string trimmed = trim(expr);
  while (i < trimmed.size()) {
    const char c = trimmed[i];
    if (is_ident_start(c)) {
      std::size_t j = i;
      while (j < trimmed.size() && is_ident_char(trimmed[j])) ++j;
      tail = trimmed.substr(i, j - i);
      i = j;
    } else if (c == '.' || c == ' ') {
      ++i;
    } else if (c == '-' && i + 1 < trimmed.size() && trimmed[i + 1] == '>') {
      i += 2;
    } else if (c == ':' && i + 1 < trimmed.size() && trimmed[i + 1] == ':') {
      i += 2;
    } else {
      return {};  // call, subscript, cast, arithmetic... not a plain chain
    }
  }
  return tail;
}

void check_unordered_iteration(const SourceFile& file, const std::vector<Token>& tokens,
                               const std::set<std::string>& tu_names,
                               const std::vector<std::size_t>& line_starts,
                               std::vector<Finding>& out) {
  const auto flag = [&](std::size_t line, const std::string& name, const std::string& how) {
    if (suppressed(file, line, "order-insensitive") || suppressed(file, line, "D2")) return;
    out.push_back(Finding{
        file.path, line, "D2",
        how + " of unordered container '" + name +
            "' — iteration order is hash-state dependent; use an ordered "
            "container or a sorted snapshot, or annotate the line with "
            "`// psched-lint: order-insensitive(<justification>)`"});
  };
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    const Token& t = tokens[k];
    if (t.is_number) continue;
    if (tu_names.count(t.text) > 0) {
      // `name.begin(` / `name.cbegin(`: iterator traversal or an unsorted
      // snapshot (both order-dependent at the point of use).
      std::size_t i = skip_space(file.code, t.end);
      if (i < file.code.size() && file.code[i] == '.') {
        i = skip_space(file.code, i + 1);
        if (file.code.compare(i, 5, "begin") == 0 ||
            file.code.compare(i, 6, "cbegin") == 0) {
          flag(t.line, t.text, "iterator traversal (begin())");
        }
      }
      continue;
    }
    if (t.text != "for") continue;
    const std::size_t open = skip_space(file.code, t.end);
    if (open >= file.code.size() || file.code[open] != '(') continue;
    const std::size_t close = match_bracket(file.code, open);
    if (close == std::string::npos) continue;
    const std::string head = file.code.substr(open + 1, close - open - 1);
    // Find the range-for ':' at top nesting level (skip '::').
    int depth = 0;
    std::size_t colon = std::string::npos;
    for (std::size_t i = 0; i < head.size(); ++i) {
      const char c = head[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      else if (c == ':' && depth == 0) {
        if ((i + 1 < head.size() && head[i + 1] == ':') || (i > 0 && head[i - 1] == ':')) {
          ++i;
          continue;
        }
        colon = i;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    const std::string tail = chain_tail(head.substr(colon + 1));
    if (!tail.empty() && tu_names.count(tail) > 0)
      flag(line_of(line_starts, open), tail, "range-for");
  }
}

// --- D3: mt19937 seeding ---------------------------------------------------

void check_mt19937(const SourceFile& file, const std::vector<Token>& tokens,
                   std::vector<Finding>& out) {
  static const std::set<std::string> kTypeNoise = {
      "std",      "static_cast", "uint32_t", "uint64_t", "size_t", "unsigned",
      "int",      "long",        "const",    "auto",     "seed_seq"};
  const auto flag = [&](std::size_t line, const std::string& why) {
    if (suppressed(file, line, "D3")) return;
    out.push_back(Finding{file.path, line, "D3",
                          "std::mt19937 construction " + why +
                              " — engines must be seeded from a named, "
                              "config-threaded seed parameter so runs are "
                              "reproducible (prefer util::Rng)"});
  };
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    const Token& t = tokens[k];
    if (t.text != "mt19937" && t.text != "mt19937_64") continue;
    // Optionally skip a declared variable name: `std::mt19937 rng(...)`.
    std::size_t i = skip_space(file.code, t.end);
    if (i < file.code.size() && is_ident_start(file.code[i])) {
      while (i < file.code.size() && is_ident_char(file.code[i])) ++i;
      i = skip_space(file.code, i);
    }
    if (i >= file.code.size()) continue;
    const char c = file.code[i];
    if (c == ';') {
      flag(t.line, "is default-constructed (fixed implementation-defined seed)");
      continue;
    }
    if (c != '(' && c != '{') continue;
    const std::size_t close = match_bracket(file.code, i);
    if (close == std::string::npos) continue;
    const std::string args = file.code.substr(i + 1, close - i - 1);
    if (args.find("random_device") != std::string::npos) {
      flag(t.line, "is seeded from std::random_device (ambient entropy)");
      continue;
    }
    const std::vector<Token> arg_tokens = tokenize(args);
    const bool has_named_seed =
        std::any_of(arg_tokens.begin(), arg_tokens.end(), [&](const Token& a) {
          return !a.is_number && kTypeNoise.count(a.text) == 0;
        });
    if (arg_tokens.empty()) {
      flag(t.line, "takes no seed argument");
    } else if (!has_named_seed) {
      flag(t.line, "is seeded with a literal, not a named seed parameter");
    }
  }
}

// --- D4: float equality ----------------------------------------------------

void check_float_equality(const SourceFile& file, const std::vector<Token>& tokens,
                          const std::vector<std::size_t>& line_starts,
                          const LintOptions& options, std::vector<Finding>& out) {
  if (has_prefix(file.path, options.float_eq_allowed_prefixes)) return;
  const std::string& code = file.code;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    const bool eq = code[i] == '=' && code[i + 1] == '=';
    const bool ne = code[i] == '!' && code[i + 1] == '=';
    if (!eq && !ne) continue;
    if (i + 2 < code.size() && code[i + 2] == '=') continue;
    if (eq && i > 0 &&
        std::string("=!<>+-*/%&|^").find(code[i - 1]) != std::string::npos)
      continue;
    // Binary-search the token list for the operator's neighbors.
    const Token* prev = nullptr;
    const Token* next = nullptr;
    for (const Token& t : tokens) {
      if (t.end <= i) prev = &t;
      if (t.begin >= i + 2) {
        next = &t;
        break;
      }
    }
    const auto is_adjacent_float = [&](const Token* t, bool before) {
      if (t == nullptr || !t->is_number || !is_float_literal(t->text)) return false;
      // Only treat it as an operand if nothing but spaces/sign separates it
      // from the operator.
      const std::size_t lo = before ? t->end : i + 2;
      const std::size_t hi = before ? i : t->begin;
      for (std::size_t p = lo; p < hi; ++p) {
        const char c = code[p];
        if (!std::isspace(static_cast<unsigned char>(c)) && c != '-' && c != '+')
          return false;
      }
      return true;
    };
    if (is_adjacent_float(prev, true) || is_adjacent_float(next, false)) {
      const std::size_t line = line_of(line_starts, i);
      if (suppressed(file, line, "D4")) continue;
      out.push_back(Finding{
          file.path, line, "D4",
          std::string("floating-point ") + (eq ? "==" : "!=") +
              " against a literal — exact FP equality is "
              "representation-dependent; use util/float_cmp.hpp "
              "(approx_eq / near_zero) or an integer representation"});
      i += 1;
    }
  }
}

// --- D5: seed-stream registry (per-file half) -------------------------------

void check_seed_streams(const SourceFile& file, const ProgramIndex& index,
                        std::vector<Finding>& out) {
  const auto flag = [&](std::size_t line, const std::string& what) {
    if (suppressed(file, line, "D5")) return;
    out.push_back(Finding{file.path, line, "D5",
                          what + " — every seed-stream name must be registered "
                                 "once via PSCHED_SEED_STREAM in "
                                 "src/util/seed_streams.hpp (a silent name "
                                 "collision correlates two 'independent' "
                                 "streams; see DESIGN.md §8)"});
  };
  for (const StreamUse& use : file.stream_uses) {
    if (!use.name.empty()) {
      if (index.stream_names.count(use.name) == 0)
        flag(use.line, "derive_stream_seed called with unregistered stream "
                       "literal \"" + use.name + "\"");
    } else if (!use.ident.empty()) {
      if (index.stream_idents.count(use.ident) == 0)
        flag(use.line, "derive_stream_seed called with '" + use.ident +
                       "', which is not a registered stream constant");
    } else {
      flag(use.line, "derive_stream_seed called with a computed stream name "
                     "(neither a registered constant nor a literal)");
    }
  }
}

// --- D6: time-unit confusion ------------------------------------------------

/// Unit class of an identifier by suffix convention; 0 = unclassified.
int unit_class(const std::string& t) {
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::string(suffix).size();
    return t.size() > n && t.compare(t.size() - n, n, suffix) == 0;
  };
  if (ends_with("_ms") || ends_with("_millis")) return 1;
  if (ends_with("_us") || ends_with("_micros")) return 2;
  if (ends_with("_seconds") || ends_with("_secs") || ends_with("_sec")) return 3;
  if (ends_with("_hours") || ends_with("_hrs")) return 4;
  if (t == "kSecondsPerHour") return 3;  // a seconds-valued constant
  return 0;
}

const char* unit_name(int cls) {
  switch (cls) {
    case 1: return "milliseconds";
    case 2: return "microseconds";
    case 3: return "seconds";
    case 4: return "hours";
  }
  return "?";
}

void check_time_units(const SourceFile& file, const std::vector<Token>& tokens,
                      std::vector<Finding>& out) {
  static const std::set<std::string> kAdditiveOps = {
      "+", "-", "<", ">", "<=", ">=", "==", "!=", "+=", "-="};
  const std::string& code = file.code;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    const Token& lhs = tokens[i];
    if (lhs.is_number) continue;
    const int lhs_class = unit_class(lhs.text);
    if (lhs_class == 0) continue;
    const Token& first_rhs = tokens[i + 1];
    const std::string between =
        trim(code.substr(lhs.end, first_rhs.begin - lhs.end));
    if (kAdditiveOps.count(between) == 0) continue;
    // Follow the right operand's member chain to its tail: in
    // `a_ms < cfg.limit_seconds` the classified name is the chain tail.
    std::size_t j = i + 1;
    while (j + 1 < tokens.size()) {
      const std::string link =
          trim(code.substr(tokens[j].end, tokens[j + 1].begin - tokens[j].end));
      if (link == "." || link == "->" || link == "::") ++j;
      else break;
    }
    const Token& rhs = tokens[j];
    if (rhs.is_number) continue;
    const int rhs_class = unit_class(rhs.text);
    if (rhs_class == 0 || rhs_class == lhs_class) continue;
    if (suppressed(file, lhs.line, "D6")) continue;
    out.push_back(Finding{
        file.path, lhs.line, "D6",
        std::string("time-unit confusion: '") + lhs.text + "' (" +
            unit_name(lhs_class) + ") " + between + " '" + rhs.text + "' (" +
            unit_name(rhs_class) + ") mixes units in additive/comparison "
            "arithmetic — convert explicitly (e.g. through kSecondsPerHour "
            "or a *_to_* helper) before combining"});
  }
}

// --- D7: observer purity ----------------------------------------------------

/// Simulation API calls that mutate the observed system. An observer
/// invoking any of these (as a member call) from an on_* callback is
/// feeding back into the simulation it watches.
const std::set<std::string>& mutating_sim_api() {
  static const std::set<std::string> kApi = {
      "after",        "cancel",          "run_until",
      "step",         "lease",           "release",
      "finish_boot",  "unassign",        "set_observer",
      "set_failure_model", "set_pricing_model"};
  return kApi;
}

void check_observer_body(const SourceFile& file, const std::vector<Token>& tokens,
                         std::size_t body_begin, std::size_t body_end,
                         const std::string& class_name,
                         const std::string& method_name,
                         std::vector<Finding>& out) {
  const std::string& code = file.code;
  const auto flag = [&](std::size_t line, const std::string& what) {
    if (suppressed(file, line, "D7")) return;
    out.push_back(Finding{
        file.path, line, "D7",
        "observer callback " + class_name + "::" + method_name + " " + what +
            " — SimObserver/ProviderObserver implementations must not mutate "
            "the simulation they observe (observers may only accumulate their "
            "own state; see DESIGN.md §8)"});
  };
  for (const Token& t : tokens) {
    if (t.begin <= body_begin || t.end >= body_end) continue;
    if (t.is_number) continue;
    if (t.text == "const_cast") {
      flag(t.line, "strips const with const_cast");
      continue;
    }
    if (mutating_sim_api().count(t.text) == 0) continue;
    // Member call: `.name(` or `->name(`.
    std::size_t p = t.begin;
    while (p > 0 && std::isspace(static_cast<unsigned char>(code[p - 1]))) --p;
    const bool dot = p > 0 && code[p - 1] == '.';
    const bool arrow = p > 1 && code[p - 1] == '>' && code[p - 2] == '-';
    if (!dot && !arrow) continue;
    const std::size_t after = skip_space(code, t.end);
    if (after >= code.size() || code[after] != '(') continue;
    flag(t.line, "calls mutating simulation API '" + t.text + "()'");
  }
}

void check_observer_purity(const SourceFile& file, const std::vector<Token>& tokens,
                           const ProgramIndex& index, std::vector<Finding>& out) {
  const std::string& code = file.code;
  // From a method's parameter-list close paren, find its body '{' (skipping
  // qualifiers like const/noexcept/override/final); npos when it is a
  // declaration (';') or something unexpected.
  const auto body_open_after = [&](std::size_t close) -> std::size_t {
    std::size_t i = close + 1;
    while (i < code.size()) {
      i = skip_space(code, i);
      if (i >= code.size()) return std::string::npos;
      if (code[i] == '{') return i;
      if (!is_ident_start(code[i])) return std::string::npos;  // ';', '=', ...
      while (i < code.size() && is_ident_char(code[i])) ++i;
    }
    return std::string::npos;
  };
  const auto check_method_at = [&](std::size_t token_idx, const std::string& cls) {
    const Token& m = tokens[token_idx];
    if (m.text.rfind("on_", 0) != 0) return;
    const std::size_t open = skip_space(code, m.end);
    if (open >= code.size() || code[open] != '(') return;
    const std::size_t close = match_bracket(code, open);
    if (close == std::string::npos) return;
    const std::size_t body = body_open_after(close);
    if (body == std::string::npos) return;
    const std::size_t body_close = match_bracket(code, body);
    if (body_close == std::string::npos) return;
    check_observer_body(file, tokens, body, body_close, cls, m.text, out);
  };
  // In-class definitions: scan the body span of every observer class.
  for (const ClassDecl& cd : file.classes) {
    if (index.observer_classes.count(cd.name) == 0) continue;
    for (std::size_t k = 0; k < tokens.size(); ++k) {
      if (tokens[k].begin <= cd.body_begin || tokens[k].end >= cd.body_end) continue;
      check_method_at(k, cd.name);
    }
  }
  // Out-of-line definitions: `Class::on_xxx(...) { ... }`, where Class was
  // possibly declared in another file (the index carries the closure).
  for (std::size_t k = 0; k + 1 < tokens.size(); ++k) {
    const Token& t = tokens[k];
    if (t.is_number || index.observer_classes.count(t.text) == 0) continue;
    const std::string link =
        trim(code.substr(t.end, tokens[k + 1].begin - t.end));
    if (link != "::") continue;
    check_method_at(k + 1, t.text);
  }
}

// --- D8: non-commutative parallel folds -------------------------------------

void check_parallel_folds(const SourceFile& file, const std::vector<Token>& tokens,
                          const std::vector<std::size_t>& line_starts,
                          const LintOptions& options, std::vector<Finding>& out) {
  const std::string& code = file.code;
  for (const Token& t : tokens) {
    if (options.parallel_entry_points.count(t.text) == 0) continue;
    const std::size_t open = skip_space(code, t.end);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = match_bracket(code, open);
    if (close == std::string::npos) continue;
    // Compound accumulations inside the wave-lambda span.
    for (std::size_t p = open + 1; p + 1 < close; ++p) {
      const char c = code[p];
      if ((c != '+' && c != '-' && c != '*') || code[p + 1] != '=') continue;
      if (p + 2 < code.size() && code[p + 2] == '=') continue;  // ==, !=...
      if (p > 0 && (code[p - 1] == c)) continue;                // ++, --
      // Target: the expression ending just before the operator.
      std::size_t q = p;
      while (q > open && std::isspace(static_cast<unsigned char>(code[q - 1]))) --q;
      if (q == open) continue;
      if (code[q - 1] == ']') continue;  // slot-indexed element: per-worker cell
      if (!is_ident_char(code[q - 1])) continue;
      // Find the target's tail token.
      const Token* target = nullptr;
      for (const Token& tok : tokens) {
        if (tok.end == q) { target = &tok; break; }
        if (tok.begin > q) break;
      }
      if (target == nullptr) continue;
      // A variable first seen in this span as a declaration is
      // lambda-local: each worker invocation owns its copy.
      bool local = false;
      for (std::size_t k = 0; k + 1 < tokens.size(); ++k) {
        const Token& decl_type = tokens[k];
        const Token& decl_name = tokens[k + 1];
        if (decl_name.begin <= open || decl_name.end >= close) continue;
        if (decl_name.begin >= target->begin) break;
        if (decl_name.text != target->text) continue;
        if (decl_type.is_number || decl_type.begin <= open) continue;
        const std::string between =
            trim(code.substr(decl_type.end, decl_name.begin - decl_type.end));
        bool chain_punct_only = true;
        for (const char bc : between)
          if (bc != '&' && bc != '*') { chain_punct_only = false; break; }
        if (chain_punct_only) { local = true; break; }
      }
      if (local) continue;
      const std::size_t line = line_of(line_starts, p);
      if (suppressed(file, line, "D8") ||
          suppressed(file, line, "order-insensitive"))
        continue;
      out.push_back(Finding{
          file.path, line, "D8",
          std::string("compound accumulation '") + target->text + " " + c +
              "=' inside a " + t.text + " wave lambda — cross-worker folds "
              "depend on thread interleaving (and race); write to a per-slot "
              "element and merge in slot order after the barrier, or annotate "
              "`// psched-lint: order-insensitive(<why commutative>)`"});
    }
  }
}

// --- pass-1 collection ------------------------------------------------------

void collect_unordered_declarations(SourceFile& file, const std::vector<Token>& tokens) {
  for (const Token& t : tokens) {
    if (t.text != "unordered_map" && t.text != "unordered_set" &&
        t.text != "unordered_multimap" && t.text != "unordered_multiset")
      continue;
    std::size_t i = skip_space(file.code, t.end);
    if (i >= file.code.size() || file.code[i] != '<') continue;
    const std::size_t close = match_bracket(file.code, i);
    if (close == std::string::npos) continue;
    std::size_t j = skip_space(file.code, close + 1);
    while (j < file.code.size() && (file.code[j] == '&' || file.code[j] == '*'))
      j = skip_space(file.code, j + 1);
    if (j < file.code.size() && is_ident_start(file.code[j])) {
      std::size_t k = j;
      while (k < file.code.size() && is_ident_char(file.code[k])) ++k;
      file.unordered_names.insert(file.code.substr(j, k - j));
    }
  }
}

void collect_includes(SourceFile& file, const std::string& raw) {
  std::istringstream in(raw);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find_first_not_of(" \t");
    if (hash == std::string::npos || line[hash] != '#') continue;
    const std::size_t inc = line.find("include", hash);
    if (inc == std::string::npos) continue;
    const std::size_t open = line.find('"', inc);
    if (open == std::string::npos) continue;  // <system> includes: not project files
    const std::size_t close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    file.includes.push_back(line.substr(open + 1, close - open - 1));
  }
}

/// First string literal in the RAW text within [begin, end); empty when
/// none. Blanking preserves offsets, so raw and code indices agree.
std::string raw_string_literal_in(const std::string& raw, std::size_t begin,
                                  std::size_t end) {
  const std::size_t open = raw.find('"', begin);
  if (open == std::string::npos || open >= end) return {};
  const std::size_t close = raw.find('"', open + 1);
  if (close == std::string::npos || close >= end) return {};
  return raw.substr(open + 1, close - open - 1);
}

/// Split an argument span by top-level commas (brackets balanced).
std::vector<std::string> split_args(const std::string& args) {
  std::vector<std::string> out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const char c = args[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    else if (c == ')' || c == ']' || c == '}') --depth;
    else if (c == ',' && depth == 0) {
      out.push_back(args.substr(start, i - start));
      start = i + 1;
    }
  }
  out.push_back(args.substr(start));
  return out;
}

void collect_stream_facts(SourceFile& file, const std::vector<Token>& tokens) {
  for (const Token& t : tokens) {
    if (t.text == "PSCHED_SEED_STREAM") {
      const std::size_t open = skip_space(file.code, t.end);
      if (open >= file.code.size() || file.code[open] != '(') continue;
      const std::size_t close = match_bracket(file.code, open);
      if (close == std::string::npos) continue;
      const std::string name = raw_string_literal_in(file.raw, open + 1, close);
      if (name.empty()) continue;  // the macro's own #define: no literal
      const std::vector<Token> arg_tokens =
          tokenize(file.code.substr(open + 1, close - open - 1));
      if (arg_tokens.empty()) continue;
      file.stream_registrations.push_back(
          StreamRegistration{arg_tokens.front().text, name, t.line});
    } else if (t.text == "derive_stream_seed") {
      const std::size_t open = skip_space(file.code, t.end);
      if (open >= file.code.size() || file.code[open] != '(') continue;
      const std::size_t close = match_bracket(file.code, open);
      if (close == std::string::npos) continue;
      const std::string args = file.code.substr(open + 1, close - open - 1);
      const std::vector<Token> arg_tokens = tokenize(args);
      // The function's own declaration/definition carries typed parameters;
      // call sites never spell the parameter types.
      const bool is_declaration =
          std::any_of(arg_tokens.begin(), arg_tokens.end(), [](const Token& a) {
            return a.text == "uint64_t" || a.text == "string_view";
          });
      if (is_declaration) continue;
      StreamUse use;
      use.line = t.line;
      use.name = raw_string_literal_in(file.raw, open + 1, close);
      if (use.name.empty()) {
        const std::vector<std::string> pieces = split_args(args);
        use.ident = chain_tail(pieces.back());
      }
      file.stream_uses.push_back(std::move(use));
    }
  }
}

void collect_class_declarations(SourceFile& file, const std::vector<Token>& tokens) {
  static const std::set<std::string> kBaseNoise = {"public", "protected", "private",
                                                   "virtual", "final"};
  for (std::size_t k = 0; k + 1 < tokens.size(); ++k) {
    const Token& kw = tokens[k];
    if (kw.text != "class" && kw.text != "struct") continue;
    const Token& name = tokens[k + 1];
    if (name.is_number) continue;
    // Only a real declaration head: the name is followed by ':' (base
    // clause), '{' (body), or 'final'. Template parameters, forward
    // declarations, and `struct X*` parameter types all fall out here.
    std::size_t i = skip_space(file.code, name.end);
    if (i < file.code.size() && file.code.compare(i, 5, "final") == 0)
      i = skip_space(file.code, i + 5);
    if (i >= file.code.size()) continue;
    const bool has_bases = file.code[i] == ':' &&
                           (i + 1 >= file.code.size() || file.code[i + 1] != ':');
    if (!has_bases && file.code[i] != '{') continue;
    ClassDecl decl;
    decl.name = name.text;
    std::size_t body = i;
    if (has_bases) {
      body = file.code.find('{', i);
      if (body == std::string::npos) continue;
      const std::vector<Token> base_tokens =
          tokenize(file.code.substr(i + 1, body - i - 1));
      for (const Token& b : base_tokens)
        if (!b.is_number && kBaseNoise.count(b.text) == 0)
          decl.bases.push_back(b.text);
    }
    const std::size_t body_close = match_bracket(file.code, body);
    if (body_close == std::string::npos) continue;
    decl.body_begin = body;
    decl.body_end = body_close;
    file.classes.push_back(std::move(decl));
  }
}

}  // namespace

SourceFile load_source_from_string(const std::string& contents, const std::string& rel_path) {
  SourceFile file;
  file.path = rel_path;
  file.raw = contents;
  file.code = blank_noncode(contents, [&](std::size_t line, const std::string& text) {
    if (text.find("psched-lint:") == std::string::npos) return;
    const std::set<std::string> keys =
        parse_directives(text, line, rel_path, file.annotation_errors);
    if (!keys.empty()) {
      file.suppressions[line].insert(keys.begin(), keys.end());
      file.suppressions[line + 1].insert(keys.begin(), keys.end());
    }
  });
  collect_includes(file, contents);
  const std::vector<Token> tokens = tokenize(file.code);
  collect_unordered_declarations(file, tokens);
  collect_stream_facts(file, tokens);
  collect_class_declarations(file, tokens);
  return file;
}

SourceFile load_source(const std::filesystem::path& abs_path, const std::string& rel_path) {
  std::ifstream in(abs_path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return load_source_from_string(buf.str(), rel_path);
}

ProgramIndex build_index(const std::map<std::string, SourceFile>& files,
                         const LintOptions& options) {
  ProgramIndex index;
  index.observer_classes = {"SimObserver", "ProviderObserver"};
  // D5 registry merge. Files in path order, registrations in file order, so
  // "first registration wins" is deterministic.
  for (const auto& [path, file] : files) {
    for (const StreamRegistration& reg : file.stream_registrations) {
      const auto flag = [&](const std::string& what) {
        if (suppressed(file, reg.line, "D5")) return;
        index.findings.push_back(Finding{path, reg.line, "D5", what});
      };
      if (!options.registry_files.empty() &&
          options.registry_files.count(path) == 0) {
        flag("seed-stream registration PSCHED_SEED_STREAM(" + reg.ident + ", \"" +
             reg.name + "\") outside the central registry — registrations must "
             "live in src/util/seed_streams.hpp so collisions are visible in "
             "one place");
        continue;
      }
      const auto [name_it, name_new] = index.stream_names.emplace(reg.name, path);
      if (!name_new) {
        flag("seed-stream name collision: \"" + reg.name + "\" is already "
             "registered (in " + name_it->second + ") — two subsystems sharing "
             "a stream name draw from the SAME sequence, silently correlating "
             "their 'independent' randomness");
        continue;
      }
      const auto [ident_it, ident_new] =
          index.stream_idents.emplace(reg.ident, reg.name);
      if (!ident_new) {
        flag("seed-stream constant collision: '" + reg.ident + "' is already "
             "registered for stream \"" + ident_it->second + "\"");
      }
    }
  }
  // D7 observer closure: any class whose base clause names a known observer
  // class is itself an observer implementation, transitively and cross-TU.
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& [path, file] : files) {
      for (const ClassDecl& decl : file.classes) {
        if (index.observer_classes.count(decl.name) > 0) continue;
        for (const std::string& base : decl.bases) {
          if (index.observer_classes.count(base) > 0) {
            index.observer_classes.insert(decl.name);
            grew = true;
            break;
          }
        }
      }
    }
  }
  return index;
}

std::vector<Finding> lint_file(const SourceFile& file,
                               const std::set<std::string>& tu_unordered_names,
                               const ProgramIndex& index,
                               const LintOptions& options) {
  std::vector<Finding> out = file.annotation_errors;
  const std::vector<Token> tokens = tokenize(file.code);
  const std::vector<std::size_t> line_starts = compute_line_starts(file.code);
  check_wall_clock(file, tokens, options, out);
  check_unordered_iteration(file, tokens, tu_unordered_names, line_starts, out);
  check_mt19937(file, tokens, out);
  check_float_equality(file, tokens, line_starts, options, out);
  check_seed_streams(file, index, out);
  check_time_units(file, tokens, out);
  check_observer_purity(file, tokens, index, out);
  check_parallel_folds(file, tokens, line_starts, options, out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

namespace {

bool has_source_extension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

/// Resolve `include` (as written in the directive) against the project
/// layout; returns the root-relative generic path or "" when not found.
std::string resolve_include(const std::filesystem::path& root, const std::string& include,
                            const std::string& includer_rel) {
  namespace fs = std::filesystem;
  const fs::path includer_dir = fs::path(includer_rel).parent_path();
  for (const fs::path& candidate :
       {fs::path("src") / include, fs::path(include), includer_dir / include,
        fs::path("tools") / include, fs::path("bench") / include}) {
    const fs::path normal = candidate.lexically_normal();
    if (fs::exists(root / normal)) return normal.generic_string();
  }
  return {};
}

std::map<std::string, SourceFile> load_tree(const LintOptions& options,
                                            const std::vector<std::string>& subdirs,
                                            const std::vector<std::string>& exclude_prefixes) {
  namespace fs = std::filesystem;
  std::map<std::string, SourceFile> files;
  for (const std::string& sub : subdirs) {
    const fs::path dir = options.root / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !has_source_extension(entry.path())) continue;
      const std::string rel =
          fs::path(entry.path()).lexically_relative(options.root).generic_string();
      if (has_prefix(rel, exclude_prefixes)) continue;
      files.emplace(rel, load_source(entry.path(), rel));
    }
  }
  return files;
}

}  // namespace

std::vector<Finding> lint_tree(const LintOptions& options,
                               const std::vector<std::string>& subdirs,
                               const std::vector<std::string>& exclude_prefixes) {
  const std::map<std::string, SourceFile> files =
      load_tree(options, subdirs, exclude_prefixes);
  const ProgramIndex index = build_index(files, options);

  std::vector<Finding> findings = index.findings;
  for (const auto& [rel, file] : files) {
    // The TU's unordered names: this file's plus everything reachable
    // through its project includes (headers pull in their own includes).
    std::set<std::string> tu_names = file.unordered_names;
    std::vector<std::string> pending = {rel};
    std::set<std::string> visited = {rel};
    while (!pending.empty()) {
      const std::string current = pending.back();
      pending.pop_back();
      const auto it = files.find(current);
      if (it == files.end()) continue;
      tu_names.insert(it->second.unordered_names.begin(),
                      it->second.unordered_names.end());
      for (const std::string& inc : it->second.includes) {
        const std::string resolved = resolve_include(options.root, inc, current);
        if (!resolved.empty() && visited.insert(resolved).second)
          pending.push_back(resolved);
      }
    }
    const std::vector<Finding> file_findings = lint_file(file, tu_names, index, options);
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return findings;
}

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kRules = {
      {"D1", "wall-clock or ambient-entropy read in simulated code"},
      {"D2", "iteration over an unordered container (hash-order dependent)"},
      {"D3", "std::mt19937 constructed without a named seed parameter"},
      {"D4", "floating-point ==/!= against a literal"},
      {"D5", "seed-stream name not registered (or colliding) in the central registry"},
      {"D6", "additive arithmetic mixing time units (ms/us vs seconds/hours)"},
      {"D7", "observer callback mutates the simulation it observes"},
      {"D8", "cross-worker compound accumulation inside a parallel wave lambda"},
      {"SUPP", "malformed or unjustified psched-lint suppression annotation"},
  };
  return kRules;
}

bool run_self_test(const std::filesystem::path& fixture_dir) {
  namespace fs = std::filesystem;
  if (!fs::exists(fixture_dir)) {
    std::cerr << "psched-lint self-test: fixture directory " << fixture_dir
              << " does not exist\n";
    return false;
  }
  LintOptions options;
  options.root = fixture_dir;
  // Fixtures are judged raw: no file-level allowlists apply inside the
  // fixture tree (suppression annotations still do — that is one of the
  // behaviors under test), and any fixture may register seed streams (so
  // the registry rules are testable without a fake src/util/ layout).
  options.clock_allowlist.clear();
  options.clock_allowed_prefixes.clear();
  options.float_eq_allowed_prefixes.clear();
  options.registry_files.clear();

  bool ok = true;
  std::size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(fixture_dir)) {
    if (!entry.is_regular_file() || !has_source_extension(entry.path())) continue;
    const std::string name = entry.path().filename().string();
    // Each fixture is its own one-file program: both passes run, so the
    // cross-TU rules (D5 registry, D7 subclassing) see the fixture's own
    // registrations and class declarations.
    std::map<std::string, SourceFile> files;
    files.emplace(name, load_source(entry.path(), name));
    const SourceFile& file = files.begin()->second;
    const ProgramIndex index = build_index(files, options);
    std::vector<Finding> findings = index.findings;
    const std::vector<Finding> file_findings =
        lint_file(file, file.unordered_names, index, options);
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
    ++checked;
    if (name.rfind("ok_", 0) == 0) {
      if (!findings.empty()) {
        ok = false;
        std::cerr << "psched-lint self-test: " << name
                  << " must lint clean but produced:\n";
        for (const Finding& f : findings)
          std::cerr << "  " << f.file << ":" << f.line << ": [" << f.rule << "] "
                    << f.message << "\n";
      }
      continue;
    }
    // d<K>_*.cpp (and supp_*.cpp for the SUPP diagnostic) must trip their rule.
    std::string expected;
    if (name.rfind("supp_", 0) == 0) {
      expected = "SUPP";
    } else if (name.size() > 2 && name[0] == 'd' && is_digit(name[1]) && name[2] == '_') {
      expected = std::string("D") + name[1];
    } else {
      ok = false;
      std::cerr << "psched-lint self-test: unrecognized fixture name " << name
                << " (expected d<K>_*, supp_*, or ok_*)\n";
      continue;
    }
    const bool hit = std::any_of(findings.begin(), findings.end(),
                                 [&](const Finding& f) { return f.rule == expected; });
    if (!hit) {
      ok = false;
      std::cerr << "psched-lint self-test: " << name << " must trip rule " << expected
                << " but did not (findings: " << findings.size() << ")\n";
    }
  }
  if (checked == 0) {
    std::cerr << "psched-lint self-test: no fixtures found in " << fixture_dir << "\n";
    return false;
  }
  if (ok)
    std::cout << "psched-lint self-test: OK (" << checked << " fixtures)\n";
  return ok;
}

}  // namespace psched::lint
