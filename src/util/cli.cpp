#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace hpsum::util {
namespace {

constexpr std::size_t kChunk = 64 * 1024;  // read_doubles' fread size
constexpr std::size_t kShownToken = 40;    // ReadError::token length cap

// C-locale isspace: ' ', \t, \n, \v, \f, \r.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

constexpr bool is_digit(char c) noexcept {
  return static_cast<unsigned char>(c - '0') <= 9;
}

// Parses the whole of a non-empty token; false unless it is one finite
// decimal number.
bool parse_token(const char* first, const char* last, double& v) {
  const bool plus = *first == '+';
  const char* const num = first + (plus ? 1 : 0);  // from_chars takes no '+'
  const char* lead = num;
  if (!plus && lead != last && *lead == '-') ++lead;
  // The mantissa must start here: this rejects inf, nan and "+-1".
  if (lead == last || !(is_digit(*lead) || *lead == '.')) return false;
  const auto [end, ec] = std::from_chars(num, last, v);
  if (end != last) return false;  // hex, "1e", "1,5", "1.5-2", ...
  if (ec == std::errc()) return true;
  if (ec != std::errc::result_out_of_range) return false;
  // Rare: strtod tells underflow (a signed zero, kept, as istream keeps
  // it) from overflow (HUGE_VAL, rejected).
  const std::string token(num, last);
  const double r = std::strtod(token.c_str(), nullptr);
  if (std::isinf(r)) return false;
  v = r;
  return true;
}

ReadError bad_token(const char* first, const char* last, std::size_t index) {
  const auto len = static_cast<std::size_t>(last - first);
  if (len <= kShownToken) return {std::string(first, len), index};
  return {std::string(first, kShownToken) + "...", index};
}

// The error for a flag value that does not parse as a whole, e.g.
// `--shards: expected an integer, got "2x"`.
std::invalid_argument bad_value(std::string_view name, const char* expected,
                                const std::string& value) {
  return std::invalid_argument("--" + std::string(name) + ": expected " +
                               expected + ", got \"" + value + "\"");
}

}  // namespace

Args::Args(int argc, char** argv, std::vector<std::string> known) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag[=value], got: " +
                                  std::string(arg));
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value = "true";
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
    }
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw std::invalid_argument("unknown flag: --" + name);
    }
    values_[name] = value;
  }
}

std::optional<std::string> Args::raw(std::string_view name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::int64_t Args::get_int(std::string_view name, std::int64_t fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  std::string s = *v;
  std::int64_t scale = 1;
  if (!s.empty()) {
    switch (s.back()) {
      case 'k': case 'K': scale = 1024; s.pop_back(); break;
      case 'm': case 'M': scale = 1024 * 1024; s.pop_back(); break;
      case 'g': case 'G': scale = 1024 * 1024 * 1024; s.pop_back(); break;
      default: break;
    }
  }
  std::int64_t x = 0;
  const char* const last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data(), last, x);
  if (end != last || ec == std::errc::invalid_argument) {
    throw bad_value(name, "an integer", *v);
  }
  if (ec != std::errc() || __builtin_mul_overflow(x, scale, &x)) {
    throw bad_value(name, "an integer in 64-bit range", *v);
  }
  return x;
}

double Args::get_double(std::string_view name, double fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  double x = 0;
  const char* const last = v->data() + v->size();
  const auto [end, ec] = std::from_chars(v->data(), last, x);
  if (end != last || ec != std::errc()) {
    throw bad_value(name, "a number", *v);
  }
  return x;
}

std::string Args::get_string(std::string_view name, std::string fallback) const {
  const auto v = raw(name);
  return v ? *v : fallback;
}

bool Args::get_bool(std::string_view name) const {
  const auto v = raw(name);
  return v && (*v == "true" || *v == "1" || *v == "yes");
}

std::optional<ReadError> read_doubles(std::FILE* in,
                                      std::vector<double>& out) {
  std::vector<char> buf(kChunk);
  std::size_t have = 0;   // bytes at the front of buf not yet tokenised
  std::size_t index = 0;  // tokens parsed so far
  bool eof = false;
  while (!eof) {
    const std::size_t want = buf.size() - have;
    const std::size_t got = std::fread(buf.data() + have, 1, want, in);
    if (got < want && std::ferror(in)) return ReadError{{}, index + 1};
    eof = got < want;
    have += got;
    const char* p = buf.data();
    const char* const end = p + have;
    for (;;) {
      while (p != end && is_space(*p)) ++p;
      const char* const first = p;
      while (p != end && !is_space(*p)) ++p;
      if (first == p) break;  // only whitespace was left
      if (p == end && !eof) {  // the token may go on in the next chunk
        p = first;
        break;
      }
      ++index;
      double v = 0;
      if (!parse_token(first, p, v)) return bad_token(first, p, index);
      out.push_back(v);
    }
    // Carry the unfinished token to the front; grow only when it fills buf.
    have = static_cast<std::size_t>(end - p);
    std::memmove(buf.data(), p, have);
    if (have == buf.size()) buf.resize(2 * buf.size());
  }
  return std::nullopt;
}

bool Args::full_scale() {
  const char* env = std::getenv("HPSUM_FULL");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace hpsum::util
