// Minimal command-line flag parsing for bench and example binaries, and
// the text reader behind the unix-filter examples.
//
// Syntax: --name=value or --flag. Unknown flags are an error so typos in
// experiment sweeps fail loudly instead of silently running the default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hpsum::util {

/// Parsed command line. Construct once in main(), then query typed flags.
class Args {
 public:
  /// Parses argv. `known` lists every accepted flag name; an argument that
  /// is not of the form --known[=value] raises std::invalid_argument.
  Args(int argc, char** argv, std::vector<std::string> known);

  /// Integer flag with default. Accepts size suffixes k/K, m/M, g/G
  /// (binary: 1k = 1024). The whole value must parse and the scaled
  /// result must fit in 64 bits; otherwise raises std::invalid_argument
  /// naming the flag and the value.
  [[nodiscard]] std::int64_t get_int(std::string_view name,
                                     std::int64_t fallback) const;

  /// Floating-point flag with default. The whole value must parse with
  /// std::from_chars and be in double range; otherwise raises
  /// std::invalid_argument naming the flag and the value.
  [[nodiscard]] double get_double(std::string_view name, double fallback) const;

  /// String flag with default.
  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string fallback) const;

  /// True iff --name or --name=true/1 was given.
  [[nodiscard]] bool get_bool(std::string_view name) const;

  /// True when the HPSUM_FULL environment variable requests paper-scale
  /// problem sizes (32M summands, 16384 trials) instead of the scaled-down
  /// defaults suitable for a laptop run. See DESIGN.md §2.
  [[nodiscard]] static bool full_scale();

 private:
  [[nodiscard]] std::optional<std::string> raw(std::string_view name) const;
  std::map<std::string, std::string, std::less<>> values_;
};

/// Where read_doubles() stopped before the end of its input.
struct ReadError {
  /// The offending token, cut to its first 40 bytes ("..." marks a cut);
  /// empty when the stream itself failed (ferror).
  std::string token;
  /// 1-based position of the token among the input's tokens.
  std::size_t index = 0;
};

/// Appends every whitespace-separated decimal number in `in` to `out`.
///
/// Reads in fixed 64 KiB chunks (a buffer grows only for a longer token),
/// splits on C-locale whitespace and parses each token with
/// std::from_chars. A token is [+|-] mantissa [(e|E) [+|-] digits], the
/// mantissa being digits with at most one '.' and at least one digit;
/// `inf`, `nan`, hex and overflow (1e400) are rejected, underflow (1e-400)
/// reads as a signed zero. This is what `std::istream >> double` accepts,
/// except that a token `>>` would split into several numbers (`1.5-2`,
/// `1.2.3`) is rejected whole.
///
/// Returns std::nullopt at end of input, otherwise the first bad token; the
/// values before it are in `out`.
[[nodiscard]] std::optional<ReadError> read_doubles(std::FILE* in,
                                                    std::vector<double>& out);

}  // namespace hpsum::util
