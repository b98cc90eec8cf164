// Tests for util::read_doubles, the text reader behind exact_sum_cli:
// differential against `std::istringstream >> double` on an edge corpus
// and random tokens, chunk-boundary layouts, error reports, and a
// shortest-round-trip run over 1M values.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/prng.hpp"
#include "workload/workload.hpp"

namespace hpsum::util {
namespace {

constexpr std::size_t kChunk = 64 * 1024;  // read_doubles' read size

struct Outcome {
  bool ok = false;
  std::vector<std::uint64_t> bits;  // the values read, as bit patterns
};

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

// read_doubles on `text`, through a real FILE*.
Outcome read_text(const std::string& text, ReadError* error = nullptr) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return {};
  EXPECT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::rewind(f);
  std::vector<double> xs;
  const auto bad = read_doubles(f, xs);
  std::fclose(f);
  if (bad && error != nullptr) *error = *bad;
  Outcome o{!bad, {}};
  for (const double v : xs) o.bits.push_back(bits_of(v));
  return o;
}

// What `std::istream >> double` makes of `text`: every number, or a
// rejection as soon as a non-blank remainder does not extract (a bad last
// token with no newline after it included).
Outcome istream_reference(const std::string& text) {
  std::istringstream is(text);
  Outcome o;
  for (;;) {
    is >> std::ws;
    if (is.eof()) {
      o.ok = true;
      return o;
    }
    double v = 0;
    if (!(is >> v)) return o;
    o.bits.push_back(bits_of(v));
  }
}

const char* const kCorpus[] = {
    "+1.5",     "-0",       ".5",     "5.",     "1E5",
    "1.5e+3",   "4.9e-324", "2.4e-324", "1e-400", "-1e-400",
    "+1e-400",  "1e400",    "-1e400", "1.7976931348623159e308",
    "1.7976931348623157e308",           "inf",    "-inf",
    "nan",      "infinity", "0x1p3",  "0x10",   "1e",
    "1e+",      "--1",      "+-1",    "-+1",    "-.e1",
    "1,5",      "1e5e5",    "-",      "+",      ".",
    "e5",       "1.e5",     "+.5",    "007",    "1.5abc"};

// The one deliberate difference: tokens `>>` splits into several numbers.
const char* const kGlued[] = {"1.5-2", "1.2.3", "1e5-3", "1+1"};

TEST(Ingest, CorpusMatchesIstream) {
  for (const char* tok : kCorpus) {
    for (const std::string& text :
         {std::string(tok), std::string(tok) + "\n",
          "1 " + std::string(tok) + " 2\n"}) {
      const Outcome want = istream_reference(text);
      const Outcome got = read_text(text);
      EXPECT_EQ(got.ok, want.ok) << '"' << text << '"';
      if (want.ok) {
        EXPECT_EQ(got.bits, want.bits) << '"' << text << '"';
      }
    }
  }
}

TEST(Ingest, CorpusValues) {
  const auto one = [](const char* text) {
    const Outcome o = read_text(text);
    EXPECT_TRUE(o.ok) << text;
    EXPECT_EQ(o.bits.size(), 1u) << text;
    return o.bits.empty() ? ~std::uint64_t{0} : o.bits[0];
  };
  EXPECT_EQ(one("+1.5"), bits_of(1.5));
  EXPECT_EQ(one("-0"), bits_of(-0.0));
  EXPECT_EQ(one("4.9e-324"),
            bits_of(std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(one("2.4e-324"), bits_of(0.0));  // underflow: a signed zero
  EXPECT_EQ(one("1e-400"), bits_of(0.0));
  EXPECT_EQ(one("-1e-400"), bits_of(-0.0));
  EXPECT_EQ(one("1.7976931348623157e308"),
            bits_of(std::numeric_limits<double>::max()));
  for (const char* bad : {"1e400", "1.7976931348623159e308", "inf", "nan",
                          "0x1p3", "1e", "+-1", "1,5", "1e5e5"}) {
    EXPECT_FALSE(read_text(bad).ok) << bad;
  }
}

TEST(Ingest, GluedTokensAreRejectedWhole) {
  for (const char* tok : kGlued) {
    const Outcome want = istream_reference(std::string(tok) + "\n");
    EXPECT_TRUE(want.ok) << tok;
    EXPECT_EQ(want.bits.size(), 2u) << tok;  // istream splits it in two
    EXPECT_FALSE(read_text(std::string(tok) + "\n").ok) << tok;
  }
}

TEST(Ingest, RandomTokensMatchIstream) {
  // Short tokens over the alphabet of decimal numbers: every one that
  // istream reads as a single number must read to the same bits, every
  // rejection must match, and glued tokens must be rejected.
  static constexpr char kAlphabet[] = "0123456789+-.eE";
  Xoshiro256ss rng(2024);
  for (int trial = 0; trial < 4000; ++trial) {
    std::string tok(1 + rng.bounded(8), '0');
    for (char& c : tok) c = kAlphabet[rng.bounded(sizeof kAlphabet - 1)];
    const Outcome want = istream_reference(tok);
    const Outcome got = read_text(tok);
    if (want.ok && want.bits.size() > 1) {
      EXPECT_FALSE(got.ok) << tok;
      continue;
    }
    EXPECT_EQ(got.ok, want.ok) << tok;
    if (want.ok) {
      EXPECT_EQ(got.bits, want.bits) << tok;
    }
  }
}

TEST(Ingest, WhitespaceLayouts) {
  const std::vector<std::uint64_t> two = {bits_of(1.5), bits_of(-2.25)};
  for (const char* text :
       {"1.5\r\n-2.25\r\n", "1.5 -2.25", "\t1.5\v-2.25\f", "  1.5\n\n-2.25  "}) {
    const Outcome o = read_text(text);
    EXPECT_TRUE(o.ok) << text;
    EXPECT_EQ(o.bits, two) << text;
  }
  for (const char* blank : {"", " ", "\n", " \t\n\v\f\r"}) {
    const Outcome o = read_text(blank);
    EXPECT_TRUE(o.ok);
    EXPECT_TRUE(o.bits.empty());
  }
}

TEST(Ingest, TokenStraddlingTheChunkBoundary) {
  const std::string tok = "-1.2345678901234567e-8";
  const std::uint64_t want = bits_of(-1.2345678901234567e-8);
  for (std::size_t off = 0; off <= tok.size() + 1; ++off) {
    // The token starts `off` bytes before the first chunk ends.
    const std::string text = std::string(kChunk - off, ' ') + tok + "\n7";
    const Outcome o = read_text(text);
    ASSERT_TRUE(o.ok) << off;
    ASSERT_EQ(o.bits.size(), 2u) << off;
    EXPECT_EQ(o.bits[0], want) << off;
    EXPECT_EQ(o.bits[1], bits_of(7.0)) << off;
  }
}

TEST(Ingest, TokenLongerThanTheChunk) {
  // 1.000...0005 with 3 * 64 KiB zeros: grows the buffer twice, rounds to 1.
  const std::string tok = "1." + std::string(3 * kChunk, '0') + "5";
  for (const std::string& text :
       {tok, "2 " + tok + "\n3", std::string(kChunk - 5, ' ') + tok}) {
    const Outcome want = istream_reference(text);
    const Outcome got = read_text(text);
    EXPECT_TRUE(want.ok);
    EXPECT_TRUE(got.ok);
    EXPECT_EQ(got.bits, want.bits);
  }
  EXPECT_EQ(read_text(tok).bits, std::vector<std::uint64_t>{bits_of(1.0)});
}

TEST(Ingest, ErrorNamesTokenAndIndex) {
  ReadError e;
  EXPECT_FALSE(read_text("1 2\nabc 4\n", &e).ok);
  EXPECT_EQ(e.token, "abc");
  EXPECT_EQ(e.index, 3u);

  // A bad token after a full chunk of good ones keeps its 1-based index.
  std::string text;
  std::size_t n = 0;
  while (text.size() < 2 * kChunk) {
    text += "0.125\n";
    ++n;
  }
  EXPECT_FALSE(read_text(text + "1e400\n", &e).ok);
  EXPECT_EQ(e.token, "1e400");
  EXPECT_EQ(e.index, n + 1);

  // Long tokens are cut to their first 40 bytes.
  EXPECT_FALSE(read_text("7 " + std::string(100, 'x'), &e).ok);
  EXPECT_EQ(e.token, std::string(40, 'x') + "...");
  EXPECT_EQ(e.index, 2u);
}

TEST(Ingest, ValuesBeforeTheBadTokenAreKept) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  std::fputs("1 2 nan 4", f);
  std::rewind(f);
  std::vector<double> xs = {9.0};  // read_doubles appends
  const auto bad = read_doubles(f, xs);
  std::fclose(f);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(xs, (std::vector<double>{9.0, 1.0, 2.0}));
}

TEST(Ingest, ShortestRoundTripOfOneMillionValues) {
  const auto xs = workload::uniform_set(std::size_t{1} << 20, 1);
  std::string text;
  text.reserve(xs.size() * 24);
  char buf[32];
  for (const double x : xs) {
    const auto r = std::to_chars(buf, buf + sizeof buf, x);
    text.append(buf, r.ptr);
    text += '\n';
  }
  const Outcome o = read_text(text);
  ASSERT_TRUE(o.ok);
  ASSERT_EQ(o.bits.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(o.bits[i], bits_of(xs[i])) << i;
  }
}

}  // namespace
}  // namespace hpsum::util
