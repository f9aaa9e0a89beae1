#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "support/bits.h"
#include "support/diag.h"
#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/strings.h"

namespace adlsym {
namespace {

TEST(Bits, LowMask) {
  EXPECT_EQ(lowMask(1), 1u);
  EXPECT_EQ(lowMask(8), 0xffu);
  EXPECT_EQ(lowMask(32), 0xffffffffu);
  EXPECT_EQ(lowMask(64), ~uint64_t{0});
  EXPECT_THROW(lowMask(0), Error);
  EXPECT_THROW(lowMask(65), Error);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(signExtend(0x80, 8), 0xffffffffffffff80ull);
  EXPECT_EQ(signExtend(0x7f, 8), 0x7full);
  EXPECT_EQ(asSigned(0xff, 8), -1);
  EXPECT_EQ(asSigned(0xfff, 12), -1);
  EXPECT_EQ(asSigned(0x800, 12), -2048);
}

TEST(Bits, Fits) {
  EXPECT_TRUE(fitsSigned(-1, 1));
  EXPECT_FALSE(fitsSigned(1, 1));
  EXPECT_TRUE(fitsSigned(-2048, 12));
  EXPECT_FALSE(fitsSigned(-2049, 12));
  EXPECT_TRUE(fitsSigned(2047, 12));
  EXPECT_FALSE(fitsSigned(2048, 12));
  EXPECT_TRUE(fitsUnsigned(255, 8));
  EXPECT_FALSE(fitsUnsigned(256, 8));
}

TEST(Bits, BitSlice) {
  EXPECT_EQ(bitSlice(0xabcd, 15, 8), 0xabu);
  EXPECT_EQ(bitSlice(0xabcd, 7, 0), 0xcdu);
  EXPECT_EQ(bitSlice(0x8000000000000000ull, 63, 63), 1u);
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parseInt("42"), 42u);
  EXPECT_EQ(parseInt("0x2a"), 42u);
  EXPECT_EQ(parseInt("0b101010"), 42u);
  EXPECT_EQ(parseInt("0o52"), 42u);
  EXPECT_EQ(parseInt("0b10_1010"), 42u);
  EXPECT_EQ(parseInt("-1"), ~uint64_t{0});
  EXPECT_EQ(parseInt(" 7 "), 7u);
  EXPECT_FALSE(parseInt(""));
  EXPECT_FALSE(parseInt("0x"));
  EXPECT_FALSE(parseInt("12z"));
  EXPECT_FALSE(parseInt("0b2"));
  EXPECT_FALSE(parseInt("99999999999999999999999"));  // overflow
}

TEST(Strings, SplitAndTrim) {
  const auto parts = splitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n"), "");
}

TEST(Strings, Format) {
  EXPECT_EQ(formatStr("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(formatStr("%04x", 0xabu), "00ab");
}

TEST(Diag, CollectsAndFormats) {
  DiagEngine d("f.adl");
  EXPECT_FALSE(d.hasErrors());
  d.warning({1, 2}, "w");
  EXPECT_FALSE(d.hasErrors());
  d.error({3, 4}, "e");
  EXPECT_TRUE(d.hasErrors());
  EXPECT_EQ(d.errorCount(), 1u);
  const std::string s = d.str();
  EXPECT_NE(s.find("f.adl:1:2: warning: w"), std::string::npos);
  EXPECT_NE(s.find("f.adl:3:4: error: e"), std::string::npos);
}

TEST(Rng, DeterministicAndSeedSensitive) {
  Rng a(1);
  Rng b(1);
  Rng c(2);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(1);
  Rng c2(2);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
  const double u = r.unit();
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
}

// ---- json writer/reader round-trips ------------------------------------

std::string writeString(const std::string& s) {
  std::ostringstream os;
  json::Writer w(os);
  w.beginObject().kv("s", std::string_view(s)).endObject();
  return os.str();
}

TEST(Json, RoundTripsControlCharacters) {
  // Every byte below 0x20 must escape on the way out and parse back
  // identically — event payloads carry arbitrary program labels.
  std::string all;
  for (int c = 1; c < 0x20; ++c) all.push_back(char(c));
  all += "\"\\";
  const std::string doc = writeString(all);
  for (char c : doc) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20) << doc;
  }
  const json::Value v = json::parse(doc);
  EXPECT_EQ(v.find("s")->str, all);
}

TEST(Json, RoundTripsNonAsciiBytes) {
  // UTF-8 and stray high bytes pass through untouched (the writer escapes
  // only what JSON requires).
  const std::string s = "caf\xc3\xa9 \xe2\x86\x92 \xff\xfe";
  const json::Value v = json::parse(writeString(s));
  EXPECT_EQ(v.find("s")->str, s);
}

TEST(Json, RoundTrips64BitIntegerBoundaries) {
  std::ostringstream os;
  json::Writer w(os);
  w.beginObject();
  w.kv("umax", ~uint64_t{0});
  w.kv("imin", std::numeric_limits<int64_t>::min());
  w.kv("imax", std::numeric_limits<int64_t>::max());
  w.kv("p53", uint64_t{1} << 53);
  w.kv("p53p1", (uint64_t{1} << 53) + 1);  // not representable as double
  w.kv("zero", uint64_t{0});
  w.endObject();
  const json::Value v = json::parse(os.str());
  EXPECT_TRUE(v.find("umax")->intExact);
  EXPECT_EQ(v.find("umax")->asU64(), ~uint64_t{0});
  EXPECT_TRUE(v.find("imin")->intExact);
  EXPECT_EQ(v.find("imin")->asI64(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(v.find("imax")->asI64(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(v.find("p53")->asU64(), uint64_t{1} << 53);
  EXPECT_EQ(v.find("p53p1")->asU64(), (uint64_t{1} << 53) + 1);
  EXPECT_EQ(v.find("zero")->asU64(), 0u);
}

TEST(Json, FractionalAndExponentTokensAreNotExact) {
  const json::Value v = json::parse("{\"a\":1.5,\"b\":1e3,\"c\":42}");
  EXPECT_FALSE(v.find("a")->intExact);
  EXPECT_DOUBLE_EQ(v.find("a")->number, 1.5);
  EXPECT_FALSE(v.find("b")->intExact);
  EXPECT_DOUBLE_EQ(v.find("b")->number, 1000.0);
  EXPECT_TRUE(v.find("c")->intExact);
  EXPECT_EQ(v.find("c")->asU64(), 42u);
  EXPECT_EQ(v.find("c")->asI64(), 42);
}

TEST(Json, IntegerReadsRejectWhatDoesNotFit) {
  const json::Value v = json::parse(
      "{\"frac\":-2.5,\"neg\":-2,\"big\":1e30,\"u64max\":"
      "18446744073709551615,\"over\":18446744073709551616,\"e3\":1e3,"
      "\"negzero\":-0,\"s\":\"7\",\"t\":true}");
  const auto u = [&v](const char* k) { return v.find(k)->asU64(); };
  const auto i = [&v](const char* k) { return v.find(k)->asI64(); };
  EXPECT_THROW(u("frac"), InputError);
  EXPECT_THROW(i("frac"), InputError);
  EXPECT_THROW(u("neg"), InputError);
  EXPECT_EQ(i("neg"), -2);
  EXPECT_THROW(u("big"), InputError);
  EXPECT_THROW(i("big"), InputError);
  EXPECT_EQ(u("u64max"), ~uint64_t{0});
  EXPECT_THROW(i("u64max"), InputError);
  EXPECT_THROW(u("over"), InputError);
  EXPECT_EQ(u("e3"), 1000u);
  EXPECT_EQ(i("e3"), 1000);
  EXPECT_EQ(u("negzero"), 0u);
  EXPECT_THROW(u("s"), InputError);
  EXPECT_THROW(i("t"), InputError);
}

}  // namespace
}  // namespace adlsym
