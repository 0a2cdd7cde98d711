//===- tests/support/ParseNumTest.cpp - Strict flag parsing tests ---------===//

#include "support/ParseNum.h"

#include <gtest/gtest.h>

using namespace anosy;

// Regression for the CLI's unchecked atoi/strtoll sites: every token the
// old conversions silently misread must be a parse failure here.

TEST(ParseNum, Uint64AcceptsPlainDigits) {
  EXPECT_EQ(parseUint64("0"), 0u);
  EXPECT_EQ(parseUint64("42"), 42u);
  EXPECT_EQ(parseUint64("18446744073709551615"), UINT64_MAX);
}

TEST(ParseNum, Uint64RejectsGarbage) {
  EXPECT_FALSE(parseUint64(""));
  EXPECT_FALSE(parseUint64("abc"));      // atoi: 0
  EXPECT_FALSE(parseUint64("1O"));       // atoi: 1
  EXPECT_FALSE(parseUint64("12 "));      // strtoull: 12
  EXPECT_FALSE(parseUint64(" 12"));
  EXPECT_FALSE(parseUint64("-1"));       // strtoull: wraps to UINT64_MAX
  EXPECT_FALSE(parseUint64("+7"));
  EXPECT_FALSE(parseUint64("0x10"));
  EXPECT_FALSE(parseUint64("3.5"));
}

TEST(ParseNum, Uint64RejectsOverflow) {
  EXPECT_FALSE(parseUint64("18446744073709551616")); // 2^64
  EXPECT_FALSE(parseUint64("99999999999999999999999"));
}

TEST(ParseNum, Int64CoversFullRange) {
  EXPECT_EQ(parseInt64("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(parseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parseInt64("-1"), -1);
  EXPECT_EQ(parseInt64("0"), 0);
}

TEST(ParseNum, Int64RejectsOutOfRangeAndGarbage) {
  EXPECT_FALSE(parseInt64("9223372036854775808"));   // INT64_MAX + 1
  EXPECT_FALSE(parseInt64("-9223372036854775809"));  // INT64_MIN - 1
  EXPECT_FALSE(parseInt64("-"));
  EXPECT_FALSE(parseInt64(""));
  EXPECT_FALSE(parseInt64("--5"));
  EXPECT_FALSE(parseInt64("12x"));                   // strtoll: 12
}

TEST(ParseNum, UnsignedRangeChecks) {
  EXPECT_EQ(parseUnsigned("4294967295"), 4294967295u);
  EXPECT_FALSE(parseUnsigned("4294967296")); // > UINT_MAX on LP64
  EXPECT_FALSE(parseUnsigned("-1"));
  EXPECT_FALSE(parseUnsigned("two"));
}

TEST(ParseNum, DoubleAcceptsNonNegativeDecimals) {
  EXPECT_EQ(parseDouble("0"), 0.0);
  EXPECT_EQ(parseDouble("2.5"), 2.5);
  EXPECT_EQ(parseDouble("40"), 40.0);
  EXPECT_EQ(parseDouble(".5"), 0.5);
  EXPECT_EQ(parseDouble("1e3"), 1000.0);
}

TEST(ParseNum, DoubleRejectsGarbageNegativesAndNonFinite) {
  EXPECT_FALSE(parseDouble(""));
  EXPECT_FALSE(parseDouble("abc"));  // atof: 0
  EXPECT_FALSE(parseDouble("x"));    // atof: 0
  EXPECT_FALSE(parseDouble("2.5x")); // atof: 2.5
  EXPECT_FALSE(parseDouble(" 2"));
  EXPECT_FALSE(parseDouble("2 "));
  EXPECT_FALSE(parseDouble("+2"));
  EXPECT_FALSE(parseDouble("-1"));
  EXPECT_FALSE(parseDouble("inf"));
  EXPECT_FALSE(parseDouble("nan"));
  EXPECT_FALSE(parseDouble("1e999")); // out of range
}
