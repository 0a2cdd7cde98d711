//===- tests/support/CountTest.cpp - BigCount unit tests -------------------===//

#include "support/Count.h"

#include <gtest/gtest.h>

using namespace anosy;

TEST(BigCount, DefaultIsZero) {
  BigCount C;
  EXPECT_TRUE(C.isZero());
  EXPECT_FALSE(C.isSaturated());
  EXPECT_EQ(C.toInt64(), 0);
}

TEST(BigCount, OfIntervalBasics) {
  EXPECT_EQ(BigCount::ofInterval(0, 0).toInt64(), 1);
  EXPECT_EQ(BigCount::ofInterval(1, 10).toInt64(), 10);
  EXPECT_EQ(BigCount::ofInterval(-5, 5).toInt64(), 11);
  EXPECT_TRUE(BigCount::ofInterval(3, 2).isZero());
}

TEST(BigCount, OfIntervalFullInt64Range) {
  BigCount C = BigCount::ofInterval(INT64_MIN, INT64_MAX);
  EXPECT_FALSE(C.isSaturated());
  EXPECT_FALSE(C.fitsInt64());
  EXPECT_EQ(C.str(), "18446744073709551616"); // 2^64
}

TEST(BigCount, Addition) {
  EXPECT_EQ((BigCount(3) + BigCount(4)).toInt64(), 7);
  EXPECT_EQ((BigCount() + BigCount(9)).toInt64(), 9);
}

TEST(BigCount, Multiplication) {
  EXPECT_EQ((BigCount(6) * BigCount(7)).toInt64(), 42);
  EXPECT_TRUE((BigCount() * BigCount(7)).isZero());
  // The paper's Pizza domain: 112 * 25 * 100001^2.
  BigCount Pizza = BigCount(112) * BigCount(25) * BigCount(100001) *
                   BigCount(100001);
  EXPECT_EQ(Pizza.str(), "28000560002800");
  EXPECT_EQ(Pizza.sci(), "2.80e+13");
}

TEST(BigCount, SubtractionClampsAtZero) {
  EXPECT_EQ((BigCount(10) - BigCount(4)).toInt64(), 6);
  EXPECT_TRUE((BigCount(4) - BigCount(10)).isZero());
  EXPECT_TRUE((BigCount(4) - BigCount(4)).isZero());
}

TEST(BigCount, SaturationIsSticky) {
  BigCount Big = BigCount::ofInterval(INT64_MIN, INT64_MAX);
  BigCount Sat = Big * Big; // 2^128 overflows
  EXPECT_TRUE(Sat.isSaturated());
  EXPECT_TRUE((Sat + BigCount(1)).isSaturated());
  EXPECT_TRUE((Sat * BigCount(2)).isSaturated());
  EXPECT_TRUE((Sat - BigCount(5)).isSaturated());
  EXPECT_EQ(Sat.str(), ">=2^127");
}

TEST(BigCount, SaturatedComparesAboveEverything) {
  BigCount Sat = BigCount::saturated();
  EXPECT_TRUE(BigCount(INT64_MAX) < Sat);
  EXPECT_FALSE(Sat < BigCount(INT64_MAX));
  EXPECT_TRUE(Sat == BigCount::saturated());
}

TEST(BigCount, Ordering) {
  EXPECT_TRUE(BigCount(3) < BigCount(4));
  EXPECT_TRUE(BigCount(3) <= BigCount(3));
  EXPECT_TRUE(BigCount(5) > 4);
  EXPECT_TRUE(BigCount(5) >= 5);
  EXPECT_FALSE(BigCount(5) > 5);
  EXPECT_TRUE(BigCount(100) == 100);
}

TEST(BigCount, SciRendering) {
  EXPECT_EQ(BigCount(259).sci(), "259");
  EXPECT_EQ(BigCount(13246).sci(), "13246");
  EXPECT_EQ(BigCount(1370000).sci(), "1.37e+06");
  EXPECT_EQ(BigCount(100).sci(/*Threshold=*/10), "1.00e+02");
}

TEST(BigCount, ToDoubleLargeValues) {
  BigCount C = BigCount(1) * BigCount(INT64_MAX);
  EXPECT_NEAR(C.toDouble(), 9.22e18, 1e17);
}

// The edges of the 128-bit range: exact right up to 2^128 - 1, saturated
// one past it, and zero absorbing even a saturated factor.
TEST(BigCount, ExactUpTo128Bits) {
  const std::string Max128 = "340282366920938463463374607431768211455";
  const BigCount Pow64 = BigCount::ofInterval(INT64_MIN, INT64_MAX);
  const BigCount Pow64Minus1 = BigCount::ofInterval(INT64_MIN, INT64_MAX - 1);
  ASSERT_EQ(Pow64Minus1.str(), "18446744073709551615");

  BigCount Product = Pow64Minus1 * (Pow64 + BigCount(1));
  EXPECT_FALSE(Product.isSaturated());
  EXPECT_EQ(Product.str(), Max128);
  EXPECT_TRUE((Pow64 * Pow64).isSaturated());
  EXPECT_TRUE((Product + BigCount(1)).isSaturated());
  EXPECT_TRUE((BigCount(1) + Product).isSaturated());

  const BigCount Pow127 = Pow64 * BigCount(INT64_C(1) << 62) * BigCount(2);
  ASSERT_EQ(Pow127.str(), "170141183460469231731687303715884105728");
  BigCount Sum = Pow127 + (Pow127 - BigCount(1));
  EXPECT_FALSE(Sum.isSaturated());
  EXPECT_EQ(Sum.str(), Max128);
  EXPECT_TRUE((Pow127 + Pow127).isSaturated());
}

TEST(BigCount, ZeroTimesSaturatedIsZero) {
  const BigCount Sat = BigCount::saturated();
  EXPECT_TRUE((BigCount() * Sat).isZero());
  EXPECT_TRUE((Sat * BigCount()).isZero());
  EXPECT_TRUE((Sat * BigCount(1)).isSaturated());
  EXPECT_TRUE((BigCount() + Sat).isSaturated());
}
