//===- SupportTests.cpp - Tests for the support library ---------------------===//

#include "support/Memory.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/Str.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

using namespace granii;

TEST(Memory, FitsInMemoryAgainstAnInjectedSize) {
  std::string Error;
  EXPECT_TRUE(fitsInMemory(4096, 4096, "sizes", &Error));
  EXPECT_TRUE(Error.empty());
  EXPECT_FALSE(fitsInMemory(4097, 4096, "sizes", &Error));
  EXPECT_EQ(Error, "sizes need 4097 bytes, more than the host's 4096 bytes "
                   "of physical memory");
  // An overflowed count never fits, not even where the size is unknown.
  EXPECT_FALSE(fitsInMemory(-1, 0, "sizes", &Error));
  EXPECT_NE(Error.find("overflow"), std::string::npos) << Error;
  EXPECT_TRUE(fitsInMemory(int64_t{1} << 62, 0, "sizes", &Error));

  // A graph build: row offsets plus 20 bytes per stored entry (COO triple
  // and CSR column and value).
  EXPECT_EQ(graphBuildBytes(99, 0), 800);
  EXPECT_EQ(graphBuildBytes(99, 10), 1000);
  EXPECT_FALSE(fitsInMemory(graphBuildBytes(99, 10), 999, "graph", &Error));
  EXPECT_TRUE(fitsInMemory(graphBuildBytes(99, 10), 1000, "graph", &Error));
  EXPECT_LT(graphBuildBytes(INT64_MAX, 0), 0);
  EXPECT_LT(graphBuildBytes(10, INT64_MAX / 4), 0);
}

TEST(Rng, DeterministicStream) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng A(7);
  uint64_t First = A.next();
  A.next();
  A.reseed(7);
  EXPECT_EQ(A.next(), First);
}

TEST(Rng, NextBelowInRange) {
  Rng R(5);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.nextBelow(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng R(11);
  for (int I = 0; I < 1000; ++I) {
    double X = R.nextDouble();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng R(13);
  double Sum = 0.0, SumSq = 0.0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    double X = R.nextGaussian();
    Sum += X;
    SumSq += X * X;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.05);
  EXPECT_NEAR(SumSq / N, 1.0, 0.05);
}

TEST(Stats, MeanAndStddev) {
  std::vector<double> V = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(meanOf(V), 2.5);
  EXPECT_NEAR(stddevOf(V), std::sqrt(1.25), 1e-12);
}

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_EQ(meanOf({}), 0.0); }

TEST(Stats, GeomeanKnownValue) {
  EXPECT_NEAR(geomeanOf({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomeanOf({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, GeomeanOfEmptyIsOne) { EXPECT_EQ(geomeanOf({}), 1.0); }

TEST(Stats, QuantileInterpolates) {
  std::vector<double> V = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(quantileOf(V, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantileOf(V, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(medianOf(V), 25.0);
}

TEST(Stats, GiniOfEqualValuesIsZero) {
  EXPECT_NEAR(giniOf({3, 3, 3, 3}), 0.0, 1e-12);
}

TEST(Stats, GiniOfConcentratedIsHigh) {
  double G = giniOf({0, 0, 0, 0, 0, 0, 0, 0, 0, 100});
  EXPECT_GT(G, 0.85);
}

TEST(Stats, GiniOrdering) {
  EXPECT_LT(giniOf({5, 5, 5, 5}), giniOf({1, 2, 3, 14}));
}

TEST(Str, SplitKeepsEmptyFields) {
  auto Parts = splitString("a,,b", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[1], "");
}

TEST(Str, SplitSingleField) {
  auto Parts = splitString("abc", ',');
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_EQ(Parts[0], "abc");
}

TEST(Str, Trim) {
  EXPECT_EQ(trimString("  hi\t\n"), "hi");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("   "), "");
}

TEST(Str, StartsWith) {
  EXPECT_TRUE(startsWith("model GCN", "model"));
  EXPECT_FALSE(startsWith("mod", "model"));
}

TEST(Str, Join) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ","), "");
}

TEST(Str, FormatDouble) { EXPECT_EQ(formatDouble(1.23456, 2), "1.23"); }

TEST(Str, ParseDoubleDecimal) {
  double V = 0.0;
  EXPECT_TRUE(parseDouble("1.5", V));
  EXPECT_EQ(V, 1.5);
  EXPECT_TRUE(parseDouble("-2.25e2", V));
  EXPECT_EQ(V, -225.0);
  EXPECT_TRUE(parseDouble("+3", V));
  EXPECT_EQ(V, 3.0);
}

TEST(Str, ParseDoubleHexFloatRoundTrip) {
  // Deserializers rely on parsing the printf %a form back exactly.
  double Cases[] = {0.0, 1.0, -0.3333333333333333, 12.75, 1e-300};
  for (double Expected : Cases) {
    char Buffer[64];
    std::snprintf(Buffer, sizeof(Buffer), "%a", Expected);
    double Actual = 42.0;
    EXPECT_TRUE(parseDouble(Buffer, Actual)) << Buffer;
    EXPECT_EQ(Actual, Expected) << Buffer;
  }
  double V = 0.0;
  EXPECT_TRUE(parseDouble("-0x1.8p+3", V));
  EXPECT_EQ(V, -12.0);
}

TEST(Str, ParseDoubleRejectsMalformed) {
  double V = 0.0;
  EXPECT_FALSE(parseDouble("", V));
  EXPECT_FALSE(parseDouble(".", V));
  EXPECT_FALSE(parseDouble("1.5x", V));
  EXPECT_FALSE(parseDouble("0x", V));
  EXPECT_FALSE(parseDouble("--1", V));
  EXPECT_FALSE(parseDouble("1 ", V));
}

TEST(Str, SplitFieldsCollapsesRuns) {
  auto Fields = splitFields("  a\t\tbb  \n ccc ");
  ASSERT_EQ(Fields.size(), 3u);
  EXPECT_EQ(Fields[0], "a");
  EXPECT_EQ(Fields[1], "bb");
  EXPECT_EQ(Fields[2], "ccc");
  EXPECT_TRUE(splitFields("   ").empty());
  EXPECT_TRUE(splitFields("").empty());
}

TEST(Str, RenderTableAligns) {
  std::string T = renderTable({"name", "x"}, {{"long-name", "1"}, {"b", "22"}});
  EXPECT_NE(T.find("| name      | x  |"), std::string::npos);
  EXPECT_NE(T.find("| long-name | 1  |"), std::string::npos);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer T;
  volatile double Sink = 0.0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + I * 0.5;
  EXPECT_GT(T.seconds(), 0.0);
  double First = T.seconds();
  T.reset();
  EXPECT_LE(T.seconds(), First + 1.0);
}
