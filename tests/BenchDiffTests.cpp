//===- BenchDiffTests.cpp - Tests for granii-bench-diff ----------------------===//

#include "BenchDiff.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace granii::benchdiff;

namespace {

/// Writes a granii-bench-v1 report with the given benchmark entries (JSON
/// object bodies without braces) and returns its path.
std::string writeReport(const std::string &Name,
                        const std::vector<std::string> &Entries) {
  std::string Path = ::testing::TempDir() + "/" + Name;
  std::ofstream Out(Path);
  Out << "{\"schema\": \"granii-bench-v1\", \"git_sha\": \"test\", "
         "\"threads\": 1, \"benchmarks\": [";
  for (size_t I = 0; I < Entries.size(); ++I)
    Out << (I ? ", " : "") << "{" << Entries[I] << "}";
  Out << "]}\n";
  return Path;
}

std::string entry(const std::string &Id, double Median,
                  const std::string &Extra = "") {
  std::string E = "\"id\": \"" + Id + "\", \"median_seconds\": " +
                  std::to_string(Median) + ", \"p10_seconds\": " +
                  std::to_string(Median) + ", \"p90_seconds\": " +
                  std::to_string(Median);
  if (!Extra.empty())
    E += ", " + Extra;
  return E;
}

} // namespace

TEST(BenchDiff, UsageWithoutTwoFiles) {
  std::string Out, Err;
  EXPECT_EQ(runBenchDiff({}, Out, Err), 2);
  EXPECT_NE(Err.find("usage"), std::string::npos);
}

TEST(BenchDiff, IdenticalReportsPass) {
  std::string Base = writeReport("bd_base1.json", {entry("a", 1.0)});
  std::string Head = writeReport("bd_head1.json", {entry("a", 1.0)});
  std::string Out, Err;
  EXPECT_EQ(runBenchDiff({Base, Head}, Out, Err), 0) << Err;
  EXPECT_NE(Out.find("0 regression(s)"), std::string::npos);
}

TEST(BenchDiff, ImprovementPassesAndIsReported) {
  std::string Base = writeReport("bd_base2.json", {entry("a", 1.0)});
  std::string Head = writeReport("bd_head2.json", {entry("a", 0.5)});
  std::string Out, Err;
  EXPECT_EQ(runBenchDiff({Base, Head}, Out, Err), 0) << Err;
  EXPECT_NE(Out.find("improved"), std::string::npos);
  EXPECT_NE(Out.find("1 improvement(s)"), std::string::npos);
}

TEST(BenchDiff, RegressionBeyondThresholdFails) {
  std::string Base = writeReport("bd_base3.json", {entry("a", 1.0)});
  std::string Head = writeReport("bd_head3.json", {entry("a", 1.25)});
  std::string Out, Err;
  EXPECT_EQ(runBenchDiff({Base, Head}, Out, Err), 1);
  EXPECT_NE(Out.find("REGRESSED"), std::string::npos);
  EXPECT_NE(Err.find("regressed beyond the threshold"), std::string::npos);
}

TEST(BenchDiff, RegressionWithinThresholdPasses) {
  std::string Base = writeReport("bd_base4.json", {entry("a", 1.0)});
  std::string Head = writeReport("bd_head4.json", {entry("a", 1.05)});
  std::string Out, Err;
  EXPECT_EQ(runBenchDiff({Base, Head}, Out, Err), 0) << Err;
}

TEST(BenchDiff, GlobalThresholdFlagOverrides) {
  std::string Base = writeReport("bd_base5.json", {entry("a", 1.0)});
  std::string Head = writeReport("bd_head5.json", {entry("a", 1.05)});
  std::string Out, Err;
  EXPECT_EQ(runBenchDiff({Base, Head, "--threshold=0.02"}, Out, Err), 1);
}

TEST(BenchDiff, PerRecordThresholdOverridesGlobal) {
  std::string Base =
      writeReport("bd_base6.json", {entry("a", 1.0, "\"threshold\": 0.5")});
  std::string Head = writeReport("bd_head6.json", {entry("a", 1.3)});
  std::string Out, Err;
  // +30% is beyond the 10% default but within the record's own 50%.
  EXPECT_EQ(runBenchDiff({Base, Head}, Out, Err), 0) << Err;
}

TEST(BenchDiff, UngatedRecordsReportButNeverFail) {
  std::string Base =
      writeReport("bd_base7.json", {entry("a", 1.0, "\"gate\": false")});
  std::string Head = writeReport("bd_head7.json", {entry("a", 3.0)});
  std::string Out, Err;
  EXPECT_EQ(runBenchDiff({Base, Head}, Out, Err), 0) << Err;
  EXPECT_NE(Out.find("regressed (ungated)"), std::string::npos);
}

TEST(BenchDiff, NoisySamplesWidenTheGate) {
  // Baseline spread (p90 - p10) / median = 40%: a +20% median delta is
  // within the noise floor even though it exceeds the 10% default.
  std::string Base = writeReport(
      "bd_base8.json", {"\"id\": \"a\", \"median_seconds\": 1.0, "
                        "\"p10_seconds\": 0.8, \"p90_seconds\": 1.2"});
  std::string Head = writeReport("bd_head8.json", {entry("a", 1.2)});
  std::string Out, Err;
  EXPECT_EQ(runBenchDiff({Base, Head}, Out, Err), 0) << Err;
}

TEST(BenchDiff, MismatchedSetsAreReported) {
  std::string Base = writeReport("bd_base9.json",
                                 {entry("a", 1.0), entry("gone", 1.0)});
  std::string Head = writeReport("bd_head9.json",
                                 {entry("a", 1.0), entry("new", 1.0)});
  std::string Out, Err;
  EXPECT_EQ(runBenchDiff({Base, Head}, Out, Err), 0) << Err;
  EXPECT_NE(Err.find("'gone' in baseline but missing from head"),
            std::string::npos);
  EXPECT_NE(Err.find("'new' in head but missing from baseline"),
            std::string::npos);
}

TEST(BenchDiff, MultipleHeadFilesUnion) {
  std::string Base = writeReport("bd_base10.json",
                                 {entry("a", 1.0), entry("b", 1.0)});
  std::string HeadA = writeReport("bd_heada.json", {entry("a", 1.0)});
  std::string HeadB = writeReport("bd_headb.json", {entry("b", 2.0)});
  std::string Out, Err;
  // The union covers both records; b regresses.
  EXPECT_EQ(runBenchDiff({Base, HeadA, HeadB}, Out, Err), 1);
  EXPECT_NE(Out.find("compared 2 benchmark(s)"), std::string::npos);
}

TEST(BenchDiff, RejectsMalformedAndWrongSchema) {
  std::string Bad = ::testing::TempDir() + "/bd_bad.json";
  {
    std::ofstream Out(Bad);
    Out << "{not json";
  }
  std::string Wrong = ::testing::TempDir() + "/bd_wrong.json";
  {
    std::ofstream Out(Wrong);
    Out << "{\"schema\": \"v0\", \"benchmarks\": []}";
  }
  std::string Good = writeReport("bd_good.json", {entry("a", 1.0)});
  std::string Out, Err;
  EXPECT_EQ(runBenchDiff({Bad, Good}, Out, Err), 2);
  Err.clear();
  EXPECT_EQ(runBenchDiff({Good, Wrong}, Out, Err), 2);
  EXPECT_NE(Err.find("unsupported schema"), std::string::npos);
  Err.clear();
  EXPECT_EQ(runBenchDiff({Good, "/nonexistent/x.json"}, Out, Err), 2);
}

TEST(BenchDiff, UnknownOptionRejected) {
  std::string Out, Err;
  EXPECT_EQ(runBenchDiff({"--frobnicate"}, Out, Err), 2);
  EXPECT_NE(Err.find("unknown option"), std::string::npos);
}
