// Tests for the tooling layer: CSV trace I/O and the JSON report contract of
// the psl_lint analysis driver.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/driver.h"
#include "checker/trace_io.h"
#include "models/properties.h"
#include "models/testbench.h"
#include "support/json.h"

namespace repro {
namespace {

// ---- Trace CSV ----------------------------------------------------------------

TEST(TraceIo, ParsesWellFormedTrace) {
  auto trace = checker::parse_trace_csv(
      "time,ds,out\n"
      "10,1,0\n"
      "# comment line\n"
      "20,0,0x2A\n");
  ASSERT_TRUE(trace.ok()) << trace.error().to_string();
  ASSERT_EQ(trace.value().size(), 2u);
  EXPECT_EQ(trace.value()[0].time, 10u);
  EXPECT_EQ(trace.value()[0].values.value("ds"), 1u);
  EXPECT_EQ(trace.value()[1].time, 20u);
  EXPECT_EQ(trace.value()[1].values.value("out"), 42u);
}

TEST(TraceIo, RejectsBadHeader) {
  EXPECT_FALSE(checker::parse_trace_csv("ds,out\n10,1,0\n").ok());
  EXPECT_FALSE(checker::parse_trace_csv("time\n10\n").ok());
  EXPECT_FALSE(checker::parse_trace_csv("").ok());
}

TEST(TraceIo, RejectsWrongArity) {
  EXPECT_FALSE(checker::parse_trace_csv("time,a\n10,1,2\n").ok());
  EXPECT_FALSE(checker::parse_trace_csv("time,a,b\n10,1\n").ok());
}

TEST(TraceIo, RejectsNonIncreasingTime) {
  EXPECT_FALSE(checker::parse_trace_csv("time,a\n10,1\n10,0\n").ok());
  EXPECT_FALSE(checker::parse_trace_csv("time,a\n20,1\n10,0\n").ok());
}

TEST(TraceIo, RejectsMalformedValues) {
  EXPECT_FALSE(checker::parse_trace_csv("time,a\nten,1\n").ok());
  EXPECT_FALSE(checker::parse_trace_csv("time,a\n10,0xZZ\n").ok());
}

TEST(TraceIo, RoundTrips) {
  const char* text =
      "time,a,b\n"
      "10,1,100\n"
      "25,0,200\n";
  auto first = checker::parse_trace_csv(text);
  ASSERT_TRUE(first.ok());
  const std::string serialized = checker::to_csv(first.value());
  auto second = checker::parse_trace_csv(serialized);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().size(), 2u);
  EXPECT_EQ(second.value()[1].time, 25u);
  EXPECT_EQ(second.value()[1].values.value("b"), 200u);
}

// ---- psl_lint JSON report -------------------------------------------------------

// The analysis report psl_lint emits with --json (per unit) must round-trip
// through the in-repo JSON reader, with the documented schema fields. This
// builds the same Driver configuration psl_lint uses for `--suite des56`.
// The exit-code contract of the binary itself (0 on clean suites incl.
// --Werror-analysis, non-zero on a seeded defect) is covered by the ctest
// entries in tools/CMakeLists.txt.
TEST(PslLintAnalysisJson, SuiteReportRoundTripsThroughJsonReader) {
  const models::PropertySuite suite = models::des56_suite();
  analysis::AnalysisOptions options;
  options.abstraction.clock_period_ns = suite.clock_period_ns;
  options.abstraction.abstracted_signals = suite.abstracted_signals;
  options.rtl_observables =
      models::level_observables(models::Design::kDes56, models::Level::kRtl);
  options.tlm_observables =
      models::level_observables(models::Design::kDes56, models::Level::kTlmAt);
  analysis::Driver driver(options);
  for (const psl::RtlProperty& p : suite.properties) driver.analyze(p);

  std::ostringstream os;
  driver.write_json(os);
  std::string error;
  auto doc = support::json::parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("schema_version")->number, 1);
  EXPECT_EQ(doc->find("generator")->string, "analysis");
  EXPECT_EQ(doc->find("clock_period_ns")->number, 10);
  const support::json::Value* properties = doc->find("properties");
  ASSERT_NE(properties, nullptr);
  ASSERT_EQ(properties->array.size(), suite.properties.size());
  for (const support::json::Value& p : properties->array) {
    EXPECT_TRUE(p.find("name")->is_string());
    EXPECT_TRUE(p.find("classification")->is_string());
    EXPECT_EQ(p.find("audit")->string, "confirmed");
    ASSERT_NE(p.find("lifetime"), nullptr);
    EXPECT_NE(p.find("lifetime")->find("bounded"), nullptr);
    for (const support::json::Value& d : p.find("diagnostics")->array) {
      EXPECT_TRUE(d.find("code")->is_string());
      EXPECT_TRUE(d.find("severity")->is_string());
    }
  }
  // A clean suite lints with zero errors and zero warnings.
  EXPECT_EQ(doc->find("totals")->find("errors")->number, 0);
  EXPECT_EQ(doc->find("totals")->find("warnings")->number, 0);
}

}  // namespace
}  // namespace repro
