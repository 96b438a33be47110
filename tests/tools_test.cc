// Tests for the tooling layer: the JSON report contract of the psl_lint
// analysis driver.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/driver.h"
#include "models/properties.h"
#include "models/testbench.h"
#include "support/json.h"

namespace repro {
namespace {

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
