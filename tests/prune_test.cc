// Analysis-guided runtime pruning (analysis/prune.h + the abv/models
// integration): planner classification on the bundled suites and synthetic
// corner cases, subsumption edge cases (mutual implication, chains, the BDD
// atom cap), guard containment and context-key gating, specialization
// folding, plan JSON, and the end-to-end verdict-equivalence contract
// (pruned vs unpruned reports at jobs 1 and 4 on both designs).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "abv/report.h"
#include "analysis/prune.h"
#include "models/properties.h"
#include "models/testbench.h"
#include "psl/ast.h"
#include "psl/parser.h"

namespace repro::analysis {
namespace {

std::vector<PruneInput> inputs_from(const std::string& text) {
  auto parsed = psl::parse_rtl_property_file(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error().message;
  std::vector<PruneInput> inputs;
  for (const auto& p : parsed.value()) inputs.push_back(make_prune_input(p));
  return inputs;
}

std::vector<PruneInput> suite_inputs(const models::PropertySuite& suite) {
  std::vector<PruneInput> inputs;
  for (const auto& p : suite.properties) inputs.push_back(make_prune_input(p));
  return inputs;
}

const PruneDecision& decision(const PrunePlan& plan, const std::string& name) {
  const PruneDecision* d = plan.find(name);
  EXPECT_NE(d, nullptr) << name;
  static const PruneDecision missing;
  return d != nullptr ? *d : missing;
}

// ---- Mode parsing ---------------------------------------------------------------

TEST(PruneMode, ParsesKnownModesAndRejectsGarbage) {
  PruneMode mode = PruneMode::kAggressive;
  EXPECT_TRUE(parse_prune_mode("off", mode));
  EXPECT_EQ(mode, PruneMode::kOff);
  EXPECT_TRUE(parse_prune_mode("safe", mode));
  EXPECT_EQ(mode, PruneMode::kSafe);
  EXPECT_TRUE(parse_prune_mode("aggressive", mode));
  EXPECT_EQ(mode, PruneMode::kAggressive);
  EXPECT_FALSE(parse_prune_mode("", mode));
  EXPECT_FALSE(parse_prune_mode("Safe", mode));
  EXPECT_FALSE(parse_prune_mode("on", mode));
}

// ---- Static verdicts (elision) --------------------------------------------------

TEST(PruneStatic, ElidesTautologies) {
  const auto plan = build_prune_plan(
      inputs_from("t1: always (rdy || !rdy) @clk_pos;\n"
                  "t2: always (ds -> ds) @clk_pos;\n"
                  "t3: always ((a && b) -> a) @clk_pos;"),
      PruneMode::kSafe);
  EXPECT_EQ(plan.elided(), 3u);
  EXPECT_EQ(plan.live(), 0u);
  for (const char* name : {"t1", "t2", "t3"}) {
    const auto& d = decision(plan, name);
    EXPECT_EQ(d.action, PruneAction::kElide) << name;
    EXPECT_TRUE(d.static_verdict) << name;
  }
}

TEST(PruneStatic, ElidesTemporalFormulasThatCannotFail) {
  // Weak operators over tautological obligations, and strong eventualities
  // with a guaranteed witness, never produce a failure.
  const auto plan = build_prune_plan(
      inputs_from("w1: always (next[3](a || !a)) @clk_pos;\n"
                  "w2: always (a until (b || !b)) @clk_pos;\n"
                  "s1: eventually! (rdy || !rdy) @clk_pos;\n"
                  "s2: always (a until! (b -> b)) @clk_pos;"),
      PruneMode::kSafe);
  EXPECT_EQ(plan.elided(), 4u);
}

TEST(PruneStatic, KeepsStrongObligationsWithoutGuaranteedWitness) {
  // `eventually! rdy` can fail on a trace where rdy never rises; the
  // deadline form can miss its window. Neither may be elided.
  const auto plan = build_prune_plan(
      inputs_from("e1: eventually! rdy @clk_pos;\n"
                  "e2: always (ds -> next_e[1,40](rdy)) @clk_pos;"),
      PruneMode::kSafe);
  EXPECT_EQ(decision(plan, "e1").action, PruneAction::kLive);
  EXPECT_EQ(decision(plan, "e2").action, PruneAction::kLive);
}

TEST(PruneStatic, ContradictionStaysLiveInSafeMode) {
  const auto plan = build_prune_plan(
      inputs_from("bad: always (rdy && !rdy) @clk_pos;"), PruneMode::kSafe);
  EXPECT_EQ(decision(plan, "bad").action, PruneAction::kLive);
}

TEST(PruneStatic, AggressiveElidesContradictionWithDerivedFailure) {
  const auto plan =
      build_prune_plan(inputs_from("bad: always (rdy && !rdy) @clk_pos;"),
                       PruneMode::kAggressive);
  const auto& d = decision(plan, "bad");
  EXPECT_EQ(d.action, PruneAction::kElide);
  EXPECT_FALSE(d.static_verdict);
}

// ---- Subsumption ----------------------------------------------------------------

TEST(PruneSubsume, ChainKeepsOnlyTheStrongestLive) {
  // a => b => c pointwise; only a survives and both others name it (the
  // minimal *live* entailer), not each other.
  const auto plan = build_prune_plan(
      inputs_from("c: always (!ds || rdy || err) @clk_pos;\n"
                  "b: always (!ds || rdy) @clk_pos;\n"
                  "a: always (!ds || (rdy && !err)) @clk_pos;"),
      PruneMode::kSafe);
  EXPECT_EQ(plan.live(), 1u);
  EXPECT_EQ(plan.subsumed(), 2u);
  EXPECT_EQ(decision(plan, "a").action, PruneAction::kLive);
  EXPECT_EQ(decision(plan, "b").subsumed_by, "a");
  EXPECT_EQ(decision(plan, "c").subsumed_by, "a");
}

TEST(PruneSubsume, MutualImplicationKeepsDeterministicSurvivor) {
  // Structurally different but propositionally equivalent formulas form a
  // mutual-implication class; the first-registered member survives.
  const auto plan = build_prune_plan(
      inputs_from("first: always (!ds || rdy) @clk_pos;\n"
                  "second: always (ds -> rdy) @clk_pos;\n"
                  "third: always (!(ds && !rdy)) @clk_pos;"),
      PruneMode::kSafe);
  EXPECT_EQ(plan.live(), 1u);
  EXPECT_EQ(decision(plan, "first").action, PruneAction::kLive);
  EXPECT_EQ(decision(plan, "second").subsumed_by, "first");
  EXPECT_EQ(decision(plan, "third").subsumed_by, "first");
}

TEST(PruneSubsume, GuardContainmentRequired) {
  // Same formula; the guarded property evaluates at a subset of the
  // unguarded one's points, so only guarded-subsumed-by-unguarded holds.
  const auto plan = build_prune_plan(
      inputs_from("narrow: always (!ds || rdy) @clk_pos && monitor_en;\n"
                  "wide: always (!ds || rdy) @clk_pos;"),
      PruneMode::kSafe);
  EXPECT_EQ(decision(plan, "wide").action, PruneAction::kLive);
  EXPECT_EQ(decision(plan, "narrow").action, PruneAction::kSubsumed);
  EXPECT_EQ(decision(plan, "narrow").subsumed_by, "wide");
}

TEST(PruneSubsume, ContextKeyMismatchBlocksSubsumption) {
  const auto plan = build_prune_plan(
      inputs_from("pos: always (!ds || rdy) @clk_pos;\n"
                  "neg: always (!ds || rdy) @clk_neg;"),
      PruneMode::kSafe);
  EXPECT_EQ(plan.live(), 2u);
  EXPECT_EQ(plan.subsumed(), 0u);
}

TEST(PruneSubsume, AtomCapForcesLiveWithDiagnostic) {
  // 6 distinct atoms with atom_cap 3: the BDD layer answers kCapped, the
  // property must stay live (never prune on an inconclusive analysis) and
  // the skip is surfaced as PRN004.
  const auto plan = build_prune_plan(
      inputs_from(
          "big: always ((a1 && a2 && a3 && a4 && a5) -> a1) @clk_pos;\n"
          "other: always ((a1 && a2 && a3 && a4 && a5) -> a1) @clk_pos;"),
      PruneMode::kSafe, /*atom_cap=*/3);
  EXPECT_EQ(plan.live(), 2u);
  EXPECT_TRUE(decision(plan, "big").capped);
  bool saw_prn004 = false;
  for (const auto& d : plan.diagnostics()) {
    if (d.code == "PRN004") saw_prn004 = true;
    EXPECT_NE(d.severity, Severity::kError) << d.code;
  }
  EXPECT_TRUE(saw_prn004);
}

// ---- Specialization -------------------------------------------------------------

TEST(PruneSpecialize, FoldsGuardImpliedAtomsAtTheAnchor) {
  const auto plan = build_prune_plan(
      inputs_from("g: always (!ds || next[2](rdy)) @clk_pos && ds;"),
      PruneMode::kSafe);
  const auto& d = decision(plan, "g");
  ASSERT_EQ(d.action, PruneAction::kLive);
  ASSERT_NE(d.specialized, nullptr);
  // ds holds at every activation, so `!ds` folds to false and the
  // disjunction collapses to the temporal obligation.
  EXPECT_EQ(psl::to_string(d.specialized), "always next[2](rdy)");
}

TEST(PruneSpecialize, LeavesAtomsBelowTemporalOperatorsAlone) {
  // The guard only holds at the activation anchor; `ds` under next[2]
  // evaluates two events later and must not be folded.
  const auto plan = build_prune_plan(
      inputs_from("g: always (next[2](ds || rdy)) @clk_pos && ds;"),
      PruneMode::kSafe);
  EXPECT_EQ(decision(plan, "g").specialized, nullptr);
}

// ---- Bundled suites -------------------------------------------------------------

TEST(PruneGolden, Des56SuiteSubsumesP7UnderP3) {
  const auto plan =
      build_prune_plan(suite_inputs(models::des56_suite()), PruneMode::kSafe);
  EXPECT_EQ(plan.elided(), 0u);
  EXPECT_EQ(plan.subsumed(), 1u);
  EXPECT_EQ(plan.live(), 8u);
  EXPECT_EQ(decision(plan, "p7").action, PruneAction::kSubsumed);
  EXPECT_EQ(decision(plan, "p7").subsumed_by, "p3");
  // The strong eventuality has no guaranteed witness: live.
  EXPECT_EQ(decision(plan, "p9").action, PruneAction::kLive);
}

TEST(PruneGolden, ColorConvSuiteSubsumesC1UnderC6) {
  const auto plan = build_prune_plan(suite_inputs(models::colorconv_suite()),
                                     PruneMode::kSafe);
  EXPECT_EQ(plan.elided(), 0u);
  EXPECT_EQ(plan.subsumed(), 1u);
  EXPECT_EQ(plan.live(), 11u);
  EXPECT_EQ(decision(plan, "c1").subsumed_by, "c6");
}

// ---- Plan structure, diagnostics, JSON ------------------------------------------

TEST(PrunePlan, OffModeKeepsEverythingLiveWithoutAnalysis) {
  const auto plan = build_prune_plan(suite_inputs(models::des56_suite()),
                                     PruneMode::kOff);
  EXPECT_EQ(plan.live(), plan.decisions.size());
  EXPECT_TRUE(plan.diagnostics().empty());
}

TEST(PrunePlan, DiagnosticsCarryPrnCodes) {
  const auto plan = build_prune_plan(
      inputs_from("t: always (rdy || !rdy) @clk_pos;\n"
                  "a: always (!ds || (rdy && !err)) @clk_pos;\n"
                  "b: always (!ds || rdy) @clk_pos;"),
      PruneMode::kSafe);
  std::map<std::string, std::string> by_code;
  for (const auto& d : plan.diagnostics()) by_code[d.code] = d.property;
  EXPECT_EQ(by_code["PRN001"], "t");
  EXPECT_EQ(by_code["PRN002"], "b");
}

TEST(PrunePlan, WriteJsonEmitsSchemaAndDecisions) {
  std::ostringstream os;
  build_prune_plan(suite_inputs(models::des56_suite()), PruneMode::kSafe)
      .write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"safe\""), std::string::npos);
  EXPECT_NE(json.find("\"live\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"subsumed\": 1"), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"p7\", \"action\": \"subsumed\", "
                      "\"subsumed_by\": \"p3\""),
            std::string::npos);
}

// ---- End-to-end verdict equivalence ---------------------------------------------

std::map<std::string, bool> verdicts(const abv::Report& report) {
  std::map<std::string, bool> out;
  for (const auto& p : report.properties()) out[p.name] = p.ok();
  return out;
}

const abv::PropertyReport* find_row(const abv::Report& report,
                                    const std::string& name) {
  for (const auto& p : report.properties()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

models::RunConfig base_config(models::Design design, models::Level level,
                              size_t jobs) {
  models::RunConfig config;
  config.design = design;
  config.level = level;
  config.checkers = 16;  // clamped to the suite size
  config.workload = 300;
  config.engine.jobs = jobs;
  return config;
}

void expect_verdict_equivalence(models::Design design, models::Level level,
                                size_t jobs) {
  models::RunConfig plain = base_config(design, level, jobs);
  models::RunConfig pruned = plain;
  pruned.analysis.prune = PruneMode::kSafe;

  const models::RunResult a = models::run_simulation(plain);
  const models::RunResult b = models::run_simulation(pruned);
  ASSERT_TRUE(a.functional_ok);
  ASSERT_TRUE(b.functional_ok);
  // Derived, never dropped: every property has a row on both sides with the
  // same verdict, and the run verdicts agree.
  EXPECT_EQ(verdicts(a.report), verdicts(b.report))
      << models::to_string(design) << "/" << models::to_string(level)
      << " jobs=" << jobs;
  EXPECT_EQ(a.report.all_ok(), b.report.all_ok());
  EXPECT_EQ(a.properties_ok, b.properties_ok);
}

TEST(PruneEquivalence, Des56VerdictsIdenticalAcrossLevelsAndJobs) {
  expect_verdict_equivalence(models::Design::kDes56, models::Level::kRtl, 1);
  expect_verdict_equivalence(models::Design::kDes56, models::Level::kTlmCa, 1);
  expect_verdict_equivalence(models::Design::kDes56, models::Level::kTlmAt, 1);
  expect_verdict_equivalence(models::Design::kDes56, models::Level::kTlmAt, 4);
}

TEST(PruneEquivalence, ColorConvVerdictsIdenticalAcrossLevelsAndJobs) {
  expect_verdict_equivalence(models::Design::kColorConv, models::Level::kRtl,
                             1);
  expect_verdict_equivalence(models::Design::kColorConv, models::Level::kTlmCa,
                             1);
  expect_verdict_equivalence(models::Design::kColorConv, models::Level::kTlmAt,
                             1);
  expect_verdict_equivalence(models::Design::kColorConv, models::Level::kTlmAt,
                             4);
}

TEST(PruneEquivalence, PrunedRunReducesLiveCheckersButKeepsAllRows) {
  models::RunConfig config =
      base_config(models::Design::kDes56, models::Level::kTlmAt, 1);
  config.analysis.prune = PruneMode::kSafe;
  const models::RunResult result = models::run_simulation(config);
  ASSERT_TRUE(result.properties_ok);
  EXPECT_EQ(result.prune_plan.subsumed(), 1u);
  const auto* p7 = find_row(result.report, "p7");
  ASSERT_NE(p7, nullptr);
  EXPECT_EQ(p7->prune, "subsumed");
  EXPECT_EQ(p7->derived_from, "p3");
  EXPECT_EQ(p7->activations, 0u);  // never spawned
  EXPECT_TRUE(p7->ok());
  // Every suite property still has a row.
  EXPECT_EQ(result.report.properties().size(),
            models::des56_suite().properties.size());
}

TEST(PruneEquivalence, AggressiveDerivedFailurePreservesRunVerdict) {
  // A contradiction injected via extra_properties fails when simulated and
  // is elided with a derived failure when pruned aggressively; the run
  // verdict must be false either way, through either environment.
  auto bad = psl::parse_rtl_property_file(
      "xfail: always (ds && !ds) @clk_pos;");
  ASSERT_TRUE(bad.ok());
  for (const auto level : {models::Level::kTlmCa, models::Level::kRtl}) {
    models::RunConfig plain = base_config(models::Design::kDes56, level, 1);
    plain.extra_properties = bad.value();
    models::RunConfig pruned = plain;
    pruned.analysis.prune = PruneMode::kAggressive;

    const models::RunResult a = models::run_simulation(plain);
    const models::RunResult b = models::run_simulation(pruned);
    EXPECT_FALSE(a.properties_ok) << models::to_string(level);
    EXPECT_FALSE(b.properties_ok) << models::to_string(level);
    EXPECT_EQ(verdicts(a.report), verdicts(b.report)) << models::to_string(level);
    const auto* row = find_row(b.report, "xfail");
    ASSERT_NE(row, nullptr) << models::to_string(level);
    EXPECT_EQ(row->prune, "elide");
    EXPECT_EQ(row->derived_from, "static");
    EXPECT_FALSE(row->ok());
  }
}

TEST(PruneEquivalence, CrossCheckAuditIsCleanOnBundledSuites) {
  // analysis=error keeps pruned checkers running and cross-checks every
  // derived verdict; on the bundled suites no PRN003 may fire, at TLM-AT
  // (sharded) or at RTL.
  for (const auto design :
       {models::Design::kDes56, models::Design::kColorConv}) {
    for (const auto level : {models::Level::kTlmAt, models::Level::kRtl}) {
      models::RunConfig config =
          base_config(design, level, level == models::Level::kRtl ? 1 : 2);
      config.analysis = models::AnalysisMode::kError;
      config.analysis.prune = PruneMode::kSafe;
      const models::RunResult result = models::run_simulation(config);
      EXPECT_TRUE(result.analysis_ok)
          << models::to_string(design) << "/" << models::to_string(level);
      for (const auto& d : result.analysis_diagnostics) {
        EXPECT_NE(d.code, "PRN003") << d.message;
      }
      // Audit mode spawns everything: real counters on every row.
      for (const abv::PropertyReport& p : result.report.properties()) {
        EXPECT_TRUE(p.prune.empty()) << p.name;
      }
      const auto* p7 = find_row(result.report, "p7");
      if (design == models::Design::kDes56) {
        ASSERT_NE(p7, nullptr);
        EXPECT_GT(p7->activations, 0u);
      }
    }
  }
}

TEST(PruneEquivalence, PlanJsonWrittenWhenPathConfigured) {
  models::RunConfig config =
      base_config(models::Design::kDes56, models::Level::kTlmAt, 1);
  config.analysis.prune = PruneMode::kSafe;
  config.observability.prune_plan_path =
      ::testing::TempDir() + "/prune_plan.json";
  const models::RunResult result = models::run_simulation(config);
  ASSERT_TRUE(result.properties_ok);
  std::ifstream in(config.observability.prune_plan_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"subsumed_by\": \"p3\""), std::string::npos);
}

}  // namespace
}  // namespace repro::analysis
