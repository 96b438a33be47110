// Coverage & vacuity telemetry tests: antecedent derivation (psl level and
// the compiled program's node-set mirror), the real/vacuous pass split on
// every checker backend, missed-deadline counting, the recycled-lane
// exercised bit, the CoverageTable and its JSON, the EvalEngine JSONL
// snapshot sampler, the schema_version 2 report coverage section, and the
// static-vs-dynamic cross-check (COV001/COV002).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "abv/eval_engine.h"
#include "abv/report.h"
#include "analysis/coverage_check.h"
#include "checker/batch.h"
#include "checker/checker.h"
#include "checker/instance.h"
#include "checker/program.h"
#include "checker/trace.h"
#include "psl/ast.h"
#include "psl/parser.h"
#include "support/coverage.h"
#include "tlm/transaction.h"

namespace repro::checker {
namespace {

using psl::ExprPtr;

ExprPtr parse(const std::string& text) {
  auto result = psl::parse_expr(text);
  EXPECT_TRUE(result.ok()) << text;
  return result.value();
}

psl::TlmProperty tlm_prop(const std::string& text) {
  auto result = psl::parse_tlm_property(text);
  EXPECT_TRUE(result.ok()) << text;
  return result.value();
}

// ---- Antecedent derivation ------------------------------------------------------

TEST(CoverageAntecedent, BooleanImplicationYieldsItsAntecedent) {
  const ExprPtr ant = derive_antecedent(parse("a -> next[1](b)"));
  ASSERT_NE(ant, nullptr);
  MapContext values;
  values.set("a", 1);
  EXPECT_TRUE(eval_boolean(ant, values));
  values.set("a", 0);
  EXPECT_FALSE(eval_boolean(ant, values));
}

TEST(CoverageAntecedent, GuardedOrYieldsNegatedGuard) {
  // NNF guard idiom: `!ds || temporal` passes vacuously exactly when the
  // boolean disjunct alone decided it, i.e. when ds is low.
  const ExprPtr ant = derive_antecedent(parse("!ds || next[1](rdy)"));
  ASSERT_NE(ant, nullptr);
  MapContext values;
  values.set("ds", 1);
  EXPECT_TRUE(eval_boolean(ant, values));
  values.set("ds", 0);
  EXPECT_FALSE(eval_boolean(ant, values));
}

TEST(CoverageAntecedent, NestedGuardsConjoin) {
  const ExprPtr ant = derive_antecedent(parse("a -> (!b || next[1](c))"));
  ASSERT_NE(ant, nullptr);
  MapContext values;
  values.set("a", 1);
  values.set("b", 1);
  EXPECT_TRUE(eval_boolean(ant, values));  // both guards fired
  values.set("b", 0);
  EXPECT_FALSE(eval_boolean(ant, values));
  values.set("a", 0);
  values.set("b", 1);
  EXPECT_FALSE(eval_boolean(ant, values));
}

TEST(CoverageAntecedent, NoGuardShapeYieldsNull) {
  EXPECT_EQ(derive_antecedent(parse("next[1](b)")), nullptr);
  EXPECT_EQ(derive_antecedent(parse("a && b")), nullptr);
  // Guards under a temporal operator are out of scope: the walk stops at
  // the first temporal node.
  EXPECT_EQ(derive_antecedent(parse("next[1](a -> b)")), nullptr);
  // Two temporal operands leave no boolean guard to split on.
  EXPECT_EQ(derive_antecedent(parse("next[1](a) || next[2](b)")), nullptr);
}

TEST(CoverageAntecedent, ProgramMirrorsAntecedentNodeSet) {
  const auto guarded = Program::compile(parse("a -> next[1](b)"));
  EXPECT_FALSE(guarded->antecedent_nodes().empty());
  std::ostringstream guarded_listing;
  guarded->dump(guarded_listing);
  EXPECT_NE(guarded_listing.str().find("| ant"), std::string::npos);

  const auto unguarded = Program::compile(parse("next[1](b)"));
  EXPECT_TRUE(unguarded->antecedent_nodes().empty());
  std::ostringstream unguarded_listing;
  unguarded->dump(unguarded_listing);
  EXPECT_EQ(unguarded_listing.str().find("| ant"), std::string::npos);
}

// ---- Real vs vacuous pass counting ----------------------------------------------

// Drives `always (a -> <op>(b))` so one activation passes with the
// antecedent fired (real) and one resolves trivially off a false antecedent
// (vacuous). `formula` picks the backend: next_e keeps the scalar program,
// next gets lockstep lanes.
void expect_vacuity_split(const char* formula, bool lanes) {
  PropertyChecker checker("p", parse(formula), nullptr);
  EXPECT_EQ(ProgramBatch::supported(*checker.program()), lanes) << formula;
  MapContext fired;
  fired.set("a", 1);
  fired.set("b", 0);
  MapContext idle;
  idle.set("a", 0);
  idle.set("b", 1);
  checker.on_event(10, fired);  // activates with antecedent fired
  checker.on_event(20, idle);   // resolves the first instance: b=1, real pass;
                                // activates a second with a=0: trivial, vacuous
  checker.finish();
  const CheckerStats& s = checker.stats();
  EXPECT_EQ(s.activations, 2u);
  EXPECT_EQ(s.failures, 0u);
  EXPECT_EQ(s.holds, 2u);
  EXPECT_EQ(s.real_passes, 1u);
  EXPECT_EQ(s.vacuous_passes, 1u);
  EXPECT_EQ(s.holds, s.real_passes + s.vacuous_passes);
  EXPECT_GT(s.node_visits, 0u);
}

TEST(CoverageVacuity, SplitOnCompiledScalarBackend) {
  expect_vacuity_split("always (a -> next_e[1,10](b))", /*lanes=*/false);
}

TEST(CoverageVacuity, SplitOnLockstepBackend) {
  expect_vacuity_split("always (a -> next[1](b))", /*lanes=*/true);
}

TEST(CoverageVacuity, UnguardedPropertyCountsEveryHoldAsReal) {
  PropertyChecker checker("p", parse("always (next[1](b))"), nullptr);
  MapContext values;
  values.set("b", 1);
  checker.on_event(10, values);
  checker.on_event(20, values);
  checker.finish();
  const CheckerStats& s = checker.stats();
  EXPECT_GT(s.holds, 0u);
  EXPECT_EQ(s.vacuous_passes, 0u);
  EXPECT_EQ(s.real_passes, s.holds);
}

// ---- Wrapper: missed deadlines and the split ------------------------------------

MapContext handshake(bool ds, bool rdy) {
  MapContext values;
  values.set("ds", ds ? 1 : 0);
  values.set("rdy", rdy ? 1 : 0);
  return values;
}

TEST(CoverageWrapper, CountsMissedDeadlinesAndVacuousPasses) {
  const psl::TlmProperty p = tlm_prop("w: always (!ds || next_e[1,20](rdy)) @Tb");
  PropertyChecker wrapper(p, 10);
  // ds at t=10 schedules a deadline at t=30; the next transaction arrives
  // long past it, so the evaluation-table pop counts a missed deadline.
  wrapper.on_event(10, handshake(true, false));
  wrapper.on_event(100, handshake(false, false));
  wrapper.finish();
  const CheckerStats& s = wrapper.stats();
  EXPECT_EQ(s.missed_deadlines, 1u);
  EXPECT_GT(s.failures, 0u);       // rdy never rose inside the window
  EXPECT_GT(s.vacuous_passes, 0u); // the ds=0 activation resolved trivially
  EXPECT_EQ(s.holds, s.real_passes + s.vacuous_passes);
}

TEST(CoverageWrapper, RealPassWhenConsequentExercised) {
  const psl::TlmProperty p = tlm_prop("w: always (!ds || next_e[1,20](rdy)) @Tb");
  PropertyChecker wrapper(p, 10);
  wrapper.on_event(10, handshake(true, false));
  wrapper.on_event(20, handshake(false, true));  // rdy inside the window
  wrapper.finish();
  const CheckerStats& s = wrapper.stats();
  EXPECT_EQ(s.failures, 0u);
  EXPECT_GE(s.real_passes, 1u);
  EXPECT_EQ(s.missed_deadlines, 0u);
  EXPECT_EQ(s.holds, s.real_passes + s.vacuous_passes);
}

// ---- Recycled lanes / instances forget the exercised bit ------------------------

TEST(CoverageExercisedBit, ScalarInstanceResetClearsIt) {
  const auto program = Program::compile(parse("a -> next[1](b)"));
  Instance instance(program);
  instance.set_exercised(true);
  EXPECT_TRUE(instance.exercised());
  instance.reset();
  EXPECT_FALSE(instance.exercised());
}

TEST(CoverageExercisedBit, RecycledLaneStartsNotExercised) {
  auto block = std::make_shared<BatchState>(
      std::make_shared<const ProgramBatch>(Program::compile(parse("a"))));
  const uint32_t lane = block->allocate_lane();
  block->set_exercised(lane, true);
  EXPECT_TRUE(block->exercised(lane));
  block->reset_lane(lane);
  EXPECT_FALSE(block->exercised(lane));
  // Neighbouring lanes are untouched by another lane's reset.
  const uint32_t other = block->allocate_lane();
  block->set_exercised(other, true);
  block->reset_lane(lane);
  EXPECT_TRUE(block->exercised(other));
}

// ---- CoverageTable --------------------------------------------------------------

TEST(CoverageTable, RowsAreStableAndSnapshotsCopyValues) {
  support::CoverageTable table;
  support::CoverageTable::Row& row = table.row("p1");
  EXPECT_EQ(&row, &table.row("p1"));  // create-on-first-use, stable reference
  row.activations.store(3, std::memory_order_relaxed);
  row.holds.store(2, std::memory_order_relaxed);
  row.real_passes.store(2, std::memory_order_relaxed);
  table.row("p2").failures.store(1, std::memory_order_relaxed);
  ASSERT_EQ(table.size(), 2u);

  const auto rows = table.snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "p1");
  EXPECT_EQ(rows[0].activations, 3u);
  EXPECT_FALSE(rows[0].dynamically_vacuous());
  EXPECT_EQ(rows[1].name, "p2");
  EXPECT_FALSE(rows[1].dynamically_vacuous());  // it failed: not vacuous
  EXPECT_TRUE(support::CoverageTable::RowSnapshot{}.dynamically_vacuous());
}

TEST(CoverageTable, WritesCompactSingleLineJson) {
  support::CoverageTable table;
  table.row("p\"q").holds.store(1, std::memory_order_relaxed);
  std::ostringstream os;
  table.write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"p\\\"q\""), std::string::npos);  // escaped
  EXPECT_NE(json.find("\"holds\":1"), std::string::npos);
  EXPECT_NE(json.find("\"dynamically_vacuous\":true"), std::string::npos);
}

// ---- EvalEngine JSONL snapshot sampler ------------------------------------------

std::vector<tlm::TransactionRecord> handshake_stream(size_t n) {
  static auto keys =
      std::make_shared<tlm::Snapshot::Keys>(tlm::Snapshot::Keys{"ds", "rdy"});
  std::vector<tlm::TransactionRecord> records;
  for (size_t i = 0; i < n; ++i) {
    tlm::TransactionRecord r;
    r.end = 10 * (i + 1);
    r.observables = tlm::Snapshot(keys);
    r.observables.set("ds", i % 2 == 0 ? 1 : 0);
    r.observables.set("rdy", i % 2 == 0 ? 0 : 1);
    records.push_back(std::move(r));
  }
  return records;
}

// Runs a tiny wrapper suite over `records` handshakes through the engine
// with the sampler on and returns the emitted JSONL lines.
std::vector<std::string> sample_run(size_t jobs, size_t interval,
                                    size_t records = 20) {
  const psl::TlmProperty p = tlm_prop("w: always (!ds || next_e[1,20](rdy)) @Tb");
  PropertyChecker wrapper(p, 10);
  support::CoverageTable coverage;
  wrapper.set_coverage(&coverage.row(wrapper.name()));
  std::ostringstream os;
  abv::EvalEngine::Options options;
  options.config.jobs = jobs;
  options.metrics_out = &os;
  options.metrics_interval = interval;
  options.coverage = &coverage;
  abv::EvalEngine engine(options);
  engine.add(&wrapper);
  for (const tlm::TransactionRecord& r : handshake_stream(records)) {
    engine.on_record(r);
  }
  engine.finish();

  std::vector<std::string> lines;
  std::istringstream in(os.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(CoverageSampler, EmitsPeriodicLinesAndExactFinalLine) {
  const std::vector<std::string> lines = sample_run(/*jobs=*/1, /*interval=*/5);
  // 20 records at interval 5 -> 4 mid-run lines + 1 final.
  ASSERT_EQ(lines.size(), 5u);
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"schema_version\":1"), std::string::npos) << i;
    EXPECT_NE(lines[i].find("\"seq\":" + std::to_string(i)), std::string::npos)
        << i;
    const bool last = i + 1 == lines.size();
    EXPECT_NE(lines[i].find(last ? "\"final\":true" : "\"final\":false"),
              std::string::npos)
        << i;
    EXPECT_NE(lines[i].find("\"metrics\":{"), std::string::npos) << i;
    EXPECT_NE(lines[i].find("\"coverage\":["), std::string::npos) << i;
  }
  EXPECT_NE(lines.back().find("\"records\":20"), std::string::npos);
}

TEST(CoverageSampler, ZeroIntervalEmitsOnlyTheFinalLine) {
  const std::vector<std::string> lines = sample_run(/*jobs=*/1, /*interval=*/0);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"final\":true"), std::string::npos);
}

// The final line is taken after every shard joined, so its coverage array is
// exact and identical across worker counts (mid-run lines may differ). The
// stream spans five engine batches, so the sharded run wraps the batch ring.
TEST(CoverageSampler, FinalCoverageIdenticalAcrossJobs) {
  auto final_coverage = [](size_t jobs) {
    const std::vector<std::string> lines =
        sample_run(jobs, /*interval=*/0, /*records=*/4500);
    EXPECT_EQ(lines.size(), 1u);
    const size_t at = lines.back().find("\"coverage\":");
    EXPECT_NE(at, std::string::npos);
    return lines.back().substr(at);
  };
  const std::string serial = final_coverage(1);
  EXPECT_EQ(serial, final_coverage(4));
}

// Pseudo-random records over {ds, rdy, data}.
std::vector<tlm::TransactionRecord> random_stream(size_t n) {
  auto keys = std::make_shared<const tlm::Snapshot::Keys>(
      tlm::Snapshot::Keys{"ds", "rdy", "data"});
  std::vector<tlm::TransactionRecord> records;
  uint64_t state = 99;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005u + 1442695040888963407u;
    const uint64_t bits = state >> 33;
    tlm::TransactionRecord r;
    r.end = 10 * (i + 1);
    r.observables = tlm::Snapshot(keys);
    r.observables.set("ds", bits & 1);
    r.observables.set("rdy", (bits >> 1) & 1);
    r.observables.set("data", (bits >> 2) & 7);
    records.push_back(std::move(r));
  }
  return records;
}

// Abstracted and unabstracted checkers sharing one serial engine.
struct SamplerSuite {
  std::vector<std::unique_ptr<PropertyChecker>> wrappers;
  std::vector<std::unique_ptr<PropertyChecker>> checkers;

  SamplerSuite() {
    for (const char* text : {"w1: always (!ds || next_e[1,20](rdy)) @Tb",
                             "w2: always (!ds || (!rdy until rdy)) @Tb",
                             "w3: always (!rdy || data < 6) @Tb"}) {
      wrappers.push_back(std::make_unique<PropertyChecker>(tlm_prop(text), 10));
    }
    checkers.push_back(std::make_unique<PropertyChecker>(
        "c1", parse("always (!ds || next[2](rdy))"), nullptr));
    checkers.push_back(std::make_unique<PropertyChecker>(
        "c2", parse("always (rdy -> next(data != 3))"), parse("ds || rdy")));
  }

  void add_to(abv::EvalEngine& engine, support::CoverageTable* coverage) {
    for (auto& w : wrappers) {
      if (coverage != nullptr) w->set_coverage(&coverage->row(w->name()));
      engine.add(w.get());
    }
    for (auto& c : checkers) {
      if (coverage != nullptr) c->set_coverage(&coverage->row(c->name()));
      engine.add(c.get());
    }
  }

  // The coverage array of the suite's current stats, serialized the way a
  // snapshot line carries it.
  std::string coverage_json() const {
    support::CoverageTable table;
    const auto fill = [&](const std::string& name, uint64_t activations,
                          uint64_t holds, uint64_t failures,
                          uint64_t uncompleted, uint64_t trivial, uint64_t real,
                          uint64_t vacuous, uint64_t missed, uint64_t visits) {
      support::CoverageTable::Row& row = table.row(name);
      row.activations = activations;
      row.holds = holds;
      row.failures = failures;
      row.uncompleted = uncompleted;
      row.trivial = trivial;
      row.real_passes = real;
      row.vacuous_passes = vacuous;
      row.missed_deadlines = missed;
      row.node_visits = visits;
    };
    for (const auto& w : wrappers) {
      const CheckerStats& s = w->stats();
      fill(w->name(), s.activations, s.holds, s.failures, s.uncompleted,
           s.trivial, s.real_passes, s.vacuous_passes, s.missed_deadlines,
           s.node_visits);
    }
    for (const auto& c : checkers) {
      const CheckerStats& s = c->stats();
      fill(c->name(), s.activations, s.holds, s.failures, s.uncompleted,
           s.trivial, s.real_passes, s.vacuous_passes, 0, s.node_visits);
    }
    std::ostringstream os;
    table.write_json(os);
    return os.str();
  }
};

// At jobs 1 a mid-run line is exact: the coverage array of line i equals the
// coverage of a run over the first i*k records, read at its end.
TEST(CoverageSampler, SerialMidRunLinesEqualTruncatedRuns) {
  const size_t interval = 7;
  const std::vector<tlm::TransactionRecord> records = random_stream(90);
  std::vector<std::string> lines;
  {
    SamplerSuite suite;
    support::CoverageTable coverage;
    std::ostringstream os;
    abv::EvalEngine::Options options;
    options.metrics_out = &os;
    options.metrics_interval = interval;
    options.coverage = &coverage;
    abv::EvalEngine engine(options);
    suite.add_to(engine, &coverage);
    for (const tlm::TransactionRecord& r : records) engine.on_record(r);
    engine.finish();
    std::istringstream in(os.str());
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  const size_t mid_run = records.size() / interval;
  ASSERT_EQ(lines.size(), mid_run + 1);
  for (size_t i = 1; i <= mid_run; ++i) {
    SamplerSuite prefix;
    abv::EvalEngine engine(abv::EvalEngine::Options{});
    prefix.add_to(engine, nullptr);
    engine.on_records(records.data(), records.data() + i * interval);
    const std::string& line = lines[i - 1];
    const size_t at = line.find("\"coverage\":");
    ASSERT_NE(at, std::string::npos);
    // The line ends with the coverage array and the closing brace.
    EXPECT_EQ(line.substr(at + 11, line.size() - at - 12),
              prefix.coverage_json())
        << "line " << i - 1;
    engine.finish();
  }
}

// ---- Report schema v2 -----------------------------------------------------------

TEST(CoverageReport, JsonCarriesCoverageSectionAndPrintTheSplitColumns) {
  PropertyChecker checker("p", parse("always (a -> next[1](b))"), nullptr);
  MapContext values;
  values.set("a", 0);
  values.set("b", 0);
  checker.on_event(10, values);
  checker.finish();
  abv::Report report;
  report.add(checker);

  std::ostringstream json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.str().find("\"coverage\": ["), std::string::npos);
  EXPECT_NE(json.str().find("\"vacuous_passes\""), std::string::npos);
  EXPECT_NE(json.str().find("\"dynamically_vacuous\": true"), std::string::npos);
  EXPECT_NE(json.str().find("\"latency_ns\""), std::string::npos);

  std::ostringstream table;
  report.print(table);
  EXPECT_NE(table.str().find("real"), std::string::npos);
  EXPECT_NE(table.str().find("vacuous"), std::string::npos);
}

// ---- Static-vs-dynamic cross-check ----------------------------------------------

analysis::DynamicCoverage observed(const std::string& name, uint64_t activations,
                                   uint64_t failures, uint64_t real,
                                   uint64_t vacuous) {
  analysis::DynamicCoverage c;
  c.property = name;
  c.activations = activations;
  c.failures = failures;
  c.real_passes = real;
  c.vacuous_passes = vacuous;
  return c;
}

analysis::Diagnostic static_vacuity(const std::string& code,
                                    const std::string& property) {
  analysis::Diagnostic d;
  d.code = code;
  d.severity = analysis::Severity::kWarning;
  d.property = property;
  d.check = "bool-semantics";
  return d;
}

TEST(CoverageCrossCheck, FlagsDynamicallyVacuousWhenStaticallyClean) {
  const auto diags = analysis::cross_check_coverage(
      {}, {observed("p", 5, 0, 0, 5), observed("q", 0, 0, 0, 0)});
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].code, "COV001");
  EXPECT_EQ(diags[0].property, "p");
  EXPECT_NE(diags[0].message.find("vacuously"), std::string::npos);
  EXPECT_EQ(diags[1].code, "COV001");
  EXPECT_NE(diags[1].message.find("never activated"), std::string::npos);
}

TEST(CoverageCrossCheck, FlagsExercisedWhenStaticallyVacuous) {
  const auto diags = analysis::cross_check_coverage(
      {static_vacuity("SEM003", "p")}, {observed("p", 5, 1, 2, 2)});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "COV002");
  EXPECT_EQ(diags[0].property, "p");
}

TEST(CoverageCrossCheck, AgreementProducesNoDiagnostics) {
  // Statically vacuous and dynamically vacuous: consistent. Statically
  // clean and dynamically exercised: consistent. Non-vacuity codes on a
  // dynamically vacuous property do not count as a prediction.
  EXPECT_TRUE(analysis::cross_check_coverage({static_vacuity("SEM003", "p")},
                                             {observed("p", 5, 0, 0, 5)})
                  .empty());
  EXPECT_TRUE(
      analysis::cross_check_coverage({}, {observed("p", 5, 0, 5, 0)}).empty());
  const auto diags = analysis::cross_check_coverage(
      {static_vacuity("SIZ001", "p")}, {observed("p", 5, 0, 0, 5)});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "COV001");  // SIZ001 is not a vacuity prediction
}

}  // namespace
}  // namespace repro::checker
