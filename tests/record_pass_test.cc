// Per-record work shared by every property of an environment must not leak
// between properties: each property's report row is the same whether it is
// checked alone or inside the full suite, at every level and evaluation job
// count, across a dictionary change, and a dictionary lacking observables
// names the same property and observable at RTL and at TLM.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "abv/report.h"
#include "abv/rtl_env.h"
#include "abv/snapshot_context.h"
#include "abv/tlm_env.h"
#include "checker/record_pass.h"
#include "checker/checker.h"
#include "models/testbench.h"
#include "psl/parser.h"
#include "tlm/transaction.h"

namespace repro {
namespace {

// One report row as the report serializes it: counters, failure log with
// witnesses, coverage and the latency histogram.
std::string row_json(const abv::PropertyReport& row) {
  abv::Report one;
  one.add_derived(row);
  std::ostringstream os;
  one.write_json(os);
  return os.str();
}

std::map<std::string, std::string> rows_by_name(const abv::Report& report) {
  std::map<std::string, std::string> rows;
  for (const abv::PropertyReport& row : report.properties()) {
    rows[row.name] = row_json(row);
  }
  return rows;
}

psl::RtlProperty rtl_prop(const std::string& text) {
  auto parsed = psl::parse_rtl_property(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return std::move(parsed).take();
}

psl::TlmProperty tlm_prop(const std::string& text) {
  auto parsed = psl::parse_tlm_property(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return std::move(parsed).take();
}

// ---- Row independence on the shipped cells --------------------------------------

struct Cell {
  models::Design design;
  models::Level level;
  size_t jobs;
};

void PrintTo(const Cell& cell, std::ostream* os) {
  *os << models::to_string(cell.design) << ' ' << models::to_string(cell.level)
      << " jobs " << cell.jobs;
}

std::string cell_name(const testing::TestParamInfo<Cell>& info) {
  std::string name = std::string(models::to_string(info.param.design)) + "_" +
                     models::to_string(info.param.level) + "_jobs" +
                     std::to_string(info.param.jobs);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class RowIndependence : public testing::TestWithParam<Cell> {};

// A deliberately failing property over observables both designs expose, so
// failure logs and witness rings are compared too, not only counters.
const char kFailingDemo[] = "wdemo: always (!ds || next[1](rdy)) @clk_pos";

// Workloads whose TLM streams exceed four 1024-record engine batches, so
// the jobs-2 cells wrap the batch ring: DES56 delivers about 20 records per
// operation at TLM-CA and 4 at TLM-AT, ColorConv about 1.4 per pixel.
size_t cell_workload(const Cell& cell) {
  if (cell.design == models::Design::kColorConv) return 3200;
  return cell.level == models::Level::kTlmCa ? 240 : 1100;
}

models::RunConfig cell_config(const Cell& cell) {
  models::RunConfig config;
  config.design = cell.design;
  config.level = cell.level;
  config.workload = cell_workload(cell);
  config.seed = 7;
  config.engine.jobs = cell.jobs;
  return config;
}

TEST_P(RowIndependence, EachRowAloneEqualsItsRowInTheSuite) {
  const Cell cell = GetParam();
  const size_t suite_size =
      cell.design == models::Design::kDes56 ? size_t{9} : size_t{12};

  models::RunConfig full = cell_config(cell);
  full.checkers = suite_size;
  full.extra_properties.push_back(rtl_prop(kFailingDemo));
  const models::RunResult suite = models::run_simulation(full);
  ASSERT_TRUE(suite.ingest_error.empty()) << suite.ingest_error;
  ASSERT_GT(suite.report.total_failures(), 0u);
  const std::map<std::string, std::string> in_suite =
      rows_by_name(suite.report);

  size_t compared = 0;
  const auto expect_alone_matches = [&](const models::RunConfig& alone) {
    const models::RunResult r = models::run_simulation(alone);
    ASSERT_TRUE(r.ingest_error.empty()) << r.ingest_error;
    for (const abv::PropertyReport& row : r.report.properties()) {
      const auto it = in_suite.find(row.name);
      ASSERT_NE(it, in_suite.end()) << row.name;
      EXPECT_EQ(row_json(row), it->second) << row.name;
      ++compared;
    }
  };
  for (size_t i = 0; i < suite_size; ++i) {
    models::RunConfig alone = cell_config(cell);
    alone.property_indices = {i};
    expect_alone_matches(alone);
  }
  models::RunConfig demo = cell_config(cell);
  demo.extra_properties.push_back(rtl_prop(kFailingDemo));
  expect_alone_matches(demo);
  // Every row of the suite was reproduced by some lone run (TLM-AT deletes
  // some properties in both).
  EXPECT_EQ(compared, in_suite.size());
}

INSTANTIATE_TEST_SUITE_P(
    Cells, RowIndependence,
    testing::Values(
        Cell{models::Design::kDes56, models::Level::kRtl, 1},
        Cell{models::Design::kDes56, models::Level::kTlmCa, 1},
        Cell{models::Design::kDes56, models::Level::kTlmCa, 2},
        Cell{models::Design::kDes56, models::Level::kTlmAt, 1},
        Cell{models::Design::kDes56, models::Level::kTlmAt, 2},
        Cell{models::Design::kColorConv, models::Level::kRtl, 1},
        Cell{models::Design::kColorConv, models::Level::kTlmCa, 1},
        Cell{models::Design::kColorConv, models::Level::kTlmCa, 2},
        Cell{models::Design::kColorConv, models::Level::kTlmAt, 1},
        Cell{models::Design::kColorConv, models::Level::kTlmAt, 2}),
    cell_name);

// ---- Row independence across a dictionary change --------------------------------

// 2250 records over {ds, rdy, data}, then 2250 over {mode, rdy, data, ds}:
// the second half must rebind every property's observables (and an
// environment's shared atoms) to new slots. The change falls inside an
// engine batch, and the stream spans five, so sharded runs wrap the batch
// ring.
std::vector<tlm::TransactionRecord> two_dictionary_stream() {
  constexpr size_t kHalf = 2250;
  auto first = std::make_shared<const tlm::Snapshot::Keys>(
      tlm::Snapshot::Keys{"ds", "rdy", "data"});
  auto second = std::make_shared<const tlm::Snapshot::Keys>(
      tlm::Snapshot::Keys{"mode", "rdy", "data", "ds"});
  std::vector<tlm::TransactionRecord> records;
  uint64_t state = 12345;
  for (size_t i = 0; i < 2 * kHalf; ++i) {
    state = state * 6364136223846793005u + 1442695040888963407u;
    const uint64_t bits = state >> 33;
    tlm::TransactionRecord r;
    r.start = 10 * (i + 1);
    r.end = r.start;
    r.address = i % 3 == 2 ? 1 : 0;  // RTL replay: a falling edge now and then
    r.observables = tlm::Snapshot(i < kHalf ? first : second);
    r.observables.set("ds", bits & 1);
    r.observables.set("rdy", (bits >> 1) & 1);
    r.observables.set("data", (bits >> 2) & 7);
    if (i >= kHalf) r.observables.set("mode", (bits >> 5) & 1);
    records.push_back(std::move(r));
  }
  return records;
}

const char* const kRtlTexts[] = {
    "r1: always (!ds || next[2](rdy)) @clk_pos",
    "r2: always (!ds || (!rdy until rdy)) @clk_pos",
    "r3: always (!rdy || data != 5) @clk_pos && ds",
    "r4: always (ds -> next(data <= 6)) @clk",
    "r5: always (!(rdy && data == 3) || next(!rdy)) @clk_neg",
};
const char* const kTlmTexts[] = {
    "q1: always (!ds || next_e[1,20](rdy)) @Tb",
    "q2: always (!ds || next_e[1,30](rdy && data != 7)) @Tb",
    "q3: always (!rdy || data < 6) @Tb",
    "q4: always (!ds || (!rdy until rdy)) @Tb && data != 0",
};

// Rows of a TLM environment over `records`, registering the RTL texts
// selected by `rtl` as unabstracted checkers and the TLM texts selected by `tlm`.
std::map<std::string, std::string> tlm_rows(
    const std::vector<tlm::TransactionRecord>& records, size_t jobs,
    const std::vector<size_t>& rtl, const std::vector<size_t>& tlm) {
  abv::TlmAbvEnv env(10);
  env.set_engine_config(abv::EngineConfig{.jobs = jobs});
  env.set_witness_depth(5);
  for (size_t i : rtl) env.add_rtl_property(rtl_prop(kRtlTexts[i]));
  for (size_t i : tlm) env.add_property(tlm_prop(kTlmTexts[i]));
  env.bind();
  env.on_records(records.data(), records.data() + records.size());
  env.finish();
  EXPECT_EQ(env.binding_error(), "");
  return rows_by_name(env.report());
}

std::map<std::string, std::string> rtl_rows(
    const std::vector<tlm::TransactionRecord>& records,
    const std::vector<size_t>& rtl) {
  sim::Kernel kernel;
  abv::SignalBag bag;
  abv::RtlAbvEnv env(kernel, bag);
  for (size_t i : rtl) env.add_property(rtl_prop(kRtlTexts[i]));
  env.on_records(records.data(), records.data() + records.size());
  env.finish();
  EXPECT_EQ(env.binding_error(), "");
  return rows_by_name(env.report());
}

TEST(RowIndependence, DictionaryChangeMidStreamTlm) {
  const std::vector<tlm::TransactionRecord> records = two_dictionary_stream();
  const std::vector<size_t> all_rtl{0, 1, 2, 3, 4};
  const std::vector<size_t> all_tlm{0, 1, 2, 3};
  for (size_t jobs : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const auto suite = tlm_rows(records, jobs, all_rtl, all_tlm);
    ASSERT_EQ(suite.size(), all_rtl.size() + all_tlm.size());
    size_t failing = 0;
    for (const auto& [name, row] : suite) {
      if (row.find("\"failures\": 0,") == std::string::npos) ++failing;
    }
    EXPECT_GT(failing, 0u);  // witnesses are compared, not only counters
    for (size_t i : all_rtl) {
      for (const auto& [name, row] : tlm_rows(records, jobs, {i}, {})) {
        EXPECT_EQ(row, suite.at(name)) << name;
      }
    }
    for (size_t i : all_tlm) {
      for (const auto& [name, row] : tlm_rows(records, jobs, {}, {i})) {
        EXPECT_EQ(row, suite.at(name)) << name;
      }
    }
  }
}

TEST(RowIndependence, DictionaryChangeMidStreamRtl) {
  const std::vector<tlm::TransactionRecord> records = two_dictionary_stream();
  const std::vector<size_t> all_rtl{0, 1, 2, 3, 4};
  const auto suite = rtl_rows(records, all_rtl);
  ASSERT_EQ(suite.size(), all_rtl.size());
  for (size_t i : all_rtl) {
    for (const auto& [name, row] : rtl_rows(records, {i})) {
      EXPECT_EQ(row, suite.at(name)) << name;
    }
  }
}

// ---- Binding errors through the shared atoms --------------------------------------

// Records over {ds, rdy, data}: no "gate", "zz" or "yy".
std::vector<tlm::TransactionRecord> binding_stream() {
  auto keys = std::make_shared<const tlm::Snapshot::Keys>(
      tlm::Snapshot::Keys{"ds", "rdy", "data"});
  std::vector<tlm::TransactionRecord> records;
  for (size_t i = 0; i < 12; ++i) {
    tlm::TransactionRecord r;
    r.start = 10 * (i + 1);
    r.end = r.start;
    r.observables = tlm::Snapshot(keys);
    r.observables.set("ds", i % 2);
    r.observables.set("rdy", (i / 2) % 2);
    r.observables.set("data", i);
    records.push_back(std::move(r));
  }
  return records;
}

// The binding error of `texts` registered in order, at RTL and as plain
// checkers at TLM jobs 1 and 2; all three must agree.
std::string binding_error_everywhere(const std::vector<std::string>& texts) {
  const std::vector<tlm::TransactionRecord> records = binding_stream();
  sim::Kernel kernel;
  abv::SignalBag bag;
  abv::RtlAbvEnv rtl(kernel, bag);
  for (const std::string& text : texts) rtl.add_property(rtl_prop(text));
  rtl.on_records(records.data(), records.data() + records.size());
  rtl.finish();
  const std::string expected = rtl.binding_error();
  for (size_t jobs : {size_t{1}, size_t{2}}) {
    abv::TlmAbvEnv env(10);
    env.set_engine_config(abv::EngineConfig{.jobs = jobs});
    for (const std::string& text : texts) env.add_rtl_property(rtl_prop(text));
    env.bind();
    env.on_records(records.data(), records.data() + records.size());
    env.finish();
    EXPECT_EQ(env.binding_error(), expected) << "jobs " << jobs;
  }
  return expected;
}

const char kGuardMiss[] = "g: always (!ds || next(rdy)) @clk_pos && gate";
const char kProgramMiss[] = "p: always (!ds || next(zz == data)) @clk_pos";
const char kClean[] = "c: always (!ds || next(rdy || !rdy)) @clk_pos";

std::string missing(const std::string& property, const std::string& name) {
  return "property '" + property + "': observable '" + name +
         "' missing from the record dictionary";
}

TEST(SharedBinding, NamesTheFirstRegisteredPropertyGuardMissFirst) {
  EXPECT_EQ(binding_error_everywhere({kClean, kGuardMiss, kProgramMiss}),
            missing("g", "gate"));
}

TEST(SharedBinding, NamesTheFirstRegisteredPropertyProgramMissFirst) {
  EXPECT_EQ(binding_error_everywhere({kProgramMiss, kClean, kGuardMiss}),
            missing("p", "zz"));
}

TEST(SharedBinding, NamesThePropertysFirstMissingObservable) {
  // Program atoms come before guard atoms, in program order, and an atom's
  // left signal before its right one.
  EXPECT_EQ(binding_error_everywhere(
                {"m: always (!ds || next(yy == xx && zz)) @clk_pos && gate"}),
            missing("m", "yy"));
  EXPECT_EQ(binding_error_everywhere(
                {"n: always (!ds || next(data == xx)) @clk_pos && gate"}),
            missing("n", "xx"));
}

TEST(SharedBinding, CleanPropertiesKeepCheckingNextToAFailedOne) {
  const std::vector<tlm::TransactionRecord> records = binding_stream();
  abv::TlmAbvEnv env(10);
  env.add_rtl_property(rtl_prop(kGuardMiss));
  env.add_rtl_property(rtl_prop(kClean));
  env.bind();
  env.on_records(records.data(), records.data() + records.size());
  env.finish();
  EXPECT_EQ(env.binding_error(), missing("g", "gate"));
  ASSERT_EQ(env.checkers().size(), 2u);
  EXPECT_EQ(env.checkers()[0]->stats().activations, 0u);
  EXPECT_EQ(env.checkers()[1]->stats().activations, records.size());
}

// ---- The record pass itself ------------------------------------------------------

TEST(RecordPass, TableSharesEqualSubexpressionsAcrossProperties) {
  checker::AtomTable table;
  const psl::ExprPtr a = psl::sig("a");
  const psl::ExprPtr b = psl::sig("b");
  const uint32_t first = table.boolean(psl::and_(psl::not_(a), b));
  const uint32_t again = table.boolean(psl::and_(psl::not_(a), b));
  EXPECT_EQ(first, again);
  const uint32_t not_a = table.boolean(psl::not_(a));
  EXPECT_LT(not_a, first);  // a child precedes its parent
  EXPECT_EQ(table.atom(psl::sig("a")->atom), table.boolean(a));
}

TEST(RecordPass, AMissingObservableFailsOnlyThePropertiesThatReadIt) {
  checker::RecordPass pass;
  checker::ActivationLogic reads_x;
  checker::ActivationLogic reads_a;
  const psl::ExprPtr body = psl::sig("a");
  const auto program = checker::Program::compile(body);
  reads_x.reset(pass.atoms(), "px", *program, body, psl::sig("x"), nullptr);
  reads_a.reset(pass.atoms(), "pa", *program, body, nullptr, nullptr);
  auto keys = std::make_shared<const tlm::Snapshot::Keys>(
      tlm::Snapshot::Keys{"a"});
  tlm::Snapshot snap(keys);
  snap.set("a", 1);
  pass.run(10, abv::ObservablesContext(snap));
  EXPECT_EQ(reads_x.bits(), nullptr);
  EXPECT_EQ(reads_x.error(),
            "property 'px': observable 'x' missing from the record "
            "dictionary");
  const uint8_t* bits = reads_a.bits();
  ASSERT_NE(bits, nullptr);
  EXPECT_FALSE(reads_a.failed());
  EXPECT_EQ(reads_a.anchor_verdict(true, bits, abv::ObservablesContext(snap)),
            checker::Verdict::kTrue);  // boolean body `a`
}

// Wrappers of different witness depths sharing one pass log the same
// failures and witnesses as wrappers each driven through its own pass.
TEST(RecordPass, SharedRingServesEveryWrappersDepth) {
  const psl::TlmProperty deep =
      tlm_prop("d: always (!ds || next_e[1,20](rdy)) @Tb");
  const psl::TlmProperty shallow =
      tlm_prop("s: always (!ds || next_e[1,30](rdy && data != 7)) @Tb");
  checker::PropertyChecker own_deep(deep, 10);
  checker::PropertyChecker own_shallow(shallow, 10);
  own_deep.set_witness_depth(6);
  own_shallow.set_witness_depth(2);
  checker::PropertyChecker shared_deep(deep, 10);
  checker::PropertyChecker shared_shallow(shallow, 10);
  shared_deep.set_witness_depth(6);
  shared_shallow.set_witness_depth(2);
  checker::RecordPass pass;
  shared_shallow.attach(pass);
  shared_deep.attach(pass);
  EXPECT_EQ(pass.witnesses().depth(), 6u);

  for (const tlm::TransactionRecord& r : two_dictionary_stream()) {
    const abv::ObservablesContext ctx(r.observables);
    own_deep.on_event(r.end, ctx);
    own_shallow.on_event(r.end, ctx);
    pass.run(r.end, ctx);
    shared_deep.evaluate(r.end, ctx);
    shared_shallow.evaluate(r.end, ctx);
  }
  for (checker::PropertyChecker* w :
       {&own_deep, &own_shallow, &shared_deep, &shared_shallow}) {
    w->finish();
  }
  const auto row = [](const checker::PropertyChecker& w) {
    abv::Report report;
    report.add(w);
    return row_json(report.properties().front());
  };
  ASSERT_GT(own_deep.stats().failures, 0u);
  ASSERT_GT(own_shallow.stats().failures, 0u);
  EXPECT_EQ(own_deep.failures().back().witness.size(), 6u);
  EXPECT_EQ(own_shallow.failures().back().witness.size(), 2u);
  EXPECT_EQ(row(shared_deep), row(own_deep));
  EXPECT_EQ(row(shared_shallow), row(own_shallow));
}

}  // namespace
}  // namespace repro
