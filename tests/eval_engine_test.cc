// Tests for the sharded evaluation engine: it must produce bit-identical
// per-property verdicts, stats and failure logs for any worker count,
// because every wrapper observes the same ordered transaction stream
// regardless of sharding. The PipelineDispatch tests cover the batch ring:
// failure witnesses outliving a refilled slot, an empty finish, and the
// in-flight bound.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "abv/eval_engine.h"
#include "abv/tlm_env.h"
#include "checker/checker.h"
#include "models/testbench.h"
#include "psl/parser.h"
#include "support/metrics.h"
#include "tlm/transaction.h"

namespace repro {
namespace {

// ---- EvalEngine ------------------------------------------------------------------

psl::TlmProperty tlm_prop(const std::string& text) {
  auto result = psl::parse_tlm_property(text);
  EXPECT_TRUE(result.ok()) << text;
  return result.value();
}

tlm::TransactionRecord make_record(sim::Time end, uint64_t ds, uint64_t rdy,
                                   uint64_t out) {
  static auto keys = std::make_shared<tlm::Snapshot::Keys>(
      tlm::Snapshot::Keys{"ds", "rdy", "out"});
  tlm::TransactionRecord record;
  record.end = end;
  record.observables = tlm::Snapshot(keys);
  record.observables.set("ds", ds);
  record.observables.set("rdy", rdy);
  record.observables.set("out", out);
  return record;
}

// A mixed suite: time-scheduled, until-based (dense), and a data check that
// fails on part of the stream.
std::vector<psl::TlmProperty> mixed_suite() {
  return {
      tlm_prop("s1: always (!ds || next_e[1,40](rdy)) @Tb"),
      tlm_prop("s2: always (!ds || next_e[1,80](rdy)) @Tb"),
      tlm_prop("d1: always (!ds || (!rdy until rdy)) @Tb"),
      tlm_prop("f1: always (!ds || next_e[1,40](out != 0)) @Tb"),
      tlm_prop("s3: always (!ds || next_e[2,80](rdy)) @Tb"),
  };
}

// A deterministic stream with firings, on-time completions, missed
// deadlines (gaps) and zero `out` data (f1 failures).
std::vector<tlm::TransactionRecord> mixed_stream(size_t n) {
  std::vector<tlm::TransactionRecord> out;
  sim::Time t = 10;
  for (size_t i = 0; i < n; ++i) {
    const bool fire = i % 3 == 0;
    const bool gap = i % 7 == 6;       // skip ahead: deadlines get missed
    const uint64_t data = i % 5 == 0 ? 0 : i;  // zeros fail f1
    out.push_back(make_record(t, fire ? 1 : 0, fire ? 0 : 1, data));
    t += gap ? 130 : 40;
  }
  return out;
}

// Four full 1024-record engine batches plus a finish() tail: a sharded run
// refills every slot of the three-slot batch ring at least once.
constexpr size_t kRingRecords = 4500;

struct SuiteRun {
  std::vector<std::unique_ptr<checker::PropertyChecker>> wrappers;
};

// `bulk` feeds the stream through on_records instead of one on_record call
// per record.
SuiteRun run_suite(size_t jobs, size_t records,
                   support::MetricsRegistry* metrics = nullptr,
                   bool bulk = false) {
  SuiteRun run;
  abv::EvalEngine::Options options;
  options.config.jobs = jobs;
  options.metrics = metrics;
  abv::EvalEngine engine(options);
  for (const psl::TlmProperty& p : mixed_suite()) {
    run.wrappers.push_back(std::make_unique<checker::PropertyChecker>(p, 10));
    engine.add(run.wrappers.back().get());
  }
  const std::vector<tlm::TransactionRecord> stream = mixed_stream(records);
  if (bulk) {
    engine.on_records(stream.data(), stream.data() + stream.size());
  } else {
    for (const tlm::TransactionRecord& r : stream) engine.on_record(r);
  }
  engine.finish();
  return run;
}

void expect_identical(const SuiteRun& a, const SuiteRun& b) {
  ASSERT_EQ(a.wrappers.size(), b.wrappers.size());
  for (size_t i = 0; i < a.wrappers.size(); ++i) {
    const checker::PropertyChecker& wa = *a.wrappers[i];
    const checker::PropertyChecker& wb = *b.wrappers[i];
    ASSERT_EQ(wa.name(), wb.name());
    const checker::CheckerStats& sa = wa.stats();
    const checker::CheckerStats& sb = wb.stats();
    EXPECT_EQ(sa.events, sb.events) << wa.name();
    EXPECT_EQ(sa.activations, sb.activations) << wa.name();
    EXPECT_EQ(sa.failures, sb.failures) << wa.name();
    EXPECT_EQ(sa.holds, sb.holds) << wa.name();
    EXPECT_EQ(sa.trivial, sb.trivial) << wa.name();
    EXPECT_EQ(sa.uncompleted, sb.uncompleted) << wa.name();
    EXPECT_EQ(sa.reuses, sb.reuses) << wa.name();
    EXPECT_EQ(sa.steps, sb.steps) << wa.name();
    EXPECT_EQ(sa.real_passes, sb.real_passes) << wa.name();
    EXPECT_EQ(sa.vacuous_passes, sb.vacuous_passes) << wa.name();
    EXPECT_EQ(sa.missed_deadlines, sb.missed_deadlines) << wa.name();
    EXPECT_EQ(sa.node_visits, sb.node_visits) << wa.name();
    EXPECT_EQ(sa.pool_capacity, sb.pool_capacity) << wa.name();
    EXPECT_EQ(sa.table_peak, sb.table_peak) << wa.name();
    ASSERT_EQ(wa.failures().size(), wb.failures().size()) << wa.name();
    for (size_t k = 0; k < wa.failures().size(); ++k) {
      EXPECT_EQ(wa.failures()[k].time, wb.failures()[k].time) << wa.name();
      EXPECT_EQ(wa.failures()[k].property, wb.failures()[k].property);
    }
  }
}

TEST(EvalEngine, ShardedMatchesSerialOnMixedSuite) {
  const SuiteRun serial = run_suite(/*jobs=*/1, kRingRecords);
  // The stream contains failures; the test is vacuous without them.
  uint64_t failures = 0;
  for (const auto& w : serial.wrappers) failures += w->stats().failures;
  EXPECT_GT(failures, 0u);
  for (size_t jobs : {2, 3, 4, 16}) {
    const SuiteRun sharded = run_suite(jobs, kRingRecords);
    expect_identical(serial, sharded);
  }
}

TEST(EvalEngine, MoreJobsThanPropertiesIsCappedToOneShardEach) {
  const SuiteRun serial = run_suite(/*jobs=*/1, /*records=*/40);
  const SuiteRun sharded = run_suite(/*jobs=*/64, /*records=*/40);
  expect_identical(serial, sharded);
}

TEST(EvalEngine, FinishFlushesAPartialBatch) {
  // Fewer records than one batch: everything is evaluated at finish().
  const SuiteRun serial = run_suite(/*jobs=*/1, /*records=*/5);
  const SuiteRun sharded = run_suite(/*jobs=*/4, /*records=*/5);
  expect_identical(serial, sharded);
  uint64_t transactions = 0;
  for (const auto& w : sharded.wrappers) transactions += w->stats().events;
  EXPECT_EQ(transactions, 5u * sharded.wrappers.size());
}

TEST(EvalEngine, FinishWithoutRecordsRetiresNothing) {
  abv::EvalEngine::Options options;
  options.config.jobs = 4;
  abv::EvalEngine engine(options);
  auto p = tlm_prop("q: always (!ds || next_e[1,40](rdy)) @Tb");
  checker::PropertyChecker wrapper(p, 10);
  engine.add(&wrapper);
  engine.finish();
  EXPECT_EQ(wrapper.stats().events, 0u);
  EXPECT_EQ(wrapper.stats().activations, 0u);
}

// ---- Full-simulation serial-vs-sharded equivalence --------------------------------

void expect_reports_identical(const models::RunResult& a,
                              const models::RunResult& b) {
  EXPECT_EQ(a.functional_ok, b.functional_ok);
  EXPECT_EQ(a.properties_ok, b.properties_ok);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.sim_end_ns, b.sim_end_ns);
  ASSERT_EQ(a.report.properties().size(), b.report.properties().size());
  for (const abv::PropertyDelta& d : a.report.diff(b.report)) {
    ADD_FAILURE() << "report mismatch: " << d.to_string();
  }
}

void expect_jobs_equivalent(models::Design design, models::Level level,
                            size_t workload) {
  models::RunConfig config;
  config.design = design;
  config.level = level;
  config.workload = workload;
  config.checkers = 99;  // whole suite (clamped)
  config.engine.jobs = 1;
  const models::RunResult serial = models::run_simulation(config);
  EXPECT_TRUE(serial.functional_ok);
  config.engine.jobs = 4;
  const models::RunResult sharded = models::run_simulation(config);
  expect_reports_identical(serial, sharded);
}

TEST(JobsEquivalence, Des56TlmAt) {
  expect_jobs_equivalent(models::Design::kDes56, models::Level::kTlmAt, 60);
}

TEST(JobsEquivalence, Des56TlmCa) {
  expect_jobs_equivalent(models::Design::kDes56, models::Level::kTlmCa, 40);
}

TEST(JobsEquivalence, ColorConvTlmAt) {
  expect_jobs_equivalent(models::Design::kColorConv, models::Level::kTlmAt, 600);
}

TEST(JobsEquivalence, ColorConvTlmCa) {
  expect_jobs_equivalent(models::Design::kColorConv, models::Level::kTlmCa, 300);
}

// ---- Engine knob clamp -----------------------------------------------------------

// The environment hands its EngineConfig to the engine verbatim; the engine
// clamps jobs below 1, so jobs 0 is the serial walk and reports exactly
// what jobs 1 does.
TEST(EvalEngine, ZeroJobsRunsSeriallyLikeOneJob) {
  abv::EvalEngine::Options options;
  options.config = abv::EngineConfig{.jobs = 0};
  EXPECT_EQ(abv::EvalEngine(options).jobs(), 1u);

  const std::vector<tlm::TransactionRecord> records = mixed_stream(200);
  std::string json[2];
  for (size_t jobs : {0, 1}) {
    abv::TlmAbvEnv env(10);
    env.set_engine_config(abv::EngineConfig{.jobs = jobs});
    for (const psl::TlmProperty& p : mixed_suite()) env.add_property(p);
    env.bind();
    env.on_records(records.data(), records.data() + records.size());
    env.finish();
    std::ostringstream os;
    env.report().write_json(os);
    json[jobs] = os.str();
    EXPECT_EQ(env.metrics_snapshot().counters.at("engine.records"), 200u);
  }
  EXPECT_FALSE(json[0].empty());
  EXPECT_EQ(json[0], json[1]);
}

// ---- PipelineDispatch: the batch ring --------------------------------------------

TEST(PipelineDispatch, BulkIngestMatchesPerRecordIngest) {
  const SuiteRun each = run_suite(/*jobs=*/3, kRingRecords);
  const SuiteRun bulk =
      run_suite(/*jobs=*/3, kRingRecords, nullptr, /*bulk=*/true);
  expect_identical(each, bulk);
}

TEST(PipelineDispatch, WitnessRingSurvivesArenaRecycling) {
  // The stream refills every ring slot; every logged failure witness must
  // still carry the observables it saw, because witness capture copies them
  // out of the slot. The witness contents must also match the serial run
  // exactly.
  const SuiteRun serial = run_suite(/*jobs=*/1, kRingRecords);
  const SuiteRun sharded = run_suite(/*jobs=*/3, kRingRecords);
  expect_identical(serial, sharded);

  size_t witnessed = 0;
  for (size_t i = 0; i < sharded.wrappers.size(); ++i) {
    const auto& fa = serial.wrappers[i]->failures();
    const auto& fb = sharded.wrappers[i]->failures();
    ASSERT_EQ(fa.size(), fb.size());
    for (size_t k = 0; k < fb.size(); ++k) {
      ASSERT_EQ(fa[k].witness.size(), fb[k].witness.size());
      for (size_t w = 0; w < fb[k].witness.size(); ++w) {
        const checker::WitnessEntry& ea = fa[k].witness[w];
        const checker::WitnessEntry& eb = fb[k].witness[w];
        EXPECT_EQ(ea.time, eb.time);
        ASSERT_NE(eb.observables, nullptr);
        ASSERT_NE(ea.observables, nullptr);
        EXPECT_EQ(*ea.observables, *eb.observables);
        ++witnessed;
      }
    }
  }
  EXPECT_GT(witnessed, 0u);  // the stream is built to fail with witnesses
}

TEST(PipelineDispatch, FinishWithoutRecordsPublishesZeroArenaActivity) {
  support::MetricsRegistry metrics(/*lanes=*/5);  // producer + 4 shards
  const SuiteRun run = run_suite(/*jobs=*/4, /*records=*/0, &metrics);
  for (const auto& w : run.wrappers) {
    EXPECT_EQ(w->stats().events, 0u);
    EXPECT_EQ(w->stats().activations, 0u);
  }
  // The ring's metrics exist (deterministic key set) but saw no traffic.
  const support::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("engine.batches"), 0u);
  EXPECT_EQ(snap.counters.at("engine.shard_records"), 0u);
  EXPECT_EQ(snap.gauges.at("engine.inflight_peak"), 0u);
}

TEST(PipelineDispatch, ArenaSlabsBoundedByMaxInflight) {
  // The ring has three slots: while the producer fills one, at most two
  // sealed batches are still being read, however long the stream runs.
  support::MetricsRegistry metrics(/*lanes=*/4);  // producer + 3 shards
  run_suite(/*jobs=*/3, kRingRecords, &metrics);
  const support::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("engine.records"), kRingRecords);
  EXPECT_EQ(snap.counters.at("engine.batches"), 5u);  // 4 x 1024 + a tail
  // Every shard read every record.
  EXPECT_EQ(snap.counters.at("engine.shard_records"), 3 * kRingRecords);
  EXPECT_LE(snap.gauges.at("engine.inflight_peak"), 2u);
}

}  // namespace
}  // namespace repro
