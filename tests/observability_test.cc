// Tests for the runtime observability layer: the metrics registry, the
// Chrome trace-event sink, failure witnesses, the machine-readable report
// and the bundled JSON reader they are all validated with.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "abv/eval_engine.h"
#include "abv/snapshot_context.h"
#include "abv/report.h"
#include "checker/checker.h"
#include "checker/trace.h"
#include "models/testbench.h"
#include "psl/parser.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/trace_sink.h"
#include "tlm/transaction.h"

namespace repro {
namespace {

// ---- Histogram -------------------------------------------------------------------

TEST(Histogram, ExponentialBounds) {
  const std::vector<uint64_t> bounds = support::exponential_bounds(10, 3);
  EXPECT_EQ(bounds, (std::vector<uint64_t>{10, 20, 40}));
}

TEST(Histogram, RecordsIntoInclusiveUpperBuckets) {
  support::Histogram h(support::exponential_bounds(10, 3));  // 10, 20, 40
  h.record(5);     // <= 10
  h.record(10);    // <= 10 (inclusive upper edge)
  h.record(11);    // <= 20
  h.record(40);    // <= 40
  h.record(1000);  // overflow
  EXPECT_EQ(h.counts(), (std::vector<uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.sum(), 5u + 10 + 11 + 40 + 1000);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(Histogram, RecordNEqualsNSingleRecords) {
  for (const uint64_t value : {0u, 10u, 11u, 1000u}) {
    for (const uint64_t n : {1u, 2u, 7u}) {
      support::Histogram batched(support::exponential_bounds(10, 3));
      support::Histogram single(support::exponential_bounds(10, 3));
      batched.record(3);
      single.record(3);
      batched.record(value, n);
      for (uint64_t i = 0; i < n; ++i) single.record(value);
      EXPECT_EQ(batched.counts(), single.counts()) << value << " x" << n;
      EXPECT_EQ(batched.total(), single.total()) << value << " x" << n;
      EXPECT_EQ(batched.sum(), single.sum()) << value << " x" << n;
      EXPECT_EQ(batched.max(), single.max()) << value << " x" << n;
    }
  }
}

TEST(Histogram, RecordZeroTimesIsANoOp) {
  support::Histogram h(support::exponential_bounds(10, 3));
  h.record(1000, 0);
  EXPECT_EQ(h.counts(), (std::vector<uint64_t>{0, 0, 0, 0}));
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  // Not even a default-constructed histogram grows its bucket.
  support::Histogram empty;
  empty.record(5, 0);
  EXPECT_TRUE(empty.counts().empty());
  EXPECT_TRUE(empty.empty());
}

TEST(Histogram, MergeAddsCountsAndAdoptsBoundsWhenEmpty) {
  support::Histogram a(support::exponential_bounds(10, 2));
  support::Histogram b(support::exponential_bounds(10, 2));
  a.record(5);
  b.record(15);
  b.record(100);
  a.merge(b);
  EXPECT_EQ(a.counts(), (std::vector<uint64_t>{1, 1, 1}));
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.max(), 100u);

  support::Histogram empty;
  empty.merge(a);  // adopts a's bounds and counts
  EXPECT_EQ(empty.bounds(), a.bounds());
  EXPECT_EQ(empty.total(), 3u);
}

// ---- MetricsRegistry -------------------------------------------------------------

TEST(Metrics, CounterSumsLanesAndGaugeTakesPeak) {
  support::MetricsRegistry registry(3);
  support::MetricsRegistry::Counter& c = registry.counter("c");
  support::MetricsRegistry::Gauge& g = registry.gauge("g");
  c.add(0, 5);
  c.add(1, 7);
  c.add(2, 1);
  g.set(0, 3);
  g.set(1, 9);
  g.set(1, 2);  // peak keeps 9
  EXPECT_EQ(c.total(), 13u);
  EXPECT_EQ(g.max(), 9u);

  const support::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 13u);
  EXPECT_EQ(snap.gauges.at("g"), 9u);
}

TEST(Metrics, ConcurrentLaneWritesAreExact) {
  constexpr size_t kLanes = 4;
  constexpr uint64_t kPerLane = 20000;
  support::MetricsRegistry registry(kLanes);
  support::MetricsRegistry::Counter& c = registry.counter("hits");
  support::MetricsRegistry::Gauge& g = registry.gauge("depth");
  std::vector<std::thread> threads;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    threads.emplace_back([&, lane] {
      for (uint64_t i = 1; i <= kPerLane; ++i) {
        c.add(lane, 1);
        g.set(lane, i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.total(), kPerLane * kLanes);
  EXPECT_EQ(g.max(), kPerLane);
}

TEST(Metrics, SnapshotJsonIsDeterministic) {
  auto build = [] {
    support::MetricsRegistry registry(2);
    registry.counter("b").add(1, 2);
    registry.counter("a").add(0, 1);
    registry.gauge("z").set(0, 4);
    support::Histogram h(support::exponential_bounds(10, 2));
    h.record(15);
    registry.merge_histogram("lat", h);
    std::ostringstream os;
    registry.snapshot().write_json(os);
    return os.str();
  };
  const std::string once = build();
  EXPECT_EQ(once, build());
  // Keys are sorted by name regardless of registration order.
  EXPECT_LT(once.find("\"a\""), once.find("\"b\""));
  std::string error;
  ASSERT_TRUE(support::json::parse(once, &error).has_value()) << error;
}

// ---- Witness ring ----------------------------------------------------------------

psl::TlmProperty tlm_prop(const std::string& text) {
  auto result = psl::parse_tlm_property(text);
  EXPECT_TRUE(result.ok()) << text;
  return result.value();
}

// The ring is exercised on both ingest paths: by name (a MapContext, which
// enumerates its signals itself) and by slot (an ObservablesContext over a
// tlm::Snapshot, whose values the wrapper copies out of the positional view).
class Witness : public ::testing::TestWithParam<bool> {
 protected:
  // One transaction carrying `values`. On the slot path they are written, in
  // order, into `snapshot_`, which is rebuilt over `keys` when the dictionary
  // changes and otherwise overwritten in place (like a recycled arena slot).
  void send(checker::PropertyChecker& wrapper, psl::TimeNs time,
            const std::vector<std::pair<std::string, uint64_t>>& values) {
    if (!GetParam()) {
      checker::MapContext ctx;
      for (const auto& [name, value] : values) ctx.set(name, value);
      wrapper.on_event(time, ctx);
      return;
    }
    tlm::Snapshot::Keys names;
    for (const auto& entry : values) names.push_back(entry.first);
    if (snapshot_.keys() == nullptr || *snapshot_.keys() != names) {
      snapshot_ = tlm::Snapshot(
          std::make_shared<const tlm::Snapshot::Keys>(std::move(names)));
    }
    for (size_t i = 0; i < values.size(); ++i) {
      snapshot_.set_at(i, values[i].second);
    }
    wrapper.on_event(time, abv::ObservablesContext(snapshot_));
  }
  void send(checker::PropertyChecker& wrapper, psl::TimeNs time, bool ds,
            bool rdy) {
    send(wrapper, time, {{"rdy", rdy ? 1 : 0}, {"ds", ds ? 1 : 0}});
  }

  tlm::Snapshot snapshot_;
};

// The names of a witness entry in the order the context enumerates them:
// key-table order by slot, name order by name (MapContext is a std::map).
std::vector<std::string> names_of(const checker::WitnessEntry& entry) {
  std::vector<std::string> names;
  for (const auto& [name, value] : *entry.observables) names.push_back(name);
  return names;
}

uint64_t value_of(const checker::WitnessEntry& entry, const std::string& name) {
  for (const auto& [n, value] : *entry.observables) {
    if (n == name) return value;
  }
  ADD_FAILURE() << "witness entry at " << entry.time << " lacks " << name;
  return 0;
}

TEST_P(Witness, RingWrapsAroundAndSnapshotsOldestFirst) {
  // rdy must rise within 40 ns of ds; it never does, so the session fails
  // and the failure carries the last `depth` transactions.
  const psl::TlmProperty p = tlm_prop("w: always (!ds || next_e[1,40](rdy)) @Tb");
  checker::PropertyChecker wrapper(p, 10);
  wrapper.set_witness_depth(3);
  send(wrapper, 10, true, false);
  for (psl::TimeNs t : {20, 30, 40, 50, 60}) send(wrapper, t, false, false);
  wrapper.finish();
  ASSERT_GT(wrapper.stats().failures, 0u);
  ASSERT_FALSE(wrapper.failures().empty());
  const checker::Failure& failure = wrapper.failures().front();
  ASSERT_EQ(failure.witness.size(), 3u);  // ring capped at depth 3
  // Oldest first, ending at the failure's transaction.
  EXPECT_LT(failure.witness[0].time, failure.witness[1].time);
  EXPECT_LT(failure.witness[1].time, failure.witness[2].time);
  EXPECT_EQ(failure.witness.back().time, failure.time);
  ASSERT_NE(failure.witness[0].observables, nullptr);
  // Every observable of the transaction is materialized into the entry.
  EXPECT_EQ(failure.witness[0].observables->size(), 2u);
}

TEST_P(Witness, DepthZeroDisablesCapture) {
  const psl::TlmProperty p = tlm_prop("w: always (!ds || next_e[1,40](rdy)) @Tb");
  checker::PropertyChecker wrapper(p, 10);
  wrapper.set_witness_depth(0);
  send(wrapper, 10, true, false);
  for (psl::TimeNs t : {20, 30, 40, 50, 60}) send(wrapper, t, false, false);
  wrapper.finish();
  ASSERT_GT(wrapper.stats().failures, 0u);
  ASSERT_FALSE(wrapper.failures().empty());
  EXPECT_TRUE(wrapper.failures().front().witness.empty());
}

TEST_P(Witness, PartialRingBeforeWraparound) {
  // Only two transactions before the verdict: the ring holds both.
  const psl::TlmProperty p = tlm_prop("w: always (!ds || next_e[1,20](rdy)) @Tb");
  checker::PropertyChecker wrapper(p, 10);
  wrapper.set_witness_depth(8);
  send(wrapper, 10, true, false);
  send(wrapper, 30, false, false);
  wrapper.finish();
  ASSERT_FALSE(wrapper.failures().empty());
  EXPECT_EQ(wrapper.failures().front().witness.size(), 2u);
  EXPECT_EQ(wrapper.failures().front().witness[0].time, 10u);
}

TEST_P(Witness, OverwritingTheSourceLeavesTheRingUnchanged) {
  // Every transaction reuses one source record, overwritten in place after
  // on_transaction returns. The ring must have copied each transaction's
  // values: `data` equals the transaction time in every entry.
  const psl::TlmProperty p = tlm_prop("w: always (!ds || next_e[1,40](rdy)) @Tb");
  checker::PropertyChecker wrapper(p, 10);
  wrapper.set_witness_depth(4);
  for (psl::TimeNs t : {10, 20, 30, 40, 50}) {
    send(wrapper, t, {{"rdy", 0}, {"ds", t == 10 ? 1u : 0u}, {"data", t}});
  }
  // Scribble over the source once more before the failure is read back.
  send(wrapper, 55, {{"rdy", 7}, {"ds", 7}, {"data", 7}});
  wrapper.finish();
  ASSERT_FALSE(wrapper.failures().empty());
  const checker::Failure& failure = wrapper.failures().front();
  EXPECT_EQ(failure.time, 50u);
  ASSERT_EQ(failure.witness.size(), 4u);
  for (size_t i = 0; i < failure.witness.size(); ++i) {
    const checker::WitnessEntry& entry = failure.witness[i];
    ASSERT_NE(entry.observables, nullptr);
    EXPECT_EQ(entry.time, 20u + 10 * i);
    EXPECT_EQ(value_of(entry, "data"), entry.time);
    EXPECT_EQ(value_of(entry, "ds"), 0u);
    EXPECT_EQ(value_of(entry, "rdy"), 0u);
  }
}

TEST_P(Witness, DictionaryChangeMidRingKeepsEachEntrysNames) {
  // Two transactions over {rdy, ds}, then three over {ds, rdy, mode}, into
  // a ring of depth 4: each entry renders with the names of the transaction
  // it remembers, including the slot that wrapped from the first
  // dictionary to the second.
  const psl::TlmProperty p = tlm_prop("w: always (!ds || next_e[1,40](rdy)) @Tb");
  checker::PropertyChecker wrapper(p, 10);
  wrapper.set_witness_depth(4);
  send(wrapper, 10, {{"rdy", 0}, {"ds", 1}});
  send(wrapper, 20, {{"rdy", 0}, {"ds", 0}});
  for (psl::TimeNs t : {30, 40, 50}) {
    send(wrapper, t, {{"ds", 0}, {"rdy", 0}, {"mode", t}});
  }
  wrapper.finish();
  ASSERT_FALSE(wrapper.failures().empty());
  const checker::Failure& failure = wrapper.failures().front();
  EXPECT_EQ(failure.time, 50u);
  ASSERT_EQ(failure.witness.size(), 4u);
  const bool by_slot = GetParam();
  const std::vector<std::string> before =
      by_slot ? std::vector<std::string>{"rdy", "ds"}
              : std::vector<std::string>{"ds", "rdy"};
  const std::vector<std::string> after =
      by_slot ? std::vector<std::string>{"ds", "rdy", "mode"}
              : std::vector<std::string>{"ds", "mode", "rdy"};
  for (size_t i = 0; i < failure.witness.size(); ++i) {
    const checker::WitnessEntry& entry = failure.witness[i];
    ASSERT_NE(entry.observables, nullptr);
    EXPECT_EQ(entry.time, 20u + 10 * i);
    EXPECT_EQ(names_of(entry), i == 0 ? before : after) << "entry " << i;
    if (i > 0) {
      EXPECT_EQ(value_of(entry, "mode"), entry.time);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Path, Witness, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "BySlot" : "ByName";
                         });

// ---- TraceSink -------------------------------------------------------------------

TEST(TraceSink, WritesParseableChromeTraceJson) {
  support::TraceSink sink;
  sink.name_thread(0, "dispatch");
  sink.name_thread(1, "shard-0");
  const uint64_t t0 = sink.now_ns();
  sink.span(1, "shard_batch", t0, 1500, {{"records", 16}});
  sink.span_end(0, "batch_dispatch", t0, {{"records", 16}, {"shards", 1}});
  sink.instant(1, "fail:p1", {{"sim_time_ns", 170}});
  EXPECT_EQ(sink.events(), 5u);

  std::ostringstream os;
  sink.write(os);
  std::string error;
  const auto doc = support::json::parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const support::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 5u);
  size_t spans = 0, instants = 0, metadata = 0;
  for (const support::json::Value& e : events->array) {
    const support::json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("name"), nullptr);
    if (ph->string == "X") {
      ++spans;
      ASSERT_NE(e.find("dur"), nullptr);
      ASSERT_NE(e.find("ts"), nullptr);
    } else if (ph->string == "i") {
      ++instants;
      ASSERT_NE(e.find("s"), nullptr);
      EXPECT_EQ(e.find("s")->string, "t");
    } else if (ph->string == "M") {
      ++metadata;
      EXPECT_EQ(e.find("name")->string, "thread_name");
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(metadata, 2u);
}

tlm::TransactionRecord obs_record(sim::Time end, uint64_t ds, uint64_t rdy) {
  static auto keys =
      std::make_shared<tlm::Snapshot::Keys>(tlm::Snapshot::Keys{"ds", "rdy"});
  tlm::TransactionRecord record;
  record.end = end;
  record.observables = tlm::Snapshot(keys);
  record.observables.set("ds", ds);
  record.observables.set("rdy", rdy);
  return record;
}

TEST(TraceSink, EngineEmitsOneLanePerShardWithCausalSpans) {
  support::TraceSink sink;
  support::MetricsRegistry metrics(4);  // producer lane + 3 shard lanes
  abv::EvalEngine::Options options;
  options.config.jobs = 3;
  options.trace = &sink;
  options.metrics = &metrics;
  abv::EvalEngine engine(options);
  std::vector<std::unique_ptr<checker::PropertyChecker>> wrappers;
  for (const char* text :
       {"a: always (!ds || next_e[1,40](rdy)) @Tb",
        "b: always (!ds || next_e[1,80](rdy)) @Tb",
        "c: always (!ds || next_e[1,40](rdy)) @Tb"}) {
    wrappers.push_back(
        std::make_unique<checker::PropertyChecker>(tlm_prop(text), 10));
    engine.add(wrappers.back().get());
  }
  // Five engine batches: the shards wrap the batch ring.
  sim::Time t = 10;
  for (int i = 0; i < 4500; ++i) {
    engine.on_record(obs_record(t, i % 4 == 0 ? 1 : 0, 0));  // rdy never rises
    t += 50;  // always past the next_e window: every activation fails
  }
  engine.finish();

  std::ostringstream os;
  sink.write(os);
  std::string error;
  const auto doc = support::json::parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const support::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::map<int, std::vector<std::pair<double, double>>> spans_by_tid;
  std::map<uint64_t, double> fill_end_by_seq;            // producer lane
  std::vector<std::pair<uint64_t, double>> shard_starts; // (seq, ts)
  size_t failures = 0;
  for (const support::json::Value& e : events->array) {
    const std::string& ph = e.find("ph")->string;
    const int tid = static_cast<int>(e.find("tid")->number);
    if (ph == "X") {
      const double ts = e.find("ts")->number;
      const double dur = e.find("dur")->number;
      spans_by_tid[tid].emplace_back(ts, dur);
      const std::string& name = e.find("name")->string;
      const support::json::Value* args = e.find("args");
      if (name == "batch_fill") {
        EXPECT_EQ(tid, 0) << "batch_fill must live on the producer lane";
        ASSERT_NE(args, nullptr);
        fill_end_by_seq[static_cast<uint64_t>(args->find("seq")->number)] =
            ts + dur;
      } else if (name == "shard_batch") {
        EXPECT_TRUE(tid >= 1 && tid <= 3) << "tid " << tid;
        ASSERT_NE(args, nullptr);
        shard_starts.emplace_back(
            static_cast<uint64_t>(args->find("seq")->number), ts);
      }
    } else if (ph == "i") {
      EXPECT_EQ(tid == 1 || tid == 2 || tid == 3, true);
      EXPECT_EQ(e.find("name")->string.rfind("fail:", 0), 0u);
      ++failures;
    }
  }
  EXPECT_GT(failures, 0u);
  // One producer lane plus one lane per shard, each with at least one span.
  for (int tid : {0, 1, 2, 3}) {
    ASSERT_FALSE(spans_by_tid[tid].empty()) << "tid " << tid;
  }
  // Spans within one lane never overlap: each lane's batches are sequential.
  for (auto& [tid, spans] : spans_by_tid) {
    std::sort(spans.begin(), spans.end());
    for (size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].first + spans[i - 1].second - 1e-6)
          << "tid " << tid;
    }
  }
  // Pipelined causality: shard work on batch k cannot start before the
  // producer finished filling batch k (seal happens at fill-span end). Under
  // pipelining shard spans of batch k may well overlap the *fill* of batch
  // k+1, so nesting is not required — only this per-seq ordering.
  EXPECT_FALSE(fill_end_by_seq.empty());
  EXPECT_FALSE(shard_starts.empty());
  for (const auto& [seq, ts] : shard_starts) {
    auto it = fill_end_by_seq.find(seq);
    ASSERT_NE(it, fill_end_by_seq.end()) << "shard span with unknown seq " << seq;
    EXPECT_GE(ts, it->second - 1e-6)
        << "shard span for seq " << seq << " started before its fill ended";
  }
}

// ---- Metrics through a full simulation -------------------------------------------

TEST(MetricsDeterminism, DeterministicKeysAgreeAcrossJobs) {
  auto run = [](size_t jobs) {
    models::RunConfig config;
    config.design = models::Design::kDes56;
    config.level = models::Level::kTlmAt;
    config.workload = 1100;  // 4400 records: sharded runs wrap the batch ring
    config.checkers = 99;  // whole suite
    config.engine.jobs = jobs;
    return models::run_simulation(config);
  };
  const models::RunResult base = run(1);
  ASSERT_TRUE(base.functional_ok);
  EXPECT_GT(base.metrics.counters.at("engine.records"), 0u);
  EXPECT_FALSE(base.metrics.histograms.at("wrapper.latency_ns").empty());
  for (size_t jobs : {2, 4}) {
    const models::RunResult r = run(jobs);
    // Counters and gauges fed by simulation state (not wall time) and the
    // sim-time latency histogram must be identical for any worker count.
    EXPECT_EQ(r.metrics.counters.at("engine.records"),
              base.metrics.counters.at("engine.records"))
        << jobs;
    for (const char* key : {"sim.kernel_events", "sim.delta_cycles",
                            "sim.transactions", "wrapper.pool_capacity",
                            "wrapper.table_peak"}) {
      EXPECT_EQ(r.metrics.gauges.at(key), base.metrics.gauges.at(key))
          << key << " jobs=" << jobs;
    }
    const support::Histogram& ha = base.metrics.histograms.at("wrapper.latency_ns");
    const support::Histogram& hb = r.metrics.histograms.at("wrapper.latency_ns");
    EXPECT_EQ(ha.bounds(), hb.bounds()) << jobs;
    EXPECT_EQ(ha.counts(), hb.counts()) << jobs;
    EXPECT_EQ(ha.sum(), hb.sum()) << jobs;
    EXPECT_EQ(ha.max(), hb.max()) << jobs;
  }
}

// The wrapper.* metrics and the program counts describe the Sec. IV
// runtime of abstracted properties: a TLM-CA run, whose properties are all
// unabstracted, reports none, and a TLM-AT run counts every property.
TEST(MetricsDeterminism, WrapperMetricsCoverAbstractedPropertiesOnly) {
  for (const models::Level level :
       {models::Level::kTlmCa, models::Level::kTlmAt}) {
    models::RunConfig config;
    config.design = models::Design::kDes56;
    config.level = level;
    config.workload = 40;
    config.checkers = 99;  // whole suite
    const models::RunResult r = models::run_simulation(config);
    ASSERT_TRUE(r.functional_ok);
    const bool at = level == models::Level::kTlmAt;
    EXPECT_EQ(r.metrics.histograms.count("wrapper.latency_ns"), at ? 1u : 0u);
    EXPECT_EQ(r.metrics.gauges.at("checker.program_nodes") > 0, at);
    EXPECT_EQ(r.metrics.gauges.at("wrapper.pool_capacity") > 0, at);
    EXPECT_EQ(r.metrics.gauges.at("wrapper.table_peak") > 0, at);
  }
}

// An output path that cannot be opened fails the run up front with the path
// in the ingest error, before anything simulates.
TEST(RunOutputs, UnwritablePathsFailTheRun) {
  // A regular file's "child" can never be created, whoever runs the test.
  const std::string blocked = testing::TempDir() + "outputs_blocker";
  { std::ofstream(blocked) << "x"; }
  models::RunConfig config;
  config.design = models::Design::kDes56;
  config.level = models::Level::kTlmAt;
  config.workload = 20;
  config.checkers = 9;
  config.observability.metrics_path = blocked + "/m.jsonl";
  models::RunResult r = models::run_simulation(config);
  EXPECT_NE(r.ingest_error.find("'" + blocked + "/m.jsonl'"), std::string::npos)
      << r.ingest_error;
  EXPECT_EQ(r.kernel_events, 0u);

  config.observability.metrics_path.clear();
  config.analysis.prune = analysis::PruneMode::kSafe;
  config.observability.prune_plan_path = blocked + "/plan.json";
  for (models::Level level : {models::Level::kRtl, models::Level::kTlmAt}) {
    config.level = level;
    r = models::run_simulation(config);
    EXPECT_NE(r.ingest_error.find("'" + blocked + "/plan.json'"),
              std::string::npos)
        << r.ingest_error;
  }
}

// ---- Report: totals, diff, JSON --------------------------------------------------

psl::RtlProperty rtl_prop(const std::string& text) {
  auto result = psl::parse_rtl_property(text);
  EXPECT_TRUE(result.ok()) << text;
  return std::move(result).take();
}

TEST(Report, PrintSizesColumnsToLongNamesAndAddsTotals) {
  const psl::RtlProperty p = rtl_prop(
      "a_property_with_a_very_long_descriptive_name: always (!ds || rdy) @clk_pos");
  checker::PropertyChecker checker(p.name, p.formula, p.context.guard);
  abv::Report report;
  report.add(checker);
  std::ostringstream os;
  report.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("a_property_with_a_very_long_descriptive_name"),
            std::string::npos);
  EXPECT_NE(text.find("total"), std::string::npos);
  // Every row (header, property, rule, totals) is aligned to the same width.
  std::istringstream lines(text);
  std::string line;
  std::vector<size_t> lengths;
  while (std::getline(lines, line)) lengths.push_back(line.size());
  ASSERT_EQ(lengths.size(), 4u);
  EXPECT_EQ(lengths[0], lengths[1]);
  EXPECT_EQ(lengths[2], lengths[3]);
}

TEST(Report, DiffIsEmptyForIdenticalRunsAndSignedOtherwise) {
  models::RunConfig config;
  config.design = models::Design::kDes56;
  config.level = models::Level::kTlmAt;
  config.workload = 20;
  config.checkers = 99;
  const models::RunResult a = models::run_simulation(config);
  const models::RunResult a2 = models::run_simulation(config);
  EXPECT_TRUE(a.report.diff(a2.report).empty());

  config.workload = 30;
  const models::RunResult b = models::run_simulation(config);
  const std::vector<abv::PropertyDelta> deltas = a.report.diff(b.report);
  ASSERT_FALSE(deltas.empty());
  // More workload means more events: deltas are positive in this direction
  // and negative in the other.
  EXPECT_GT(deltas.front().events, 0);
  const std::vector<abv::PropertyDelta> reverse = b.report.diff(a.report);
  ASSERT_EQ(reverse.size(), deltas.size());
  EXPECT_EQ(reverse.front().events, -deltas.front().events);
  EXPECT_NE(deltas.front().to_string().find(deltas.front().name),
            std::string::npos);
}

TEST(Report, DiffReportsPropertiesMissingFromOneSide) {
  const psl::RtlProperty p = rtl_prop("only_a: always (rdy) @clk_pos");
  checker::PropertyChecker checker(p.name, p.formula, p.context.guard);
  checker::MapContext values;
  values.set("rdy", 1);
  checker.on_event(10, values);
  checker.finish();
  abv::Report with;
  with.add(checker);
  abv::Report empty;
  const std::vector<abv::PropertyDelta> gained = empty.diff(with);
  ASSERT_EQ(gained.size(), 1u);
  EXPECT_EQ(gained[0].name, "only_a");
  EXPECT_GT(gained[0].events, 0);
  const std::vector<abv::PropertyDelta> lost = with.diff(empty);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].events, -gained[0].events);
}

models::RunResult witness_run(size_t jobs) {
  models::RunConfig config;
  config.design = models::Design::kDes56;
  config.level = models::Level::kTlmAt;
  config.workload = 30;
  config.checkers = 99;
  config.engine.jobs = jobs;
  // Deliberately failing property: rdy rises 17 cycles after ds, not 1.
  config.extra_properties.push_back(
      rtl_prop("wfail: always (!ds || next[1](rdy)) @clk_pos"));
  return models::run_simulation(config);
}

TEST(ReportJson, SchemaAndFailureWitnesses) {
  const models::RunResult r = witness_run(1);
  std::ostringstream os;
  r.report.write_json(os);
  std::string error;
  const auto doc = support::json::parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_object());
  ASSERT_NE(doc->find("schema_version"), nullptr);
  EXPECT_EQ(doc->find("schema_version")->number, 2.0);
  ASSERT_NE(doc->find("coverage"), nullptr);  // the v2 addition
  ASSERT_NE(doc->find("all_ok"), nullptr);
  EXPECT_FALSE(doc->find("all_ok")->boolean);
  ASSERT_NE(doc->find("totals"), nullptr);
  EXPECT_GT(doc->find("totals")->find("failures")->number, 0.0);
  EXPECT_EQ(doc->find("timing"), nullptr);  // omitted without ReportTiming

  const support::json::Value* properties = doc->find("properties");
  ASSERT_NE(properties, nullptr);
  const support::json::Value* wfail = nullptr;
  for (const support::json::Value& p : properties->array) {
    for (const char* key :
         {"name", "events", "activations", "holds", "failures", "uncompleted",
          "steps", "failure_log"}) {
      ASSERT_NE(p.find(key), nullptr) << key;
    }
    if (p.find("name")->string == "wfail") wfail = &p;
  }
  ASSERT_NE(wfail, nullptr);
  EXPECT_GT(wfail->find("failures")->number, 0.0);
  const support::json::Value& log = *wfail->find("failure_log");
  ASSERT_FALSE(log.array.empty());
  const support::json::Value& first = log.array.front();
  ASSERT_NE(first.find("time_ns"), nullptr);
  const support::json::Value* witness = first.find("witness");
  ASSERT_NE(witness, nullptr);
  ASSERT_FALSE(witness->array.empty());
  const support::json::Value& entry = witness->array.front();
  ASSERT_NE(entry.find("time_ns"), nullptr);
  ASSERT_NE(entry.find("observables"), nullptr);
  EXPECT_FALSE(entry.find("observables")->object.empty());
}

// Every property the engine checks emits a fail:<name> instant per failure
// verdict, unabstracted TLM-CA properties included, on the lane of the
// shard (or the serial path) that checks it; the trace and report pass the
// standalone validator.
TEST(TraceInstants, FailingTlmCaPropertyEmitsItsInstant) {
  for (const size_t jobs : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const std::string stem =
        testing::TempDir() + "tlmca_fail_jobs" + std::to_string(jobs);
    models::RunConfig config;
    config.design = models::Design::kDes56;
    config.level = models::Level::kTlmCa;
    config.workload = 30;
    config.checkers = 99;
    config.engine.jobs = jobs;
    config.observability.trace_path = stem + ".trace.json";
    config.extra_properties.push_back(
        rtl_prop("wfail: always (!ds || next[1](rdy)) @clk_pos"));
    const models::RunResult r = models::run_simulation(config);
    ASSERT_TRUE(r.ingest_error.empty()) << r.ingest_error;
    uint64_t failures = 0;
    for (const abv::PropertyReport& p : r.report.properties()) {
      if (p.name == "wfail") failures = p.failures;
    }
    ASSERT_GT(failures, 0u);
    {
      std::ofstream report(stem + ".report.json");
      r.report.write_json(report);
    }

    std::ifstream in(config.observability.trace_path);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    const auto doc = support::json::parse(text.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const support::json::Value* events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    uint64_t instants = 0;
    for (const support::json::Value& e : events->array) {
      if (e.find("ph")->string != "i") continue;
      if (e.find("name")->string != "fail:wfail") continue;
      ++instants;
      const double tid = e.find("tid")->number;
      EXPECT_TRUE(jobs == 1 ? tid == 0 : tid >= 1 && tid <= jobs) << tid;
    }
    EXPECT_EQ(instants, failures);

#ifdef REPRO_VALIDATE_TRACE
    const std::string command = std::string(REPRO_PYTHON) + " " +
                                REPRO_VALIDATE_TRACE + " " +
                                config.observability.trace_path +
                                " --report " + stem + ".report.json --strict";
    EXPECT_EQ(std::system(command.c_str()), 0) << command;
#endif
  }
}

TEST(ReportJson, ByteIdenticalAcrossJobsWithoutTiming) {
  auto render = [](const models::RunResult& r) {
    std::ostringstream os;
    r.report.write_json(os);
    return os.str();
  };
  const std::string serial = render(witness_run(1));
  EXPECT_EQ(serial, render(witness_run(4)));
  EXPECT_EQ(serial, render(witness_run(2)));
}

TEST(ReportJson, TimingSectionCarriesMetrics) {
  const models::RunResult r = witness_run(2);
  abv::ReportTiming timing;
  timing.wall_seconds = r.wall_seconds;
  timing.jobs = 2;
  timing.records = r.transactions;
  timing.metrics = r.metrics;
  std::ostringstream os;
  r.report.write_json(os, &timing);
  std::string error;
  const auto doc = support::json::parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const support::json::Value* t = doc->find("timing");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->find("jobs")->number, 2.0);
  ASSERT_NE(t->find("records_per_sec"), nullptr);
  const support::json::Value* metrics = t->find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->find("counters"), nullptr);
  ASSERT_NE(metrics->find("counters")->find("engine.records"), nullptr);
}

// ---- JSON reader -----------------------------------------------------------------

TEST(Json, ParsesScalarsArraysAndObjects) {
  const auto doc = support::json::parse(
      R"({"a": 1.5, "b": [true, false, null], "c": {"nested": "x\n\"y\""}, "d": -3e2})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("a")->number, 1.5);
  ASSERT_EQ(doc->find("b")->array.size(), 3u);
  EXPECT_TRUE(doc->find("b")->array[0].boolean);
  EXPECT_EQ(doc->find("b")->array[2].kind, support::json::Value::Kind::kNull);
  EXPECT_EQ(doc->find("c")->find("nested")->string, "x\n\"y\"");
  EXPECT_EQ(doc->find("d")->number, -300.0);
}

TEST(Json, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(support::json::parse("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(support::json::parse("[1,]").has_value());
  EXPECT_FALSE(support::json::parse("{} trailing").has_value());
  EXPECT_FALSE(support::json::parse("\"unterminated").has_value());
}

TEST(Json, FindOnNonObjectReturnsNull) {
  const auto doc = support::json::parse("[1, 2]");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("x"), nullptr);
}

TEST(Json, DecodesUnicodeEscapes) {
  const auto doc = support::json::parse(R"({"s": "A\u0041\u00e9\u20ac"})");
  ASSERT_TRUE(doc.has_value());
  // A, A, e-acute (2-byte UTF-8), euro sign (3-byte UTF-8).
  EXPECT_EQ(doc->find("s")->string, "AA\xC3\xA9\xE2\x82\xAC");
}

TEST(Json, RejectsNonHexUnicodeEscape) {
  // Regression: strtoul used to stop at the first non-hex digit and decode
  // \uZZZZ to 0, i.e. an embedded NUL in the parsed string.
  std::string error;
  EXPECT_FALSE(support::json::parse(R"({"s": "\uZZZZ"})", &error).has_value());
  EXPECT_NE(error.find("hex"), std::string::npos) << error;
  EXPECT_FALSE(support::json::parse(R"({"s": "\u12G4"})").has_value());
  EXPECT_FALSE(support::json::parse(R"({"s": "\u123"})").has_value());
}

TEST(Json, DecodesSurrogatePairsToUtf8) {
  // The escaped pair D83D/DE00 is U+1F600, which is 4-byte UTF-8.
  const auto doc = support::json::parse(R"({"s": "\uD83D\uDE00"})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("s")->string, "\xF0\x9F\x98\x80");
}

TEST(Json, RejectsLoneSurrogates) {
  std::string error;
  EXPECT_FALSE(support::json::parse(R"({"s": "\uD83D"})", &error).has_value());
  EXPECT_NE(error.find("surrogate"), std::string::npos) << error;
  EXPECT_FALSE(support::json::parse(R"({"s": "\uD83Dx"})").has_value());
  EXPECT_FALSE(support::json::parse(R"({"s": "\uDE00"})").has_value());
  EXPECT_FALSE(support::json::parse(R"({"s": "\uD83DA"})").has_value());
}

}  // namespace
}  // namespace repro
