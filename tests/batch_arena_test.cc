// Tests for the zero-copy batch arena and the pipelined dispatch built on
// it: slab recycling (epoch bumps, free-list reuse, multi-reader release),
// and the engine-level edge cases — max_inflight=1 degenerate pipelining,
// failure witnesses outliving recycled segments, empty-tail finish, and the
// segment-count bound implied by backpressure.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "abv/eval_engine.h"
#include "checker/checker.h"
#include "psl/parser.h"
#include "support/batch_arena.h"
#include "support/metrics.h"
#include "tlm/transaction.h"

namespace repro {
namespace {

// ---- BatchArena ------------------------------------------------------------------

TEST(BatchArena, AppendSealReleaseRecyclesSlab) {
  support::BatchArena<int> arena(/*reserve=*/8);
  arena.append(1);
  arena.append(2);
  arena.append(3);
  EXPECT_EQ(arena.pending(), 3u);

  auto span = arena.seal(/*readers=*/1);
  EXPECT_EQ(arena.pending(), 0u);
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span.data()[0], 1);
  EXPECT_EQ(span.data()[2], 3);
  EXPECT_EQ(span.epoch(), 0u);

  EXPECT_TRUE(arena.release(span));  // sole reader: recycles
  const auto stats = arena.stats();
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.segments_sealed, 1u);
  EXPECT_EQ(stats.segments_allocated, 1u);
  EXPECT_EQ(stats.segments_recycled, 1u);

  // The next batch reuses the recycled slab instead of allocating.
  arena.append(4);
  auto span2 = arena.seal(1);
  EXPECT_EQ(arena.stats().segments_allocated, 1u);
  EXPECT_EQ(span2.epoch(), 1u);  // epoch bumped by the recycle
  ASSERT_EQ(span2.size(), 1u);
  EXPECT_EQ(span2.data()[0], 4);
  arena.release(span2);
}

TEST(BatchArena, EmptySealYieldsEmptySpanAndSealsNothing) {
  support::BatchArena<int> arena;
  auto span = arena.seal(4);
  EXPECT_TRUE(span.empty());
  EXPECT_EQ(span.size(), 0u);
  EXPECT_FALSE(arena.release(span));  // releasing an empty span: no-op
  const auto stats = arena.stats();
  EXPECT_EQ(stats.segments_sealed, 0u);
  EXPECT_EQ(stats.segments_allocated, 0u);
  EXPECT_EQ(stats.segments_recycled, 0u);
}

TEST(BatchArena, OnlyLastOfManyReadersRecycles) {
  support::BatchArena<std::string> arena;
  arena.append("a");
  arena.append("b");
  auto span = arena.seal(/*readers=*/3);

  EXPECT_FALSE(arena.release(span));
  // The slab must stay intact while readers remain.
  EXPECT_EQ(span.data()[0], "a");
  EXPECT_EQ(span.data()[1], "b");
  EXPECT_FALSE(arena.release(span));
  EXPECT_EQ(span.data()[1], "b");
  EXPECT_TRUE(arena.release(span));
  EXPECT_EQ(arena.stats().segments_recycled, 1u);
}

TEST(BatchArena, EpochBumpsOnEveryRecycleAndSlabIsReused) {
  support::BatchArena<int> arena(4);
  for (uint64_t round = 0; round < 16; ++round) {
    arena.append(static_cast<int>(round));
    auto span = arena.seal(1);
    EXPECT_EQ(span.epoch(), round);
    EXPECT_TRUE(arena.release(span));
  }
  const auto stats = arena.stats();
  EXPECT_EQ(stats.segments_allocated, 1u);  // one slab serves every round
  EXPECT_EQ(stats.segments_sealed, 16u);
  EXPECT_EQ(stats.segments_recycled, 16u);
}

TEST(BatchArena, SupportsMoveOnlyRecords) {
  support::BatchArena<std::unique_ptr<int>> arena;
  arena.append(std::make_unique<int>(7));
  auto span = arena.seal(1);
  ASSERT_EQ(span.size(), 1u);
  EXPECT_EQ(*span.data()[0], 7);
  EXPECT_TRUE(arena.release(span));
}

TEST(BatchArena, ConcurrentReadersAllSeeTheSameSlab) {
  support::BatchArena<int> arena(64);
  constexpr int kRecords = 64;
  constexpr uint32_t kReaders = 4;
  for (int i = 0; i < kRecords; ++i) arena.append(i);
  auto span = arena.seal(kReaders);

  std::atomic<int> recycles{0};
  std::atomic<int> sum_errors{0};
  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      long long sum = 0;
      for (const int v : span) sum += v;
      if (sum != kRecords * (kRecords - 1) / 2) sum_errors.fetch_add(1);
      if (arena.release(span)) recycles.fetch_add(1);
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(sum_errors.load(), 0);
  EXPECT_EQ(recycles.load(), 1);  // exactly one last reader
  EXPECT_EQ(arena.stats().segments_recycled, 1u);
}

// ---- PipelineDispatch ------------------------------------------------------------

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

std::vector<psl::TlmProperty> small_suite() {
  return {
      tlm_prop("s1: always (!ds || next_e[1,40](rdy)) @Tb"),
      tlm_prop("d1: always (!ds || (!rdy until rdy)) @Tb"),
      tlm_prop("f1: always (!ds || next_e[1,40](out != 0)) @Tb"),
  };
}

std::vector<tlm::TransactionRecord> mixed_stream(size_t n) {
  std::vector<tlm::TransactionRecord> out;
  sim::Time t = 10;
  for (size_t i = 0; i < n; ++i) {
    const bool fire = i % 3 == 0;
    const bool gap = i % 7 == 6;
    const uint64_t data = i % 5 == 0 ? 0 : i;  // zeros fail f1
    out.push_back(make_record(t, fire ? 1 : 0, fire ? 0 : 1, data));
    t += gap ? 130 : 40;
  }
  return out;
}

enum class Ingest { kCopy, kMove, kBulk };

struct SuiteRun {
  std::vector<std::unique_ptr<checker::PropertyChecker>> wrappers;
};

SuiteRun run_suite(abv::EngineConfig config, size_t records,
                   support::MetricsRegistry* metrics = nullptr,
                   Ingest ingest = Ingest::kCopy) {
  SuiteRun run;
  abv::EvalEngine::Options options;
  options.config = config;
  options.metrics = metrics;
  abv::EvalEngine engine(options);
  for (const psl::TlmProperty& p : small_suite()) {
    run.wrappers.push_back(std::make_unique<checker::PropertyChecker>(p, 10));
    engine.add(run.wrappers.back().get());
  }
  std::vector<tlm::TransactionRecord> stream = mixed_stream(records);
  switch (ingest) {
    case Ingest::kCopy:
      for (const tlm::TransactionRecord& r : stream) engine.on_record(r);
      break;
    case Ingest::kMove:
      for (tlm::TransactionRecord& r : stream) engine.on_record(std::move(r));
      break;
    case Ingest::kBulk:
      engine.on_records(stream.data(), stream.data() + stream.size());
      break;
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
    EXPECT_EQ(wa.stats().events, wb.stats().events) << wa.name();
    EXPECT_EQ(wa.stats().activations, wb.stats().activations) << wa.name();
    EXPECT_EQ(wa.stats().failures, wb.stats().failures) << wa.name();
    EXPECT_EQ(wa.stats().holds, wb.stats().holds) << wa.name();
    ASSERT_EQ(wa.failures().size(), wb.failures().size()) << wa.name();
    for (size_t k = 0; k < wa.failures().size(); ++k) {
      EXPECT_EQ(wa.failures()[k].time, wb.failures()[k].time) << wa.name();
    }
  }
}

TEST(PipelineDispatch, MaxInflightOneDegeneratesToSynchronousDispatch) {
  // max_inflight_batches=1 removes the pipeline overlap (the producer
  // blocks until each batch drains) but must not change any verdict.
  const SuiteRun serial = run_suite({.jobs = 1}, /*records=*/200);
  const SuiteRun sync = run_suite(
      {.jobs = 3, .batch_size = 8, .max_inflight_batches = 1}, 200);
  expect_identical(serial, sync);
  const SuiteRun pipelined = run_suite(
      {.jobs = 3, .batch_size = 8, .max_inflight_batches = 4}, 200);
  expect_identical(serial, pipelined);
}

TEST(PipelineDispatch, MoveAndBulkIngestMatchPerRecordCopyIngest) {
  const abv::EngineConfig config{
      .jobs = 3, .batch_size = 16, .max_inflight_batches = 2};
  const SuiteRun copied = run_suite(config, 150, nullptr, Ingest::kCopy);
  const SuiteRun moved = run_suite(config, 150, nullptr, Ingest::kMove);
  const SuiteRun bulk = run_suite(config, 150, nullptr, Ingest::kBulk);
  expect_identical(copied, moved);
  expect_identical(copied, bulk);
}

TEST(PipelineDispatch, WitnessRingSurvivesArenaRecycling) {
  // Tiny batches over a long stream force many segment recycles; every
  // logged failure witness must still carry the observables it saw, because
  // witness capture deep-copies them out of the (recycled) slab. The
  // witness contents must also match the serial run exactly.
  const SuiteRun serial = run_suite({.jobs = 1}, /*records=*/300);
  const SuiteRun sharded = run_suite(
      {.jobs = 3, .batch_size = 4, .max_inflight_batches = 2}, 300);
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
  const SuiteRun run = run_suite({.jobs = 4}, /*records=*/0, &metrics);
  for (const auto& w : run.wrappers) {
    EXPECT_EQ(w->stats().events, 0u);
    EXPECT_EQ(w->stats().activations, 0u);
  }
  const support::MetricsSnapshot snap = metrics.snapshot();
  // The arena counters exist (deterministic key set) but saw no traffic.
  EXPECT_EQ(snap.counters.at("engine.arena_records"), 0u);
  EXPECT_EQ(snap.counters.at("engine.arena_segments"), 0u);
  EXPECT_EQ(snap.counters.at("engine.arena_recycled"), 0u);
  EXPECT_EQ(snap.counters.at("engine.batches"), 0u);
}

TEST(PipelineDispatch, ArenaSlabsBoundedByMaxInflight) {
  // Backpressure caps sealed-but-undrained batches at max_inflight, so the
  // arena never holds more than max_inflight + 1 slabs (the +1 is the open
  // segment the producer fills) no matter how long the stream runs.
  for (const size_t max_inflight : {size_t{1}, size_t{2}, size_t{4}}) {
    support::MetricsRegistry metrics(/*lanes=*/4);
    run_suite({.jobs = 3, .batch_size = 8,
               .max_inflight_batches = max_inflight},
              /*records=*/400, &metrics);
    const support::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.counters.at("engine.arena_records"), 400u);
    EXPECT_LE(snap.counters.at("engine.arena_segments"), max_inflight + 1)
        << "max_inflight " << max_inflight;
    // Every sealed segment was recycled by its last reader.
    EXPECT_EQ(snap.counters.at("engine.arena_recycled"),
              snap.counters.at("engine.batches"));
    EXPECT_LE(snap.gauges.at("engine.inflight_peak"), max_inflight);
    EXPECT_GE(snap.gauges.at("engine.inflight_peak"), 1u);
  }
}

}  // namespace
}  // namespace repro
