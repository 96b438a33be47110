// bench_arena_fanout: the dispatch-cost A/B behind the batch arena.
//
// Part 1 counts record copies directly. The legacy engine materialized one
// private std::vector<TransactionRecord> per shard for every batch — 1 copy
// at ingest plus `jobs` copies at dispatch, O(jobs) per record. The arena
// appends each record once into a shared slab and hands every shard a span
// view of it — exactly 1 copy per record, independent of the shard count.
// A copy-counting record type drives both designs over the same stream and
// prints copies-per-record plus the pure dispatch wall time.
//
// Part 2 runs the real sharded engine (checker suite, worker threads) over
// one transaction stream at max_inflight_batches = 1 (synchronous: the
// producer blocks until each batch drains), 2 (double-buffered pipeline,
// the default) and 4, reporting ingest-to-finish wall time.
//
// With REPRO_BENCH_JSON set, every row is also written to
// BENCH_arena_fanout.json (schema_version 1).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "abv/eval_engine.h"
#include "bench_table_common.h"
#include "checker/checker.h"
#include "psl/parser.h"
#include "support/batch_arena.h"
#include "tlm/transaction.h"

using namespace repro;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Part 1: copy counting -------------------------------------------------------

std::atomic<uint64_t> g_copies{0};

// Stands in for TransactionRecord: a payload heavy enough that copies are
// the dominant cost, with a global copy counter. Moves are not counted —
// both designs move the producer's record into their buffer.
struct CountingRecord {
  std::vector<uint64_t> payload;

  explicit CountingRecord(size_t words = 16) : payload(words, 0xA5) {}
  CountingRecord(const CountingRecord& other) : payload(other.payload) {
    g_copies.fetch_add(1, std::memory_order_relaxed);
  }
  CountingRecord& operator=(const CountingRecord& other) {
    payload = other.payload;
    g_copies.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  CountingRecord(CountingRecord&&) = default;
  CountingRecord& operator=(CountingRecord&&) = default;
};

struct FanoutResult {
  uint64_t copies = 0;
  double seconds = 0;
};

// The legacy fan-out: buffer a batch, then copy the whole batch into one
// private vector per shard (what per-shard ownership used to require).
FanoutResult run_legacy(size_t records, size_t jobs, size_t batch_size) {
  g_copies.store(0);
  const double start = now_s();
  std::vector<CountingRecord> open;
  open.reserve(batch_size);
  uint64_t consumed = 0;
  auto dispatch = [&] {
    for (size_t s = 0; s < jobs; ++s) {
      std::vector<CountingRecord> shard_copy(open.begin(), open.end());
      consumed += shard_copy.size();
    }
    open.clear();
  };
  for (size_t i = 0; i < records; ++i) {
    open.push_back(CountingRecord(16));  // the ingest copy (counted via copy ctor path)
    g_copies.fetch_add(1, std::memory_order_relaxed);  // model copying in from the caller
    if (open.size() == batch_size) dispatch();
  }
  if (!open.empty()) dispatch();
  FanoutResult r;
  r.seconds = now_s() - start;
  r.copies = g_copies.load() + consumed * 0;  // consumed keeps the loop alive
  return r;
}

// The arena path: one append per record; every shard reads the same span.
FanoutResult run_arena(size_t records, size_t jobs, size_t batch_size) {
  g_copies.store(0);
  const double start = now_s();
  support::BatchArena<CountingRecord> arena(batch_size);
  uint64_t consumed = 0;
  auto dispatch = [&](support::BatchArena<CountingRecord>::Span span) {
    if (span.empty()) return;
    for (size_t s = 0; s < jobs; ++s) {
      for (const CountingRecord& rec : span) consumed += rec.payload.size() ? 1 : 0;
      arena.release(span);
    }
  };
  for (size_t i = 0; i < records; ++i) {
    arena.append(CountingRecord(16));  // moved in; the one logical copy:
    g_copies.fetch_add(1, std::memory_order_relaxed);
    if (arena.pending() == batch_size) dispatch(arena.seal(static_cast<uint32_t>(jobs)));
  }
  dispatch(arena.seal(static_cast<uint32_t>(jobs)));
  FanoutResult r;
  r.seconds = now_s() - start;
  r.copies = g_copies.load() + consumed * 0;
  return r;
}

// ---- Part 2: real engine dispatch latency ----------------------------------------

psl::TlmProperty tlm_prop(const std::string& text) {
  auto result = psl::parse_tlm_property(text);
  if (!result.ok()) {
    std::fprintf(stderr, "bad property: %s\n", text.c_str());
    std::exit(1);
  }
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

double run_engine(size_t jobs, size_t batch_size, size_t max_inflight,
                  const std::vector<tlm::TransactionRecord>& stream) {
  abv::EvalEngine::Options options;
  options.config = {.jobs = jobs,
                    .batch_size = batch_size,
                    .max_inflight_batches = max_inflight};
  abv::EvalEngine engine(options);
  std::vector<std::unique_ptr<checker::PropertyChecker>> wrappers;
  for (const char* text :
       {"s1: always (!ds || next_e[1,40](rdy)) @Tb",
        "s2: always (!ds || next_e[1,80](rdy)) @Tb",
        "d1: always (!ds || (!rdy until rdy)) @Tb",
        "f1: always (!ds || next_e[1,40](out != 0)) @Tb",
        "s3: always (!ds || next_e[2,80](rdy)) @Tb",
        "s4: always (!ds || next_e[1,120](rdy)) @Tb"}) {
    wrappers.push_back(
        std::make_unique<checker::PropertyChecker>(tlm_prop(text), 10));
    engine.add(wrappers.back().get());
  }
  const double start = now_s();
  engine.on_records(stream.data(), stream.data() + stream.size());
  engine.finish();
  return now_s() - start;
}

double best_of(int repeats, const std::function<double()>& run) {
  double best = 1e100;
  for (int i = 0; i < repeats; ++i) best = std::min(best, run());
  return best;
}

std::string json_row(const char* part, const char* mode, size_t jobs,
                     size_t records, size_t max_inflight, uint64_t copies,
                     double copies_per_record, double seconds) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"part\": \"%s\", \"mode\": \"%s\", \"jobs\": %zu, "
                "\"records\": %zu, \"max_inflight\": %zu, \"copies\": %llu, "
                "\"copies_per_record\": %.3f, \"seconds\": %.6f}",
                part, mode, jobs, records, max_inflight,
                static_cast<unsigned long long>(copies), copies_per_record,
                seconds);
  return buf;
}

}  // namespace

int main() {
  bench::BenchJson json("arena_fanout");
  const size_t kRecords = bench::scaled(200000);
  const size_t kBatch = 64;

  std::printf("=== Part 1: per-record copy count, legacy fan-out vs arena "
              "(%zu records, batch %zu) ===\n", kRecords, kBatch);
  std::printf("%-8s %6s %14s %18s %12s\n", "mode", "jobs", "copies",
              "copies/record", "seconds");
  for (size_t jobs : {1, 2, 4, 8}) {
    const FanoutResult legacy = run_legacy(kRecords, jobs, kBatch);
    const FanoutResult arena = run_arena(kRecords, jobs, kBatch);
    const double legacy_cpr = double(legacy.copies) / double(kRecords);
    const double arena_cpr = double(arena.copies) / double(kRecords);
    std::printf("%-8s %6zu %14llu %18.3f %12.6f\n", "legacy", jobs,
                static_cast<unsigned long long>(legacy.copies), legacy_cpr,
                legacy.seconds);
    std::printf("%-8s %6zu %14llu %18.3f %12.6f\n", "arena", jobs,
                static_cast<unsigned long long>(arena.copies), arena_cpr,
                arena.seconds);
    json.add_raw(json_row("copies", "legacy", jobs, kRecords, 0,
                          legacy.copies, legacy_cpr, legacy.seconds));
    json.add_raw(json_row("copies", "arena", jobs, kRecords, 0,
                          arena.copies, arena_cpr, arena.seconds));
    // The whole point: legacy scales with jobs, the arena does not.
    if (arena.copies != kRecords ||
        legacy.copies != kRecords * (1 + jobs)) {
      std::fprintf(stderr, "copy-count model violated!\n");
      return 1;
    }
  }

  const size_t kEngineRecords = bench::scaled(60000);
  const size_t jobs = bench::bench_jobs();
  std::vector<tlm::TransactionRecord> stream;
  stream.reserve(kEngineRecords);
  sim::Time t = 10;
  for (size_t i = 0; i < kEngineRecords; ++i) {
    const bool fire = i % 3 == 0;
    stream.push_back(
        make_record(t, fire ? 1 : 0, fire ? 0 : 1, i % 5 == 0 ? 0 : i));
    t += i % 7 == 6 ? 130 : 40;
  }

  std::printf("\n=== Part 2: engine ingest+finish wall time, %zu records, "
              "%zu jobs ===\n", kEngineRecords, jobs);
  std::printf("%-14s %12s %14s\n", "max_inflight", "seconds", "records/s");
  for (size_t max_inflight : {1, 2, 4}) {
    const double seconds = best_of(3, [&] {
      return run_engine(jobs, kBatch, max_inflight, stream);
    });
    std::printf("%-14zu %12.4f %14.0f\n", max_inflight, seconds,
                double(kEngineRecords) / seconds);
    json.add_raw(json_row("dispatch", "arena", jobs, kEngineRecords,
                          max_inflight, 0, 0.0, seconds));
  }
  return 0;
}
