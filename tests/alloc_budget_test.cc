// Allocation budget of the steady-state TLM-AT checking path (DESIGN.md
// §20). A counting global operator new measures heap calls per transaction
// as the difference between two workloads, so the one-off cost of building the
// model, the suite, the checkers and the report cancels out and what remains
// is the per-transaction cost of simulating and checking. It also pins the
// streaming trace-log decoder's steady state (DESIGN.md §16) at zero.
//
// Built only without sanitizers: ASan and TSan replace operator new
// themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "models/testbench.h"
#include "support/tracelog.h"
#include "tlm/record_source.h"
#include "tlm/transaction.h"

namespace {

std::atomic<uint64_t> g_news{0};

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace repro {
namespace {

struct Measured {
  uint64_t news = 0;          // operator new calls during run_simulation
  uint64_t transactions = 0;  // RunResult::transactions
};

Measured measure(models::Design design, size_t workload, size_t jobs) {
  models::RunConfig config;
  config.design = design;
  config.level = models::Level::kTlmAt;
  config.workload = workload;
  config.checkers = 99;  // every property of the suite
  config.engine.jobs = jobs;
  const uint64_t before = g_news.load(std::memory_order_relaxed);
  const models::RunResult r = models::run_simulation(config);
  const uint64_t news = g_news.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(r.ingest_error.empty()) << r.ingest_error;
  EXPECT_TRUE(r.functional_ok);
  EXPECT_FALSE(r.report.properties().empty());
  return {news, r.transactions};
}

// Heap calls per transaction between workloads 2000 and 4000. The
// transaction count is the model's: every DES56 transaction delivers one
// record, while ColorConv also counts the silent reads that deliver none
// (2710 of 4142 transactions deliver a record at workload 2000).
double steady_state_news_per_transaction(models::Design design, size_t jobs) {
  const Measured small = measure(design, 2000, jobs);
  const Measured large = measure(design, 4000, jobs);
  EXPECT_GT(large.transactions, small.transactions);
  const double per_transaction =
      static_cast<double>(large.news - small.news) /
      static_cast<double>(large.transactions - small.transactions);
  std::printf("steady-state operator new calls per transaction: %.2f\n",
              per_transaction);
  return per_transaction;
}

// Budgets, with the values measured before the allocation-free path for
// scale: DES56 24.56 (jobs 1) and 32.06 (jobs 4), ColorConv 11.95.
TEST(AllocBudget, Des56TlmAtAllCheckersSerial) {
  EXPECT_LE(steady_state_news_per_transaction(models::Design::kDes56, 1), 6.0);
}

TEST(AllocBudget, Des56TlmAtAllCheckersSharded) {
  EXPECT_LE(steady_state_news_per_transaction(models::Design::kDes56, 4), 8.0);
}

TEST(AllocBudget, ColorConvTlmAtAllCheckersSerial) {
  EXPECT_LE(steady_state_news_per_transaction(models::Design::kColorConv, 1), 4.0);
}

// The first frame sizes the decoder's byte buffer and every reused record;
// frames 2..N of a 10k-record log (default 256-record frames) then decode
// without one heap call.
TEST(AllocBudget, StreamedReplayDecodesLaterFramesWithoutHeapCalls) {
  const std::string path = testing::TempDir() + "alloc_budget_stream.rtabv";
  constexpr size_t kRecords = 10000;
  {
    tlm::RecordStreamMeta meta;
    meta.design = "DES56";
    meta.level = "TLM-AT";
    meta.clock_period_ns = 10;
    support::tracelog::TraceWriter writer(path, meta);
    auto keys = std::make_shared<const tlm::Snapshot::Keys>(
        tlm::Snapshot::Keys{"ds", "rdy", "out"});
    for (size_t i = 0; i < kRecords; ++i) {
      tlm::TransactionRecord r;
      r.start = 10 * i;
      r.end = 10 * i + 7;
      r.data = {i, ~i};
      r.observables = tlm::Snapshot(keys);
      r.observables.set_at(2, i);
      writer.append(r);
    }
    ASSERT_TRUE(writer.finish()) << writer.error();
  }

  support::tracelog::TraceStreamSource source;
  ASSERT_FALSE(source.open(path).has_value());
  size_t records = source.next().size();
  ASSERT_EQ(records, 256u);
  size_t frames = 1;
  const uint64_t before = g_news.load(std::memory_order_relaxed);
  for (tlm::RecordSpan span = source.next(); !span.empty();
       span = source.next()) {
    records += span.size();
    ++frames;
  }
  const uint64_t news = g_news.load(std::memory_order_relaxed) - before;
  EXPECT_FALSE(source.error().has_value());
  EXPECT_EQ(records, kRecords);
  EXPECT_EQ(frames, (kRecords + 255) / 256);
  EXPECT_EQ(news, 0u);
}

}  // namespace
}  // namespace repro
