// Allocation budgets of the steady-state checking paths (DESIGN.md §20). A
// counting global operator new measures heap calls per TLM-AT transaction and
// per RTL clock cycle as the difference between two workloads, so the one-off
// cost of building the model, the suite, the checkers and the report cancels
// out and what remains is the per-unit cost of simulating and checking. It
// also pins the streaming trace-log decoder's steady state (DESIGN.md §16) at
// zero.
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
  uint64_t news = 0;   // operator new calls during run_simulation
  uint64_t units = 0;  // TLM-AT transactions, or RTL clock cycles
};

Measured measure(models::Design design, models::Level level, size_t workload,
                 size_t jobs) {
  models::RunConfig config;
  config.design = design;
  config.level = level;
  config.workload = workload;
  config.checkers = 99;  // every property of the suite
  config.engine.jobs = jobs;
  const uint64_t before = g_news.load(std::memory_order_relaxed);
  const models::RunResult r = models::run_simulation(config);
  const uint64_t news = g_news.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(r.ingest_error.empty()) << r.ingest_error;
  EXPECT_TRUE(r.functional_ok);
  EXPECT_FALSE(r.report.properties().empty());
  const uint64_t units = level == models::Level::kRtl
                             ? r.sim_end_ns / config.clock_period_ns
                             : r.transactions;
  return {news, units};
}

double steady_state_news_per_unit(models::Design design, models::Level level,
                                  size_t small_workload, size_t large_workload,
                                  size_t jobs) {
  const Measured small = measure(design, level, small_workload, jobs);
  const Measured large = measure(design, level, large_workload, jobs);
  EXPECT_GT(large.units, small.units);
  return static_cast<double>(large.news - small.news) /
         static_cast<double>(large.units - small.units);
}

// Heap calls per transaction between workloads 2000 and 4000. The
// transaction count is the model's: every DES56 transaction delivers one
// record, while ColorConv also counts the silent reads that deliver none
// (2710 of 4142 transactions deliver a record at workload 2000).
double steady_state_news_per_transaction(models::Design design, size_t jobs) {
  const double per_transaction = steady_state_news_per_unit(
      design, models::Level::kTlmAt, 2000, 4000, jobs);
  std::printf("steady-state operator new calls per transaction: %.2f\n",
              per_transaction);
  return per_transaction;
}

// Heap calls per RTL clock cycle between two workloads (DES56 operations or
// ColorConv pixels); cycles are the simulated end time over the clock period.
double steady_state_news_per_cycle(models::Design design, size_t small_workload,
                                   size_t large_workload) {
  const double per_cycle = steady_state_news_per_unit(
      design, models::Level::kRtl, small_workload, large_workload, 1);
  std::printf("steady-state operator new calls per clock cycle: %.3f\n",
              per_cycle);
  return per_cycle;
}

// Each budget is the measured value; DESIGN.md §20 tabulates what earlier
// kernels and checker paths measured. Tighten a budget only with the change
// that earns it.
TEST(AllocBudget, Des56TlmAtAllCheckersSerial) {
  EXPECT_LE(steady_state_news_per_transaction(models::Design::kDes56, 1), 2.0);
}

TEST(AllocBudget, Des56TlmAtAllCheckersSharded) {
  EXPECT_LE(steady_state_news_per_transaction(models::Design::kDes56, 4), 2.0);
}

TEST(AllocBudget, ColorConvTlmAtAllCheckersSerial) {
  EXPECT_LE(steady_state_news_per_transaction(models::Design::kColorConv, 1), 1.66);
}

// The RTL kernel and checkers allocate nothing per DES56 clock cycle;
// ColorConv measures 0.025 (140 calls over 5711 cycles).
TEST(AllocBudget, Des56RtlAllCheckersPerCycle) {
  EXPECT_LE(steady_state_news_per_cycle(models::Design::kDes56, 500, 1000), 0.0);
}

TEST(AllocBudget, ColorConvRtlAllCheckersPerCycle) {
  EXPECT_LE(
      steady_state_news_per_cycle(models::Design::kColorConv, 4000, 8000), 0.025);
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
