#include <gtest/gtest.h>

#include <sstream>

#include "abv/report.h"
#include "abv/rtl_env.h"
#include "abv/tlm_env.h"
#include "psl/parser.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "sim/signal.h"
#include "tlm/recorder.h"

namespace repro::abv {
namespace {

psl::RtlProperty rtl_prop(const std::string& text) {
  auto result = psl::parse_rtl_property(text);
  EXPECT_TRUE(result.ok()) << text;
  return result.value();
}

psl::TlmProperty tlm_prop(const std::string& text) {
  auto result = psl::parse_tlm_property(text);
  EXPECT_TRUE(result.ok()) << text;
  return result.value();
}

// ---- SignalBag ------------------------------------------------------------------

TEST(SignalBag, ReadsSignalsAndGetters) {
  sim::Kernel kernel;
  sim::Signal<uint64_t> data(kernel, "data", 5);
  sim::Signal<bool> flag(kernel, "flag", true);
  SignalBag bag;
  bag.add("data", data);
  bag.add("flag", flag);
  bag.add("derived", [] { return uint64_t{99}; });
  EXPECT_TRUE(bag.has("data"));
  EXPECT_FALSE(bag.has("nope"));
  EXPECT_EQ(bag.value("data"), 5u);
  EXPECT_EQ(bag.value("flag"), 1u);
  EXPECT_EQ(bag.value("derived"), 99u);
}

TEST(SignalBagDeathTest, UnregisteredNameAbortsWithTheName) {
  sim::Kernel kernel;
  sim::Signal<uint64_t> data(kernel, "data", 5);
  SignalBag bag;
  bag.add("data", data);
  EXPECT_DEATH(bag.value("missing_sig"),
               "signal 'missing_sig' not registered in SignalBag");
}

// ---- RtlAbvEnv -------------------------------------------------------------------

TEST(RtlAbvEnv, SamplesAfterDesignSettles) {
  // A register written at the rising edge must be visible to the checker at
  // that same edge's evaluation point (post-settle sampling).
  sim::Kernel kernel;
  sim::Clock clock(kernel, "clk", 10, 0);
  sim::Signal<uint64_t> counter(kernel, "counter", 0);
  clock.on_posedge([&] { counter.write(counter.read() + 1); });

  SignalBag bag;
  bag.add("counter", counter);
  RtlAbvEnv env(kernel, bag);
  // counter >= 1 at every sampled edge: true only with post-settle sampling
  // (the pre-edge value at the first edge is 0).
  env.add_property(rtl_prop("always (counter >= 1) @clk_pos"));
  env.attach(clock);
  kernel.run(100);
  env.finish();
  EXPECT_TRUE(env.all_ok());
  EXPECT_EQ(env.checkers()[0]->stats().events, 11u);  // edges 0..100
}

TEST(RtlAbvEnv, ClkNegPropertiesSampleFallingEdges) {
  sim::Kernel kernel;
  sim::Clock clock(kernel, "clk", 10, 0);
  sim::Signal<uint64_t> x(kernel, "x", 1);
  SignalBag bag;
  bag.add("x", x);
  RtlAbvEnv env(kernel, bag);
  env.add_property(rtl_prop("pos: always (x == 1) @clk_pos"));
  env.add_property(rtl_prop("neg: always (x == 1) @clk_neg"));
  env.add_property(rtl_prop("both: always (x == 1) @clk"));
  env.attach(clock);
  kernel.run(40);  // posedges 0..40 (5), negedges 5..35 (4)
  env.finish();
  EXPECT_EQ(env.checkers()[0]->stats().events, 5u);
  EXPECT_EQ(env.checkers()[1]->stats().events, 4u);
  EXPECT_EQ(env.checkers()[2]->stats().events, 9u);
}

TEST(RtlAbvEnv, DetectsRtlViolation) {
  sim::Kernel kernel;
  sim::Clock clock(kernel, "clk", 10, 0);
  sim::Signal<uint64_t> x(kernel, "x", 0);
  clock.on_posedge([&] { x.write(x.read() + 1); });
  SignalBag bag;
  bag.add("x", x);
  RtlAbvEnv env(kernel, bag);
  env.add_property(rtl_prop("bound: always (x <= 3) @clk_pos"));
  env.attach(clock);
  kernel.run(100);
  env.finish();
  EXPECT_FALSE(env.all_ok());
  EXPECT_GT(env.report().total_failures(), 0u);
}

// ---- TlmAbvEnv -------------------------------------------------------------------

tlm::TransactionRecord record_at(sim::Time end, uint64_t ds, uint64_t rdy) {
  static auto keys =
      std::make_shared<tlm::Snapshot::Keys>(tlm::Snapshot::Keys{"ds", "rdy"});
  tlm::TransactionRecord record;
  record.end = end;
  record.observables = tlm::Snapshot(keys);
  record.observables.set("ds", ds);
  record.observables.set("rdy", rdy);
  return record;
}

TEST(TlmAbvEnv, DrivesWrappersFromRecorder) {
  sim::Kernel kernel;
  tlm::TransactionRecorder recorder(kernel);
  TlmAbvEnv env(10);
  env.add_property(tlm_prop("q: always (!ds || next_e[1,20](rdy)) @Tb"));
  env.attach(recorder);
  kernel.schedule_at(0, [&] {
    recorder.emit(record_at(10, 1, 0));
    recorder.emit(record_at(30, 0, 1));
  });
  kernel.run_all();
  env.finish();
  EXPECT_TRUE(env.all_ok());
  EXPECT_EQ(env.wrappers()[0]->stats().transactions, 2u);
  EXPECT_EQ(env.wrappers()[0]->stats().activations, 2u);
}

TEST(TlmAbvEnv, DrivesRtlCheckersEventCounted) {
  // TLM-CA replay: an unabstracted next counts transactions.
  sim::Kernel kernel;
  tlm::TransactionRecorder recorder(kernel);
  TlmAbvEnv env(10);
  env.add_rtl_property(rtl_prop("p: always (!ds || next(rdy)) @clk_pos"));
  env.attach(recorder);
  kernel.schedule_at(0, [&] {
    recorder.emit(record_at(10, 1, 0));
    recorder.emit(record_at(20, 0, 1));
    recorder.emit(record_at(30, 1, 0));
    recorder.emit(record_at(40, 0, 0));  // violation: rdy low one event later
  });
  kernel.run_all();
  env.finish();
  EXPECT_FALSE(env.all_ok());
  Report report = env.report();
  EXPECT_EQ(report.total_failures(), 1u);
}

// ---- Report ---------------------------------------------------------------------

TEST(Report, PrintsOneRowPerProperty) {
  checker::PropertyChecker checker("demo", psl::parse_expr("always a").value(),
                                   nullptr);
  checker::MapContext ctx;
  ctx.set("a", 1);
  checker.on_event(10, ctx);
  checker.finish();
  Report report;
  report.add(checker);
  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("demo"), std::string::npos);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.total_activations(), 1u);
}

}  // namespace
}  // namespace repro::abv
