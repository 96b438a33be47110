// Tests for the Sec. IV wrapper: instance pool sizing (lifetime), the
// evaluation table, reset/reuse, activation rules and the Fig. 5 scenario.
#include <gtest/gtest.h>

#include "abv/snapshot_context.h"
#include "checker/checker.h"
#include "psl/parser.h"
#include "tlm/transaction.h"

namespace repro::checker {
namespace {

psl::TlmProperty tlm(const std::string& text) {
  auto result = psl::parse_tlm_property(text);
  EXPECT_TRUE(result.ok()) << text;
  return result.value();
}

void transaction(PropertyChecker& wrapper, psl::TimeNs time,
                 std::initializer_list<std::pair<const char*, uint64_t>> values) {
  MapContext ctx;
  for (const auto& [name, value] : values) ctx.set(name, value);
  wrapper.on_event(time, ctx);
}

// ---- Sec. IV point 1: allocation / lifetime ------------------------------------------

TEST(Wrapper, LifetimeMatchesPaperExample) {
  // q3 with eps = 170 and clock period 10: at most 17 instants where
  // transactions can occur in (t_fire, t_end] -> pool of 17 instances.
  PropertyChecker wrapper(tlm("q3: always (!ds || next_e[1,170](rdy)) @Tb"),
                            /*clock_period_ns=*/10);
  EXPECT_EQ(wrapper.lifetime(), 17u);
  EXPECT_EQ(wrapper.stats().pool_capacity, 17u);
}

TEST(Wrapper, UnboundedLifetimeForUntilProperties) {
  PropertyChecker wrapper(tlm("always (!ds || (!rdy until rdy)) @Tb"), 10);
  EXPECT_EQ(wrapper.lifetime(), 0u);
  EXPECT_EQ(wrapper.stats().pool_capacity, 0u);  // grows on demand
}

TEST(Wrapper, LifetimeUsesLongestPath) {
  PropertyChecker wrapper(
      tlm("always (!ds || (next_e[1,30](a) && next_e[2,50](b))) @Tb"), 10);
  EXPECT_EQ(wrapper.lifetime(), 5u);
}

TEST(Wrapper, LifetimeRoundsUpNonMultipleWindows) {
  // eps = 25 at a 10 ns clock: truncating division would size the pool at 2
  // and miss the instant covering the final partial period; the lifetime
  // must be ceil(25/10) = 3.
  const psl::TlmProperty q = tlm("always (!ds || next_e[1,25](rdy)) @Tb");
  PropertyChecker wrapper(q, /*clock_period_ns=*/10);
  EXPECT_EQ(wrapper.lifetime(), 3u);
  EXPECT_EQ(wrapper.stats().pool_capacity, 3u);

  const LifetimeInfo info = compute_lifetime(q.formula, 10);
  EXPECT_TRUE(info.bounded);
  EXPECT_EQ(info.instants, 3u);
  EXPECT_EQ(info.max_eps, 25u);
}

// ---- Sec. IV points 2-4: evaluation, reuse, activation ---------------------------------

TEST(Wrapper, PassingScenarioQ3) {
  PropertyChecker wrapper(tlm("always (!ds || next_e[1,170](rdy)) @Tb"), 10);
  transaction(wrapper, 100, {{"ds", 1}, {"rdy", 0}});
  transaction(wrapper, 110, {{"ds", 0}, {"rdy", 0}});
  transaction(wrapper, 270, {{"ds", 0}, {"rdy", 1}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 0u);
  EXPECT_EQ(wrapper.stats().activations, 3u);
  // All three sessions resolved: two trivially (ds low), one at 270 ns.
  EXPECT_EQ(wrapper.stats().holds, 3u);
}

TEST(Wrapper, MissedEvaluationPointRaisesFailureAtNextTransaction) {
  // Fig. 5: an instance expected at t_fire+170 whose instant passes without
  // a transaction fails when the next (later) transaction arrives.
  PropertyChecker wrapper(tlm("always (!ds || next_e[1,170](rdy)) @Tb"), 10);
  transaction(wrapper, 100, {{"ds", 1}, {"rdy", 0}});
  transaction(wrapper, 350, {{"ds", 0}, {"rdy", 1}});  // 270 was missed
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 1u);
  ASSERT_EQ(wrapper.failures().size(), 1u);
  EXPECT_EQ(wrapper.failures()[0].time, 350u);
}

TEST(Wrapper, EarlyTransactionsAreNotConsumed) {
  // Transactions before t_fire+eps must not consume the evaluation point.
  PropertyChecker wrapper(tlm("always (!ds || next_e[1,170](rdy)) @Tb"), 10);
  transaction(wrapper, 100, {{"ds", 1}, {"rdy", 0}});
  transaction(wrapper, 150, {{"ds", 0}, {"rdy", 0}});
  transaction(wrapper, 200, {{"ds", 0}, {"rdy", 0}});
  transaction(wrapper, 270, {{"ds", 0}, {"rdy", 1}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 0u);
}

TEST(Wrapper, InstancesAreRecycled) {
  PropertyChecker wrapper(tlm("always (!ds || next_e[1,20](rdy)) @Tb"), 10);
  // Many sessions, all trivially true: the pool (2 instances) must serve all
  // of them through reuse.
  for (int i = 0; i < 50; ++i) {
    transaction(wrapper, 10 * (i + 1), {{"ds", 0}, {"rdy", 0}});
  }
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().activations, 50u);
  EXPECT_EQ(wrapper.stats().pool_capacity, 2u);  // never grew
  EXPECT_GE(wrapper.stats().reuses, 48u);
}

TEST(Wrapper, EvaluationTableOnlyWakesDueInstances) {
  PropertyChecker wrapper(tlm("always (!ds || next_e[1,170](rdy)) @Tb"), 10);
  transaction(wrapper, 100, {{"ds", 1}, {"rdy", 0}});
  const uint64_t steps_after_firing = wrapper.stats().steps;
  // Early transactions: the scheduled instance must not be stepped at all.
  transaction(wrapper, 110, {{"ds", 0}, {"rdy", 0}});
  transaction(wrapper, 120, {{"ds", 0}, {"rdy", 0}});
  // Each early transaction costs exactly one step: the (trivially resolved)
  // new activation; the pending instance sleeps in the table.
  EXPECT_EQ(wrapper.stats().steps, steps_after_firing + 2);
  transaction(wrapper, 270, {{"ds", 0}, {"rdy", 1}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 0u);
}

TEST(Wrapper, TransactionContextGuardGatesActivation) {
  PropertyChecker wrapper(
      tlm("always (!ds || next_e[1,20](rdy)) @Tb && monitor_en"), 10);
  transaction(wrapper, 10, {{"ds", 1}, {"rdy", 0}, {"monitor_en", 0}});
  transaction(wrapper, 20, {{"ds", 0}, {"rdy", 0}, {"monitor_en", 1}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().activations, 1u);  // only the guarded-in event
}

TEST(Wrapper, DenseUntilInstancesSeeEveryTransaction) {
  PropertyChecker wrapper(tlm("always (!ds || (!rdy until rdy)) @Tb"), 10);
  transaction(wrapper, 10, {{"ds", 1}, {"rdy", 0}});
  transaction(wrapper, 20, {{"ds", 0}, {"rdy", 0}});
  transaction(wrapper, 30, {{"ds", 0}, {"rdy", 1}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 0u);
  EXPECT_EQ(wrapper.stats().holds, 3u);
}

TEST(Wrapper, DetectsWrongTlmImplementation) {
  // rdy arrives on time but out is 0: the data check fails.
  PropertyChecker wrapper(
      tlm("always (!ds || next_e[1,30](out != 0)) @Tb"), 10);
  transaction(wrapper, 10, {{"ds", 1}, {"out", 0}});
  transaction(wrapper, 40, {{"ds", 0}, {"out", 0}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 1u);
}

TEST(Wrapper, UncompletedInstancesAreNotFailures) {
  PropertyChecker wrapper(tlm("always (!ds || next_e[1,170](rdy)) @Tb"), 10);
  transaction(wrapper, 100, {{"ds", 1}, {"rdy", 0}});
  wrapper.finish();  // simulation ends before the evaluation point
  EXPECT_EQ(wrapper.stats().failures, 0u);
  EXPECT_EQ(wrapper.stats().holds, 1u);  // weakly satisfied at truncation
}

TEST(Wrapper, EventuallyStrongFailsAtFinish) {
  PropertyChecker wrapper(tlm("always (!ds || eventually! rdy) @Tb"), 10);
  transaction(wrapper, 10, {{"ds", 1}, {"rdy", 0}});
  transaction(wrapper, 20, {{"ds", 0}, {"rdy", 0}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 1u);
}

TEST(Wrapper, MissedDeadlineStrictlyBeforeNextTransaction) {
  // Two pending instances with different deadlines; the next transaction
  // arrives after the earlier deadline but exactly on the later one. Only
  // the earlier instance missed its evaluation point.
  PropertyChecker wrapper(tlm("always (!ds || next_e[1,40](rdy)) @Tb"), 10);
  transaction(wrapper, 100, {{"ds", 1}, {"rdy", 0}});  // deadline 140
  transaction(wrapper, 150, {{"ds", 1}, {"rdy", 0}});  // 140 missed; dl 190
  transaction(wrapper, 190, {{"ds", 0}, {"rdy", 1}});  // 190 met on time
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 1u);
  ASSERT_EQ(wrapper.failures().size(), 1u);
  // The miss is detected (and logged) at the transaction that exposed it.
  EXPECT_EQ(wrapper.failures()[0].time, 150u);
  EXPECT_EQ(wrapper.stats().holds, 2u);  // the on-time instance + trivial
}

TEST(Wrapper, EndOfSimDenseFailureLoggedAtLastEventTime) {
  // A strong obligation that fails at end-of-sim must be attributed to the
  // last observed transaction time, not t=0.
  PropertyChecker wrapper(tlm("always (!ds || eventually! rdy) @Tb"), 10);
  transaction(wrapper, 10, {{"ds", 1}, {"rdy", 0}});
  transaction(wrapper, 250, {{"ds", 0}, {"rdy", 0}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 1u);
  ASSERT_EQ(wrapper.failures().size(), 1u);
  EXPECT_EQ(wrapper.failures()[0].time, 250u);
}

TEST(Wrapper, EndOfSimTableFailureNotReportedAfterLastEvent) {
  // A scheduled instance whose deadline (60) lies beyond the end of the
  // trace and that resolves false at finish() must not be reported at a
  // time later than the last observed transaction.
  PropertyChecker wrapper(tlm("q: always (!ds || !next_e[1,50](rdy)) @Tb"),
                            10);
  transaction(wrapper, 10, {{"ds", 1}, {"rdy", 0}});
  wrapper.finish();  // next_e resolves weakly true; the negation fails
  EXPECT_EQ(wrapper.stats().failures, 1u);
  ASSERT_EQ(wrapper.failures().size(), 1u);
  EXPECT_EQ(wrapper.failures()[0].time, 10u);
}

TEST(Wrapper, UnboundedFreePoolIsCappedAtInUseHighWaterMark) {
  // Until-based property: the pool grows only when every instance is in
  // use, so it never holds more instances than were ever in use at once,
  // counting the one held at a firing. Derivation (in use = scheduled +
  // dense + the acquired instance):
  //   10: pool empty, A allocated (capacity 1, in use 1), pending -> dense.
  //   20: A pending; the firing finds the pool empty and allocates B
  //       (capacity 2, in use 2: A dense + B held). B resolves trivially
  //       and is pooled: pool 0 < 2.
  //   30: A resolves and is pooled: pool 1 < 2. The vacuous firing reuses
  //       the top instance (A) and pools it again.
  // The high-water mark (2) is never exceeded; both instances stay alive.
  PropertyChecker wrapper(tlm("always (!ds || (!rdy until rdy)) @Tb"), 10);
  transaction(wrapper, 10, {{"ds", 1}, {"rdy", 0}});  // A allocated, dense
  EXPECT_EQ(wrapper.stats().pool_capacity, 1u);
  transaction(wrapper, 20, {{"ds", 0}, {"rdy", 0}});  // B allocated, trivial
  EXPECT_EQ(wrapper.stats().pool_capacity, 2u);
  transaction(wrapper, 30, {{"ds", 0}, {"rdy", 1}});  // A resolves: pooled
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 0u);
  // Live instances (both pooled, nothing in use) match the high-water mark.
  EXPECT_EQ(wrapper.stats().pool_capacity, 2u);
}

TEST(Wrapper, BoundedPoolIsNeverDropped) {
  // Time-scheduled properties keep their statically sized pool.
  PropertyChecker wrapper(tlm("always (!ds || next_e[1,20](rdy)) @Tb"), 10);
  for (int i = 0; i < 20; ++i) {
    transaction(wrapper, 10 * (i + 1), {{"ds", 0}, {"rdy", 0}});
  }
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().pool_capacity, 2u);
}

TEST(Wrapper, TablePeakTracksConcurrentScheduledInstances) {
  PropertyChecker wrapper(tlm("always (!ds || next_e[1,170](rdy)) @Tb"), 10);
  for (int i = 0; i < 5; ++i) {
    transaction(wrapper, 10 * (i + 1), {{"ds", 1}, {"rdy", 0}});
  }
  EXPECT_EQ(wrapper.stats().table_peak, 5u);
  wrapper.finish();
}

// ---- Anchor-resolved sessions (DESIGN.md §17) -----------------------------------
//
// A session whose derived antecedent is false at its firing transaction is
// counted as a trivial vacuous hold without stepping a pooled instance, but
// the pool arithmetic must be exactly that of the full path: a reuse when
// the pool is non-empty, an allocation when it is empty. The expectations below are computed
// by hand from the full path; each case runs by name and by slot.

class WrapperAnchor : public ::testing::TestWithParam<bool> {
 protected:
  // One transaction carrying ds/rdy, by name or through a positional
  // dictionary (the slot-bound fast path).
  void send(PropertyChecker& wrapper, psl::TimeNs time, uint64_t ds,
            uint64_t rdy) {
    if (!GetParam()) {
      transaction(wrapper, time, {{"ds", ds}, {"rdy", rdy}});
      return;
    }
    tlm::Snapshot snap(keys_);
    snap.set("ds", ds);
    snap.set("rdy", rdy);
    wrapper.on_event(time, abv::ObservablesContext(snap));
  }

 private:
  std::shared_ptr<const tlm::Snapshot::Keys> keys_ =
      std::make_shared<const tlm::Snapshot::Keys>(
          tlm::Snapshot::Keys{"rdy", "ds"});
};

TEST_P(WrapperAnchor, BoundedPoolReusesWithoutGrowing) {
  // Lifetime 2: two pre-allocated instances serve every session.
  PropertyChecker wrapper(tlm("always (!ds || next_e[1,20](rdy)) @Tb"), 10);
  send(wrapper, 10, 1, 0);  // reuse 1, scheduled for 30
  send(wrapper, 20, 0, 0);  // vacuous: reuse 2, back on the pool
  send(wrapper, 30, 1, 1);  // due instance holds; reuse 3, scheduled for 50
  send(wrapper, 40, 0, 0);  // vacuous: reuse 4
  send(wrapper, 50, 0, 1);  // due instance holds; vacuous: reuse 5
  wrapper.finish();
  const CheckerStats& s = wrapper.stats();
  EXPECT_EQ(s.activations, 5u);
  EXPECT_EQ(s.reuses, 5u);
  EXPECT_EQ(s.pool_capacity, 2u);
  EXPECT_EQ(s.table_peak, 1u);
  EXPECT_EQ(s.trivial, 3u);
  EXPECT_EQ(s.holds, 5u);
  EXPECT_EQ(s.vacuous_passes, 3u);
  EXPECT_EQ(s.real_passes, 2u);
  EXPECT_EQ(s.steps, 7u);  // 5 anchors + 2 due evaluations
}

TEST_P(WrapperAnchor, UnboundedPoolAtTheDropCap) {
  // Until-based: the pool grows to the in-use high-water mark, which the
  // firing at 20 raises to 2 (A dense + B held), and the fast path's reuses
  // keep it there.
  PropertyChecker wrapper(tlm("always (!ds || (!rdy until rdy)) @Tb"), 10);
  send(wrapper, 10, 1, 0);  // A allocated (capacity 1, in use 1), dense
  send(wrapper, 20, 0, 0);  // empty pool: B allocated (capacity 2, in use 2),
                            // trivial, pooled: [B]
  send(wrapper, 30, 0, 1);  // A holds, pooled: [B, A];
                            // vacuous: reuse 1 of A, pooled again: [B, A]
  EXPECT_EQ(wrapper.stats().pool_capacity, 2u);
  EXPECT_EQ(wrapper.stats().reuses, 1u);
  send(wrapper, 40, 1, 0);  // reuse 2 of A, dense; pool [B]
  send(wrapper, 50, 0, 0);  // vacuous: reuse 3 of B (in use 2), pooled: [B]
  send(wrapper, 60, 0, 1);  // A holds, pooled: [B, A]; vacuous: reuse 4 of A
  wrapper.finish();
  const CheckerStats& s = wrapper.stats();
  EXPECT_EQ(s.activations, 6u);
  EXPECT_EQ(s.reuses, 4u);
  EXPECT_EQ(s.pool_capacity, 2u);
  EXPECT_EQ(s.table_peak, 0u);
  EXPECT_EQ(s.trivial, 4u);
  EXPECT_EQ(s.holds, 6u);
  EXPECT_EQ(s.vacuous_passes, 4u);
}

TEST_P(WrapperAnchor, UnboundedPoolKeepsItsBurstHighWaterMark) {
  // Three concurrent sessions, then one at a time. An instance is allocated
  // only when every other one is in use, so the capacity never exceeds the
  // in-use high-water mark: after the burst the three instances stay
  // pooled.
  PropertyChecker wrapper(tlm("always (!ds || (!rdy until rdy)) @Tb"), 10);
  send(wrapper, 10, 1, 0);  // A allocated (capacity 1), dense
  send(wrapper, 20, 1, 0);  // B allocated (capacity 2), dense
  send(wrapper, 30, 1, 0);  // C allocated (capacity 3, in use 3), dense
  send(wrapper, 40, 0, 1);  // A, B, C hold, pooled: [A, B, C];
                            // vacuous: reuse 1 of C, pooled again
  EXPECT_EQ(wrapper.stats().pool_capacity, 3u);
  for (psl::TimeNs t = 50; t < 110; t += 20) {
    send(wrapper, t, 1, 0);       // reuse of C, dense; pool [A, B]
    send(wrapper, t + 10, 0, 1);  // C holds, pooled; vacuous: reuse of C
  }
  wrapper.finish();
  const CheckerStats& s = wrapper.stats();
  EXPECT_EQ(s.activations, 10u);
  EXPECT_EQ(s.reuses, 7u);  // 1 at 40, then 2 per single-session round
  EXPECT_EQ(s.pool_capacity, 3u);
  EXPECT_EQ(s.holds, 10u);
  EXPECT_EQ(s.trivial, 4u);
}

TEST_P(WrapperAnchor, AlternatingUntilFiringsNeverChurn) {
  // Regression: a real session is still pending when the next (vacuous)
  // firing acquires an instance, and resolves at the firing after that.
  // A free-pool cap that counted only scheduled + dense instances once
  // made every other firing allocate and every resolution drop an
  // instance. The pool settles at 2 and later firings only reuse.
  PropertyChecker wrapper(
      tlm("always (!ds || next[1](!rdy until rdy)) @Tb"), 10);
  for (uint64_t i = 0; i < 1000; ++i) {
    const bool real = i % 2 == 0;
    send(wrapper, 10 * (i + 1), real ? 1 : 0, real ? 1 : 0);
  }
  wrapper.finish();
  const CheckerStats& s = wrapper.stats();
  EXPECT_EQ(s.activations, 1000u);
  EXPECT_EQ(s.pool_capacity, 2u);
  EXPECT_EQ(s.reuses, 998u);  // only the first two firings allocate
  EXPECT_EQ(s.real_passes, 500u);
  EXPECT_EQ(s.vacuous_passes, 500u);
  EXPECT_EQ(s.failures, 0u);
}

TEST_P(WrapperAnchor, EmptyPoolOnFirstActivationAllocates) {
  PropertyChecker wrapper(tlm("always (!ds || (!rdy until rdy)) @Tb"), 10);
  EXPECT_EQ(wrapper.stats().pool_capacity, 0u);
  send(wrapper, 10, 0, 0);  // full path: allocated, retired, pooled
  EXPECT_EQ(wrapper.stats().pool_capacity, 1u);
  EXPECT_EQ(wrapper.stats().reuses, 0u);
  send(wrapper, 20, 0, 0);  // pooled instance counted as a reuse
  wrapper.finish();
  const CheckerStats& s = wrapper.stats();
  EXPECT_EQ(s.activations, 2u);
  EXPECT_EQ(s.reuses, 1u);
  EXPECT_EQ(s.pool_capacity, 1u);
  EXPECT_EQ(s.table_peak, 0u);
  EXPECT_EQ(s.trivial, 2u);
  EXPECT_EQ(s.vacuous_passes, 2u);
  EXPECT_EQ(wrapper.latency_histogram().total(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Path, WrapperAnchor, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "BySlot" : "ByName";
                         });

}  // namespace
}  // namespace repro::checker
