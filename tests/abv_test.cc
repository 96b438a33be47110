#include <gtest/gtest.h>

#include <sstream>

#include "abv/report.h"
#include "abv/rtl_env.h"
#include "abv/tlm_env.h"
#include "analysis/prune.h"
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
  uint64_t derived = 99;
  bag.add("derived", [&derived] { return derived; });
  // The key table lists the names in map order; one sample reads every
  // getter into the snapshot built over it.
  const std::shared_ptr<const tlm::Snapshot::Keys> keys = bag.keys();
  EXPECT_EQ(*keys, (tlm::Snapshot::Keys{"data", "derived", "flag"}));
  EXPECT_EQ(bag.keys(), keys);  // shared until the next add()
  tlm::Snapshot snapshot(keys);
  bag.sample_into(snapshot);
  EXPECT_EQ(snapshot.get("data"), 5u);
  EXPECT_EQ(snapshot.get("flag"), 1u);
  EXPECT_EQ(snapshot.get("derived"), 99u);
  EXPECT_EQ(snapshot.get("nope"), std::nullopt);
  derived = 100;  // every sample reads the getters afresh
  bag.sample_into(snapshot);
  EXPECT_EQ(snapshot.get("derived"), 100u);
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
  env.bind();
  recorder.subscribe([&](const tlm::TransactionRecord& record) {
    env.on_records(&record, &record + 1);
  });
  kernel.schedule_at(0, [&] {
    recorder.emit(record_at(10, 1, 0));
    recorder.emit(record_at(30, 0, 1));
  });
  kernel.run_all();
  env.finish();
  EXPECT_TRUE(env.all_ok());
  EXPECT_EQ(env.wrappers()[0]->stats().events, 2u);
  EXPECT_EQ(env.wrappers()[0]->stats().activations, 2u);
}

TEST(TlmAbvEnv, DrivesRtlCheckersEventCounted) {
  // TLM-CA replay: an unabstracted next counts transactions.
  sim::Kernel kernel;
  tlm::TransactionRecorder recorder(kernel);
  TlmAbvEnv env(10);
  env.add_rtl_property(rtl_prop("p: always (!ds || next(rdy)) @clk_pos"));
  env.bind();
  recorder.subscribe([&](const tlm::TransactionRecord& record) {
    env.on_records(&record, &record + 1);
  });
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

// ---- Prune runtime, per registration path -----------------------------------------
//
// The prune plan's runtime contract (abv/env.h), driven with a
// hand-built plan through every way a property registers: RtlAbvEnv's
// clock-sampled checkers, and TlmAbvEnv's wrappers (add_property) and plain
// checkers (add_rtl_property).

enum class EnvPath { kRtl, kTlmWrapper, kTlmChecker };

std::string env_path_name(const ::testing::TestParamInfo<EnvPath>& info) {
  switch (info.param) {
    case EnvPath::kRtl: return "Rtl";
    case EnvPath::kTlmWrapper: return "TlmWrapper";
    case EnvPath::kTlmChecker: return "TlmChecker";
  }
  return "?";
}

analysis::PruneDecision elided(const std::string& name, bool verdict) {
  analysis::PruneDecision d;
  d.name = name;
  d.action = analysis::PruneAction::kElide;
  d.static_verdict = verdict;
  return d;
}

analysis::PruneDecision subsumed(const std::string& name,
                                 const std::string& by) {
  analysis::PruneDecision d;
  d.name = name;
  d.action = analysis::PruneAction::kSubsumed;
  d.subsumed_by = by;
  return d;
}

analysis::PrunePlan plan_of(std::vector<analysis::PruneDecision> decisions) {
  analysis::PrunePlan plan;
  plan.mode = analysis::PruneMode::kAggressive;
  plan.decisions = std::move(decisions);
  return plan;
}

// One environment under `plan`, registering every property through `path`
// as `<name>: always (<body>)`, evaluated at every sample of `x`; the shared
// core (report, verdict, audit) is read through `->`.
class PlannedEnv {
 public:
  PlannedEnv(EnvPath path, const analysis::PrunePlan& plan,
             bool cross_check = false)
      : path_(path) {
    env_->set_prune_plan(&plan, cross_check);
  }

  void add(const std::string& name, const std::string& body) {
    const std::string text = name + ": always (" + body + ")";
    switch (path_) {
      case EnvPath::kRtl:
        rtl_.add_property(rtl_prop(text + " @clk_pos"));
        break;
      case EnvPath::kTlmWrapper:
        tlm_.add_property(tlm_prop(text + " @Tb"));
        break;
      case EnvPath::kTlmChecker:
        tlm_.add_rtl_property(rtl_prop(text + " @clk_pos"));
        break;
    }
  }

  // One record (a rising-edge sample at RTL) per value, 10 ns apart, then
  // finish.
  void run(const std::vector<uint64_t>& xs) {
    static const auto keys =
        std::make_shared<tlm::Snapshot::Keys>(tlm::Snapshot::Keys{"x"});
    std::vector<tlm::TransactionRecord> records;
    for (size_t i = 0; i < xs.size(); ++i) {
      tlm::TransactionRecord r;
      r.start = r.end = 10 * (i + 1);
      r.observables = tlm::Snapshot(keys);
      r.observables.set("x", xs[i]);
      records.push_back(std::move(r));
    }
    if (path_ != EnvPath::kRtl) tlm_.bind();
    env_->on_records(records.data(), records.data() + records.size());
    env_->finish();
  }

  const AbvEnv* operator->() const { return env_; }

 private:
  EnvPath path_;
  sim::Kernel kernel_;
  SignalBag bag_;
  RtlAbvEnv rtl_{kernel_, bag_};
  TlmAbvEnv tlm_{10};
  AbvEnv* env_ = path_ == EnvPath::kRtl ? static_cast<AbvEnv*>(&rtl_) : &tlm_;
};

const PropertyReport* row(const Report& report, const std::string& name) {
  for (const PropertyReport& p : report.properties()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

// x is 1 at the third sample only.
const std::vector<uint64_t> kOneHigh = {0, 0, 1, 0};

class PruneRuntime : public ::testing::TestWithParam<EnvPath> {};

TEST_P(PruneRuntime, AuditFlagsElideTrueOnAFailingProperty) {
  const analysis::PrunePlan plan = plan_of({elided("bad", true)});
  PlannedEnv env(GetParam(), plan, /*cross_check=*/true);
  env.add("fine", "x <= 1");
  env.add("bad", "x == 0");
  env.run(kOneHigh);
  // The audit spawns the elided property, which fails: the derived "holds"
  // is contradicted.
  const std::vector<analysis::Diagnostic> errors = env->prune_cross_check();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, "PRN003");
  EXPECT_EQ(errors[0].property, "bad");
  EXPECT_EQ(errors[0].severity, analysis::Severity::kError);
  EXPECT_FALSE(env->all_ok());
  const Report report = env->report();
  const PropertyReport* bad = row(report, "bad");
  ASSERT_NE(bad, nullptr);
  EXPECT_TRUE(bad->prune.empty());  // a live row: the audit ran it
  EXPECT_EQ(bad->failures, 1u);
}

TEST_P(PruneRuntime, SubsumedUnderAFailingSubsumerIsInconclusive) {
  const analysis::PrunePlan plan = plan_of({subsumed("weak", "strong")});
  for (const bool strong_fails : {true, false}) {
    PlannedEnv env(GetParam(), plan);
    env.add("strong", "x == 0");
    env.add("weak", "x <= 1");
    env.run(strong_fails ? kOneHigh : std::vector<uint64_t>{0, 0, 0, 0});
    const Report report = env->report();
    const PropertyReport* weak = row(report, "weak");
    ASSERT_NE(weak, nullptr);
    EXPECT_EQ(weak->prune, "subsumed");
    EXPECT_EQ(weak->derived_from, "strong");
    EXPECT_EQ(weak->activations, 0u);
    EXPECT_EQ(weak->failures, 0u);
    EXPECT_EQ(weak->uncompleted, strong_fails ? 1u : 0u);
    EXPECT_EQ(env->all_ok(), !strong_fails);
    EXPECT_TRUE(env->prune_cross_check().empty());
  }
}

TEST_P(PruneRuntime, ElideFalseFailsTheRun) {
  const analysis::PrunePlan plan = plan_of({elided("contra", false)});
  PlannedEnv env(GetParam(), plan);
  env.add("fine", "x <= 1");
  env.add("contra", "x == 2");
  env.run(kOneHigh);
  EXPECT_FALSE(env->all_ok());
  const Report report = env->report();
  const PropertyReport* fine = row(report, "fine");
  const PropertyReport* contra = row(report, "contra");
  ASSERT_NE(fine, nullptr);
  ASSERT_NE(contra, nullptr);
  EXPECT_TRUE(fine->ok());
  EXPECT_EQ(contra->prune, "elide");
  EXPECT_EQ(contra->derived_from, "static");
  EXPECT_EQ(contra->failures, 1u);
  EXPECT_EQ(contra->activations, 0u);
}

TEST_P(PruneRuntime, LiveRowsPrecedeDerivedRowsInRegistrationOrder) {
  const analysis::PrunePlan plan =
      plan_of({elided("a", true), subsumed("c", "b")});
  PlannedEnv env(GetParam(), plan);
  env.add("a", "x <= 1");
  env.add("b", "x <= 1");
  env.add("c", "x <= 2");
  env.add("d", "x <= 1");
  env.run(kOneHigh);
  const Report report = env->report();
  std::vector<std::string> names;
  for (const PropertyReport& p : report.properties()) {
    names.push_back(p.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"b", "d", "a", "c"}));
  EXPECT_TRUE(env->all_ok());
}

INSTANTIATE_TEST_SUITE_P(Path, PruneRuntime,
                         ::testing::Values(EnvPath::kRtl, EnvPath::kTlmWrapper,
                                           EnvPath::kTlmChecker),
                         env_path_name);

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
