// Vectorized-backend tests: the 64-wide lockstep kernel (checker/batch.h),
// lane lifecycle, staggered/ragged deadline cohorts through the wrapper and
// the PropertyChecker active list, and byte-identical JSON reports with
// vectorization on and off at jobs 1 and 4 on both designs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checker/batch.h"
#include "checker/checker.h"
#include "checker/instance.h"
#include "checker/program.h"
#include "checker/trace.h"
#include "models/testbench.h"
#include "psl/ast.h"
#include "psl/parser.h"
#include "support/rng.h"
#include "support/trace_sink.h"

namespace repro::checker {
namespace {

using psl::ExprPtr;

ExprPtr parse(const std::string& text) {
  auto result = psl::parse_expr(text);
  EXPECT_TRUE(result.ok()) << text;
  return result.value();
}

psl::TlmProperty tlm_prop(const std::string& text) {
  auto result = psl::parse_tlm_property(text);
  EXPECT_TRUE(result.ok()) << text;
  return result.value();
}

// ---- Support predicate ----------------------------------------------------------

TEST(VectorBatch, SupportedExactlyWhenFrameFree) {
  // Frame-free: boolean layer, next, next_e, abort.
  for (const char* text :
       {"a", "!a && (b || c)", "a -> next[3](b)", "next_e[1,40](a)",
        "(a -> next_e[1,40](b)) abort c", "next[2](next_e[1,20](a && b))"}) {
    const auto program = Program::compile(parse(text));
    EXPECT_TRUE(ProgramBatch::supported(*program)) << text;
  }
  // Dynamic (frame-spawning) operators force the scalar fallback.
  for (const char* text :
       {"a until b", "a until! b", "a release b", "always a", "eventually! a",
        "next_e[1,40](a until b)"}) {
    const auto program = Program::compile(parse(text));
    EXPECT_FALSE(ProgramBatch::supported(*program)) << text;
  }
}

// ---- Lane lifecycle -------------------------------------------------------------

TEST(VectorBatch, LaneAllocationIsLowestFreeAndExhaustsAtSixtyFour) {
  auto block = std::make_shared<BatchState>(
      std::make_shared<const ProgramBatch>(Program::compile(parse("a"))));
  for (uint32_t i = 0; i < BatchState::kLanes; ++i) {
    ASSERT_TRUE(block->has_free_lane());
    EXPECT_EQ(block->allocate_lane(), i);
  }
  EXPECT_FALSE(block->has_free_lane());
  block->release_lane(17);
  ASSERT_TRUE(block->has_free_lane());
  EXPECT_EQ(block->allocate_lane(), 17u);
  EXPECT_FALSE(block->has_free_lane());
}

// ---- Lockstep kernel parity -----------------------------------------------------

// Random frame-free formulas only: the vectorizable subset (boolean layer,
// next, next_e, abort). The dynamic operators have their own fallback path
// and are swept three-way in ir_test.cc.
ExprPtr random_supported_formula(Rng& rng, int depth) {
  const char* signals[] = {"a", "b", "c"};
  if (depth <= 0 || rng.chance(1, 3)) {
    switch (rng.below(4)) {
      case 0:
        return psl::sig(signals[rng.below(3)]);
      case 1:
        return psl::not_(psl::sig(signals[rng.below(3)]));
      case 2:
        return psl::cmp(signals[rng.below(3)], psl::CmpOp::kEq, rng.below(3));
      default:
        return psl::cmp(signals[rng.below(3)], psl::CmpOp::kGe, rng.below(3));
    }
  }
  switch (rng.below(6)) {
    case 0:
      return psl::and_(random_supported_formula(rng, depth - 1),
                       random_supported_formula(rng, depth - 1));
    case 1:
      return psl::or_(random_supported_formula(rng, depth - 1),
                      random_supported_formula(rng, depth - 1));
    case 2:
      return psl::implies(random_supported_formula(rng, depth - 1),
                          random_supported_formula(rng, depth - 1));
    case 3:
      return psl::next(static_cast<uint32_t>(rng.range(1, 3)),
                       random_supported_formula(rng, depth - 1));
    case 4:
      return psl::next_eps(1, rng.range(1, 5) * 10,
                           random_supported_formula(rng, depth - 1));
    default:
      return psl::abort_(random_supported_formula(rng, depth - 1),
                         psl::sig(signals[rng.below(3)]), rng.chance(1, 2));
  }
}

Trace random_trace(Rng& rng, size_t max_len) {
  Trace trace;
  psl::TimeNs time = 10;
  const size_t len = rng.range(1, max_len);
  for (size_t i = 0; i < len; ++i) {
    Observation o;
    o.time = time;
    o.values.set("a", rng.below(3));
    o.values.set("b", rng.below(3));
    o.values.set("c", rng.below(3));
    trace.push_back(std::move(o));
    time += 10 * rng.range(1, 3);
  }
  return trace;
}

class VectorLockstep : public ::testing::TestWithParam<int> {};

// Staggered cohorts: lane i anchors at event i, so every event advances a
// word whose lanes sit at different phases of the formula. Each event is
// primed once for the whole live mask (the wrapper's cohort path) and every
// lane must match its scalar compiled twin step for step, deadline for
// deadline, through finish.
TEST_P(VectorLockstep, StaggeredCohortMatchesScalar) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 9176 + 11);
  const ExprPtr formula = random_supported_formula(rng, 3);
  const Trace trace = random_trace(rng, 20);
  const auto program = Program::compile(formula);
  ASSERT_TRUE(ProgramBatch::supported(*program));
  auto block = std::make_shared<BatchState>(
      std::make_shared<const ProgramBatch>(program));

  const size_t lanes = std::min<size_t>(trace.size(), 16);
  std::vector<std::unique_ptr<Instance>> vec(lanes);
  std::vector<std::unique_ptr<Instance>> ref(lanes);
  std::vector<psl::TimeNs> scratch;

  for (size_t k = 0; k < trace.size(); ++k) {
    const Event ev{trace[k].time, &trace[k].values};
    if (k < lanes) {  // anchor a new pair at this event
      vec[k] = std::make_unique<Instance>(block, block->allocate_lane());
      ref[k] = std::make_unique<Instance>(program);
    }
    uint64_t mask = 0;
    for (size_t i = 0; i < lanes; ++i) {
      if (vec[i] != nullptr && !vec[i]->resolved()) {
        mask |= uint64_t{1} << vec[i]->batch_lane();
      }
    }
    if (mask == 0) break;
    block->prime(ev, mask);
    for (size_t i = 0; i < lanes && i <= k; ++i) {
      if (vec[i]->resolved()) continue;
      const Verdict vv = vec[i]->step(ev);
      const Verdict vr = ref[i]->step(ev);
      ASSERT_EQ(vv, vr) << "lane " << i << " diverged on "
                        << psl::to_string(formula) << "\nprefix length: "
                        << k + 1;
      ASSERT_EQ(vec[i]->next_deadline(scratch), ref[i]->next_deadline(scratch))
          << "lane " << i << ": " << psl::to_string(formula);
    }
  }
  for (size_t i = 0; i < lanes; ++i) {
    if (vec[i] == nullptr || vec[i]->resolved()) continue;
    ASSERT_EQ(vec[i]->finish(), ref[i]->finish())
        << "lane " << i << ": " << psl::to_string(formula);
  }
}

TEST_P(VectorLockstep, RecycledLaneBehavesLikeFresh) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 40277 + 3);
  const ExprPtr formula = random_supported_formula(rng, 3);
  const Trace first = random_trace(rng, 8);
  const Trace second = random_trace(rng, 8);
  const auto program = Program::compile(formula);
  ASSERT_TRUE(ProgramBatch::supported(*program));
  auto block = std::make_shared<BatchState>(
      std::make_shared<const ProgramBatch>(program));

  // Dirty one lane with a full run, then return it to the block.
  const uint32_t lane = block->allocate_lane();
  for (const auto& o : first) {
    if (block->step_lane(Event{o.time, &o.values}, lane) != Verdict::kPending) {
      break;
    }
  }
  block->release_lane(lane);

  // The recycled lane must replay exactly like a never-used scalar instance.
  ASSERT_TRUE(block->has_free_lane());
  const uint32_t again = block->allocate_lane();
  EXPECT_EQ(again, lane);  // lowest free lane is the one just released
  Instance fresh(program);
  for (const auto& o : second) {
    const Event ev{o.time, &o.values};
    const Verdict a = block->step_lane(ev, again);
    const Verdict b = fresh.step(ev);
    ASSERT_EQ(a, b) << psl::to_string(formula);
    if (a != Verdict::kPending) return;
  }
  EXPECT_EQ(block->finish_lane(again), fresh.finish())
      << psl::to_string(formula);
}

INSTANTIATE_TEST_SUITE_P(Sweep, VectorLockstep, ::testing::Range(0, 60));

// ---- Wrapper cohorts ------------------------------------------------------------

MapContext handshake(bool ds, bool rdy, bool err = false) {
  MapContext values;
  values.set("ds", ds ? 1 : 0);
  values.set("rdy", rdy ? 1 : 0);
  values.set("err", err ? 1 : 0);
  return values;
}

void expect_same_outcome(const CheckerStats& v, const CheckerStats& s) {
  EXPECT_EQ(v.events, s.events);
  EXPECT_EQ(v.activations, s.activations);
  EXPECT_EQ(v.failures, s.failures);
  EXPECT_EQ(v.holds, s.holds);
  EXPECT_EQ(v.trivial, s.trivial);
  EXPECT_EQ(v.uncompleted, s.uncompleted);
  EXPECT_EQ(v.reuses, s.reuses);
  EXPECT_EQ(v.steps, s.steps);
  // Coverage telemetry must be byte-identical across backends too.
  EXPECT_EQ(v.real_passes, s.real_passes);
  EXPECT_EQ(v.vacuous_passes, s.vacuous_passes);
  EXPECT_EQ(v.missed_deadlines, s.missed_deadlines);
  EXPECT_EQ(v.node_visits, s.node_visits);
}

void expect_same_failures(const PropertyChecker& v,
                          const PropertyChecker& s) {
  ASSERT_EQ(v.failures().size(), s.failures().size());
  for (size_t i = 0; i < v.failures().size(); ++i) {
    EXPECT_EQ(v.failures()[i].time, s.failures()[i].time) << i;
  }
}

// A long silent gap makes every scheduled instance's deadline pass at once;
// the wrapper pops the whole missed cohort on the next transaction and the
// vectorized backend must prime it as one multi-lane batch.
TEST(VectorWrapper, MissedDeadlineCohortMatchesScalar) {
  const psl::TlmProperty p =
      tlm_prop("w: always (!ds || next_e[1,100](rdy)) @Tb");
  CheckerOptions vec_opts;
  vec_opts.vectorized = true;
  CheckerOptions scalar_opts;
  scalar_opts.vectorized = false;
  PropertyChecker vec(p, 10, vec_opts);
  PropertyChecker scalar(p, 10, scalar_opts);
  auto feed = [&](psl::TimeNs t, bool ds, bool rdy) {
    vec.on_event(t, handshake(ds, rdy));
    scalar.on_event(t, handshake(ds, rdy));
  };
  // Ten activations 10 ns apart, none ever answered...
  for (psl::TimeNs t = 10; t <= 100; t += 10) feed(t, true, false);
  // ...then a gap past every deadline: the missed cohort pops together.
  feed(700, false, false);
  for (psl::TimeNs t = 710; t <= 760; t += 10) feed(t, true, false);
  vec.finish();
  scalar.finish();

  EXPECT_GT(vec.stats().failures, 0u);
  expect_same_outcome(vec.stats(), scalar.stats());
  expect_same_failures(vec, scalar);
  EXPECT_GT(vec.stats().vector_batches, 0u);
  EXPECT_GT(vec.stats().vector_lanes_filled, vec.stats().vector_batches);
  EXPECT_EQ(scalar.stats().vector_batches, 0u);
}

// An abort-carrying property is unbounded, so its instances live on the
// dense list and all of them see every transaction. Holding >64 of them
// pending at once spills into multiple lane blocks and primes a ragged
// 64/64/22 cohort per transaction.
TEST(VectorWrapper, RaggedDenseCohortsAcrossMultipleBlocks) {
  const psl::TlmProperty p =
      tlm_prop("w: always ((!ds || next_e[1,5000](rdy)) abort err) @Tb");
  CheckerOptions vec_opts;
  vec_opts.vectorized = true;
  CheckerOptions scalar_opts;
  scalar_opts.vectorized = false;
  PropertyChecker vec(p, 10, vec_opts);
  PropertyChecker scalar(p, 10, scalar_opts);
  auto feed = [&](psl::TimeNs t, bool ds, bool rdy, bool err) {
    vec.on_event(t, handshake(ds, rdy, err));
    scalar.on_event(t, handshake(ds, rdy, err));
  };
  // 150 concurrent pending sessions: three lane blocks, ragged tail.
  for (psl::TimeNs t = 10; t <= 1500; t += 10) feed(t, true, false, false);
  // Aborting discharges every pending session at once.
  feed(1510, false, false, true);
  // A second wave exercises block/lane reuse after the mass retirement.
  for (psl::TimeNs t = 1520; t <= 1600; t += 10) feed(t, true, false, false);
  vec.finish();
  scalar.finish();

  expect_same_outcome(vec.stats(), scalar.stats());
  expect_same_failures(vec, scalar);
  EXPECT_GT(vec.stats().vector_batches, 0u);
  // With 150 live lanes a single transaction fills two full words plus a
  // ragged third; well over 64 lanes must have gone through prime().
  EXPECT_GT(vec.stats().vector_lanes_filled, 64u);
  EXPECT_EQ(scalar.stats().vector_lanes_filled, 0u);
}

// Each multi-lane prime emits one "vector_batch" span carrying the lane
// count (what tools/validate_trace.py checks for nesting and args.lanes).
TEST(VectorWrapper, MultiLanePrimesEmitTraceSpans) {
  const psl::TlmProperty p =
      tlm_prop("w: always (!ds || next_e[1,100](rdy)) @Tb");
  support::TraceSink sink;
  PropertyChecker wrapper(p, 10);
  wrapper.set_trace(&sink, 3);
  // Same missed-deadline shape as above: a cohort pops after the gap.
  for (psl::TimeNs t = 10; t <= 100; t += 10) {
    wrapper.on_event(t, handshake(true, false));
  }
  wrapper.on_event(700, handshake(false, false));
  wrapper.finish();
  ASSERT_GT(wrapper.stats().vector_batches, 0u);

  std::ostringstream os;
  sink.write(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"vector_batch\""), std::string::npos);
  EXPECT_NE(trace.find("\"lanes\""), std::string::npos);
}

// Mixed-deadline regression: activations at irregular spacing give each
// transaction a cohort mixing just-due, long-overdue and freshly anchored
// lanes. eps == 0 re-dues (the double-step pathology) stay on the scalar
// bookkeeping path via lane self-priming.
TEST(VectorWrapper, MixedDeadlineStreamMatchesScalar) {
  const psl::TlmProperty p =
      tlm_prop("w: always (!ds || next_e[1,40](rdy)) @Tb");
  CheckerOptions vec_opts;
  vec_opts.vectorized = true;
  CheckerOptions scalar_opts;
  scalar_opts.vectorized = false;
  PropertyChecker vec(p, 10, vec_opts);
  PropertyChecker scalar(p, 10, scalar_opts);
  Rng rng(20260809);
  psl::TimeNs t = 10;
  for (int i = 0; i < 400; ++i) {
    const bool ds = rng.chance(2, 3);
    const bool rdy = rng.chance(1, 3);
    vec.on_event(t, handshake(ds, rdy));
    scalar.on_event(t, handshake(ds, rdy));
    // Mostly dense traffic with occasional deadline-skipping jumps.
    t += rng.chance(1, 10) ? 10 * rng.range(5, 30) : 10 * rng.range(1, 3);
  }
  vec.finish();
  scalar.finish();
  EXPECT_GT(vec.stats().activations, 0u);
  expect_same_outcome(vec.stats(), scalar.stats());
  expect_same_failures(vec, scalar);
}

// ---- PropertyChecker active list -------------------------------------------------

TEST(VectorChecker, ActiveListCohortMatchesScalar) {
  const ExprPtr formula = parse("always (!a || next[8](b))");
  CheckerOptions vec_opts;
  vec_opts.vectorized = true;
  CheckerOptions scalar_opts;
  scalar_opts.vectorized = false;
  PropertyChecker vec("v", formula, nullptr, vec_opts);
  PropertyChecker scalar("s", formula, nullptr, scalar_opts);
  Rng rng(77);
  for (psl::TimeNs t = 10; t <= 2000; t += 10) {
    MapContext values;
    values.set("a", rng.chance(1, 2) ? 1 : 0);
    values.set("b", rng.chance(1, 2) ? 1 : 0);
    vec.on_event(t, values);
    scalar.on_event(t, values);
  }
  vec.finish();
  scalar.finish();

  const CheckerStats& v = vec.stats();
  const CheckerStats& s = scalar.stats();
  EXPECT_EQ(v.events, s.events);
  EXPECT_EQ(v.activations, s.activations);
  EXPECT_EQ(v.failures, s.failures);
  EXPECT_EQ(v.holds, s.holds);
  EXPECT_EQ(v.trivial, s.trivial);
  EXPECT_EQ(v.uncompleted, s.uncompleted);
  EXPECT_EQ(v.steps, s.steps);
  ASSERT_EQ(vec.failures().size(), scalar.failures().size());
  for (size_t i = 0; i < vec.failures().size(); ++i) {
    EXPECT_EQ(vec.failures()[i].time, scalar.failures()[i].time) << i;
  }
  // next[8] keeps ~8 instances pending per event: real multi-lane cohorts.
  EXPECT_GT(v.vector_batches, 0u);
  EXPECT_GT(v.vector_lanes_filled, v.vector_batches);
  EXPECT_EQ(s.vector_batches, 0u);
}

// ---- Full-run byte equivalence ---------------------------------------------------

std::string rendered_report(models::Design design, models::Level level,
                            size_t jobs, bool vectorized) {
  models::RunConfig config;
  config.design = design;
  config.level = level;
  config.workload = design == models::Design::kDes56 ? 30 : 120;
  config.checkers = 99;  // clamped to the whole suite
  config.engine.jobs = jobs;
  config.engine.vectorized = vectorized;
  const models::RunResult r = models::run_simulation(config);
  EXPECT_TRUE(r.functional_ok);
  std::ostringstream os;
  r.report.write_json(os);
  return os.str();
}

TEST(VectorReport, ByteIdenticalAcrossBackendsAndJobsOnBothDesigns) {
  for (const models::Design design :
       {models::Design::kDes56, models::Design::kColorConv}) {
    const std::string reference =
        rendered_report(design, models::Level::kTlmAt, 1, false);
    for (const size_t jobs : {size_t{1}, size_t{4}}) {
      EXPECT_EQ(rendered_report(design, models::Level::kTlmAt, jobs, true),
                reference)
          << "design " << static_cast<int>(design) << " jobs " << jobs;
    }
    EXPECT_EQ(rendered_report(design, models::Level::kTlmAt, 4, false),
              reference)
        << "design " << static_cast<int>(design);
  }
}

TEST(VectorReport, CycleAccurateReplayFillsLanes) {
  models::RunConfig config;
  config.design = models::Design::kDes56;
  config.level = models::Level::kTlmCa;
  config.workload = 30;
  config.checkers = 99;
  // The suite's handshake antecedents rarely hold, so their active lists
  // stay short; this unconditional 16-cycle obligation keeps ~16 instances
  // pending per clock and forces genuine multi-lane cohorts.
  {
    auto parsed = psl::parse_rtl_property("vload: always (next[16](rdy)) @clk_pos");
    ASSERT_TRUE(parsed.ok());
    config.extra_properties.push_back(parsed.value());
  }
  config.engine.vectorized = true;
  const models::RunResult on = models::run_simulation(config);
  config.engine.vectorized = false;
  const models::RunResult off = models::run_simulation(config);

  // Byte-identical verdicts either way...
  auto render = [](const models::RunResult& r) {
    std::ostringstream os;
    r.report.write_json(os);
    return os.str();
  };
  EXPECT_EQ(render(on), render(off));
  // ...and the same metric keys, so report schemas never depend on the
  // backend; only the lockstep counters move.
  ASSERT_EQ(on.metrics.counters.count("engine.vector_lanes_filled"), 1u);
  ASSERT_EQ(off.metrics.counters.count("engine.vector_lanes_filled"), 1u);
  EXPECT_GT(on.metrics.counters.at("engine.vector_lanes_filled"), 0u);
  EXPECT_GT(on.metrics.counters.at("engine.vector_batches"), 0u);
  EXPECT_EQ(off.metrics.counters.at("engine.vector_lanes_filled"), 0u);
}

// ---- engine.vector_batches telemetry ---------------------------------------------
//
// The lockstep counters are checked, not just emitted. Values captured on
// small default workloads; they depend only on the record stream, so they
// repeat exactly at any --jobs.

struct LockstepCounters {
  uint64_t batches = 0;
  uint64_t lanes = 0;
  uint64_t table_peak = 0;
};

LockstepCounters lockstep_counters(models::Design design, models::Level level,
                                   size_t workload, size_t jobs) {
  models::RunConfig config;
  config.design = design;
  config.level = level;
  config.workload = workload;
  config.checkers = 99;
  config.engine.jobs = jobs;
  const models::RunResult r = models::run_simulation(config);
  EXPECT_TRUE(r.ingest_error.empty()) << r.ingest_error;
  EXPECT_TRUE(r.properties_ok);
  return {r.metrics.counters.at("engine.vector_batches"),
          r.metrics.counters.at("engine.vector_lanes_filled"),
          r.metrics.gauges.at("wrapper.table_peak")};
}

TEST(VectorTelemetry, Des56TlmAtNeverHasTwoLanesDue) {
  // Every DES56 TLM-AT wrapper holds at most one scheduled session at a time
  // (table_peak 1), so no lane block ever has two lanes due in the same
  // transaction and the lockstep kernel never runs a multi-lane batch. The
  // zero is true, not a telemetry bug.
  for (const size_t jobs : {size_t{1}, size_t{4}}) {
    const LockstepCounters c = lockstep_counters(
        models::Design::kDes56, models::Level::kTlmAt, 300, jobs);
    EXPECT_EQ(c.table_peak, 1u) << "jobs " << jobs;
    EXPECT_EQ(c.batches, 0u) << "jobs " << jobs;
    EXPECT_EQ(c.lanes, 0u) << "jobs " << jobs;
  }
}

TEST(VectorTelemetry, ColorConvTlmCaFillsLanes) {
  // TLM-CA sees one record per cycle and checks the RTL properties on it,
  // so sessions overlap and due cohorts share lane blocks: 1866 multi-lane
  // batches advancing 10741 lanes, a lane fill of 10741 / (64 * 1866) = 0.09.
  for (const size_t jobs : {size_t{1}, size_t{4}}) {
    const LockstepCounters c = lockstep_counters(
        models::Design::kColorConv, models::Level::kTlmCa, 300, jobs);
    EXPECT_EQ(c.batches, 1866u) << "jobs " << jobs;
    EXPECT_EQ(c.lanes, 10741u) << "jobs " << jobs;
  }
}

}  // namespace
}  // namespace repro::checker
