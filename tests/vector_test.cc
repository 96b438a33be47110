// Lockstep-lane tests: the 64-wide kernel (checker/batch.h), lane
// lifecycle, staggered and ragged dense cohorts through PropertyChecker
// against the reference oracle, the per-program lane choice, and the lane
// telemetry of whole runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checker/batch.h"
#include "checker/checker.h"
#include "checker/instance.h"
#include "checker/program.h"
#include "checker/trace.h"
#include "checker_oracle.h"
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
  // Frame-free, next_e-free temporal bodies: boolean layer, next, abort.
  for (const char* text :
       {"a -> next[3](b)", "!a && (b || next[1](c))", "a abort c",
        "(a -> next[4](b)) abort c", "next[2](next[1](a && b))"}) {
    const auto program = Program::compile(parse(text));
    EXPECT_TRUE(ProgramBatch::supported(*program)) << text;
  }
  // Dynamic (frame-spawning) operators, time-scheduled next_e and purely
  // boolean bodies (resolved at the anchor, never pending) keep the scalar
  // form.
  for (const char* text :
       {"a", "!a && (b || c)", "a until b", "a until! b", "a release b", "always a", "eventually! a",
        "next_e[1,40](a until b)", "next_e[1,40](a)",
        "(a -> next_e[1,40](b)) abort c", "next[2](next_e[1,20](a && b))"}) {
    const auto program = Program::compile(parse(text));
    EXPECT_FALSE(ProgramBatch::supported(*program)) << text;
  }
}

// ---- Lane lifecycle -------------------------------------------------------------

TEST(VectorBatch, LaneAllocationIsLowestFreeAndExhaustsAtSixtyFour) {
  auto block = std::make_shared<BatchState>(
      std::make_shared<const ProgramBatch>(
          Program::compile(parse("next[1](a)"))));
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

// Random formulas of the subset that gets lanes (boolean layer, next,
// abort). The rest keeps the scalar form and is swept in ir_test.cc.
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
  switch (rng.below(5)) {
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
    default:
      return psl::abort_(random_supported_formula(rng, depth - 1),
                         psl::sig(signals[rng.below(3)]), rng.chance(1, 2));
  }
}

// A random formula that gets lanes: a purely boolean draw goes under a
// next, since a boolean body resolves at its anchor and keeps the scalar
// form.
ExprPtr random_lane_formula(Rng& rng, int depth) {
  const ExprPtr f = random_supported_formula(rng, depth);
  return psl::is_boolean(f) ? psl::next(1, f) : f;
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
// primed once for the whole live mask (the checker's cohort path) and every
// lane must match its scalar compiled twin step for step through finish.
TEST_P(VectorLockstep, StaggeredCohortMatchesScalar) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 9176 + 11);
  const ExprPtr formula = random_lane_formula(rng, 3);
  const Trace trace = random_trace(rng, 20);
  const auto program = Program::compile(formula);
  ASSERT_TRUE(ProgramBatch::supported(*program));
  auto block = std::make_shared<BatchState>(
      std::make_shared<const ProgramBatch>(program));

  const size_t lanes = std::min<size_t>(trace.size(), 16);
  std::vector<std::unique_ptr<Instance>> vec(lanes);
  std::vector<std::unique_ptr<Instance>> ref(lanes);

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
  const ExprPtr formula = random_lane_formula(rng, 3);
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


// ---- Checker cohorts ------------------------------------------------------------

Observation handshake(psl::TimeNs time, bool ds, bool rdy, bool err = false) {
  Observation o;
  o.time = time;
  o.values.set("ds", ds ? 1 : 0);
  o.values.set("rdy", rdy ? 1 : 0);
  o.values.set("err", err ? 1 : 0);
  return o;
}

void drive(PropertyChecker& checker, const Trace& trace) {
  for (const Observation& o : trace) checker.on_event(o.time, o.values);
  checker.finish();
}

// The checker's counts and failure log against the reference oracle of its
// always-stripped `body`. A time-scheduled (abstracted next_e) checker steps
// its instances only at their deadlines, so its step counts are not the
// oracle's dense ones and are skipped.
void expect_matches_oracle(const PropertyChecker& checker,
                           const ExprPtr& body, const Trace& trace,
                           bool scheduled = false) {
  const oracle::OracleRun want = oracle::oracle_run(body, nullptr, trace);
  const CheckerStats& got = checker.stats();
  EXPECT_EQ(got.events, want.stats.events);
  EXPECT_EQ(got.activations, want.stats.activations);
  EXPECT_EQ(got.failures, want.stats.failures);
  EXPECT_EQ(got.holds, want.stats.holds);
  EXPECT_EQ(got.trivial, want.stats.trivial);
  EXPECT_EQ(got.uncompleted, want.stats.uncompleted);
  EXPECT_EQ(got.real_passes, want.stats.real_passes);
  EXPECT_EQ(got.vacuous_passes, want.stats.vacuous_passes);
  if (!scheduled) {
    EXPECT_EQ(got.steps, want.stats.steps);
    EXPECT_EQ(got.node_visits, want.stats.node_visits);
    EXPECT_EQ(got.missed_deadlines, 0u);
  }
  std::vector<psl::TimeNs> times;
  for (const Failure& f : checker.failures()) times.push_back(f.time);
  std::vector<psl::TimeNs> want_times = want.failure_times;
  want_times.resize(std::min(want_times.size(), times.size()));
  EXPECT_EQ(times.size(), std::min(want.failure_times.size(),
                                   checker.options().failure_log_cap));
  EXPECT_EQ(times, want_times);
}

// An unabstracted next/abort property keeps every pending session on the
// dense list. Holding >64 of them pending at once spills into multiple lane
// blocks and primes a ragged 64/64/22 cohort per event.
TEST(VectorWrapper, RaggedDenseCohortsAcrossMultipleBlocks) {
  const ExprPtr body = parse("(!ds || next[400](rdy)) abort err");
  PropertyChecker checker("w", psl::always(body), nullptr);
  Trace trace;
  // 150 concurrent pending sessions: three lane blocks, ragged tail.
  for (psl::TimeNs t = 10; t <= 1500; t += 10) {
    trace.push_back(handshake(t, true, false));
  }
  // Aborting discharges every pending session at once.
  trace.push_back(handshake(1510, false, false, true));
  // A second wave exercises block/lane reuse after the mass retirement.
  for (psl::TimeNs t = 1520; t <= 1600; t += 10) {
    trace.push_back(handshake(t, true, false));
  }
  drive(checker, trace);

  expect_matches_oracle(checker, body, trace);
  EXPECT_EQ(checker.stats().lane_blocks, 3u);
  EXPECT_GT(checker.stats().vector_batches, 0u);
  // With 150 live lanes a single event fills two full words plus a ragged
  // third; well over 64 lanes must have gone through prime().
  EXPECT_GT(checker.stats().vector_lanes_filled, 64u);
}

// Each multi-lane prime emits one "vector_batch" span carrying the lane
// count (what tools/validate_trace.py checks for nesting and args.lanes).
TEST(VectorWrapper, MultiLanePrimesEmitTraceSpans) {
  support::TraceSink sink;
  PropertyChecker checker("w", parse("always (!ds || next[10](rdy))"),
                          nullptr);
  checker.set_trace(&sink, 3);
  // Every event anchors a session that stays pending for ten events, so
  // from the third event on a cohort of lanes is stepped together.
  Trace trace;
  for (psl::TimeNs t = 10; t <= 100; t += 10) {
    trace.push_back(handshake(t, true, false));
  }
  drive(checker, trace);
  ASSERT_GT(checker.stats().vector_batches, 0u);

  std::ostringstream os;
  sink.write(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"vector_batch\""), std::string::npos);
  EXPECT_NE(text.find("\"lanes\""), std::string::npos);
}

// Mixed-deadline regression: activations at irregular spacing give each
// transaction a mix of just-due, long-overdue and freshly anchored
// instances. A next_e program keeps the scalar form: no lane block, and the
// table-driven verdicts match the reference oracle.
TEST(VectorWrapper, MixedDeadlineStreamMatchesScalar) {
  const psl::TlmProperty p =
      tlm_prop("w: always (!ds || next_e[1,40](rdy)) @Tb");
  PropertyChecker wrapper(p, 10);
  Rng rng(20260809);
  Trace trace;
  psl::TimeNs t = 10;
  for (int i = 0; i < 400; ++i) {
    const bool ds = rng.chance(2, 3);
    const bool rdy = rng.chance(1, 3);
    trace.push_back(handshake(t, ds, rdy));
    // Mostly dense traffic with occasional deadline-skipping jumps.
    t += rng.chance(1, 10) ? 10 * rng.range(5, 30) : 10 * rng.range(1, 3);
  }
  drive(wrapper, trace);
  EXPECT_GT(wrapper.stats().activations, 0u);
  EXPECT_GT(wrapper.stats().missed_deadlines, 0u);
  EXPECT_EQ(wrapper.stats().lane_blocks, 0u);
  EXPECT_EQ(wrapper.stats().vector_batches, 0u);
  expect_matches_oracle(wrapper, p.formula->lhs, trace, /*scheduled=*/true);
}

// ---- PropertyChecker active list -------------------------------------------------

TEST(VectorChecker, ActiveListCohortMatchesScalar) {
  const ExprPtr body = parse("!a || next[8](b)");
  PropertyChecker checker("v", psl::always(body), nullptr);
  Rng rng(77);
  Trace trace;
  for (psl::TimeNs t = 10; t <= 2000; t += 10) {
    Observation o;
    o.time = t;
    o.values.set("a", rng.chance(1, 2) ? 1 : 0);
    o.values.set("b", rng.chance(1, 2) ? 1 : 0);
    trace.push_back(std::move(o));
  }
  drive(checker, trace);

  expect_matches_oracle(checker, body, trace);
  // next[8] keeps ~8 instances pending per event: real multi-lane cohorts.
  const CheckerStats& s = checker.stats();
  EXPECT_GT(s.vector_batches, 0u);
  EXPECT_GT(s.vector_lanes_filled, s.vector_batches);
}

// ---- Full runs -------------------------------------------------------------------

models::RunResult run(models::Design design, models::Level level,
                      size_t workload, size_t jobs) {
  models::RunConfig config;
  config.design = design;
  config.level = level;
  config.workload = workload;
  config.checkers = 99;  // clamped to the whole suite
  config.engine.jobs = jobs;
  models::RunResult r = models::run_simulation(config);
  EXPECT_TRUE(r.ingest_error.empty()) << r.ingest_error;
  EXPECT_TRUE(r.functional_ok);
  return r;
}

std::string rendered(const models::RunResult& r) {
  std::ostringstream os;
  r.report.write_json(os);
  return os.str();
}

// TLM-AT checks every property in the scalar form; TLM-CA checks the dense
// properties in lanes and the rest in the scalar form. Either way the
// report is the same at jobs 1 and 4, where each shard holds its own lane
// blocks.
TEST(VectorReport, ByteIdenticalAcrossBackendsAndJobsOnBothDesigns) {
  for (const models::Design design :
       {models::Design::kDes56, models::Design::kColorConv}) {
    const size_t workload = design == models::Design::kDes56 ? 30 : 120;
    for (const models::Level level :
         {models::Level::kTlmAt, models::Level::kTlmCa}) {
      EXPECT_EQ(rendered(run(design, level, workload, 4)),
                rendered(run(design, level, workload, 1)))
          << "design " << static_cast<int>(design) << " level "
          << static_cast<int>(level);
    }
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
  // pending per clock and forces genuine multi-lane cohorts. Its twin has
  // the same meaning (`rdy until rdy` is `rdy`) but an until, so it keeps
  // the scalar form.
  for (const char* text : {"vload: always (next[16](rdy)) @clk_pos",
                           "vscal: always (next[16](rdy until rdy)) @clk_pos"}) {
    auto parsed = psl::parse_rtl_property(text);
    ASSERT_TRUE(parsed.ok()) << text;
    config.extra_properties.push_back(parsed.value());
  }
  const models::RunResult r = models::run_simulation(config);
  ASSERT_TRUE(r.functional_ok);

  // The same verdicts and counts from lanes and from the scalar form...
  const abv::PropertyReport* lanes = nullptr;
  const abv::PropertyReport* scalar = nullptr;
  for (const abv::PropertyReport& row : r.report.properties()) {
    if (row.name == "vload") lanes = &row;
    if (row.name == "vscal") scalar = &row;
  }
  ASSERT_NE(lanes, nullptr);
  ASSERT_NE(scalar, nullptr);
  EXPECT_GT(lanes->activations, 0u);
  EXPECT_EQ(lanes->activations, scalar->activations);
  EXPECT_EQ(lanes->holds, scalar->holds);
  EXPECT_EQ(lanes->failures, scalar->failures);
  EXPECT_EQ(lanes->uncompleted, scalar->uncompleted);
  EXPECT_EQ(lanes->steps, scalar->steps);
  EXPECT_EQ(lanes->trivial, scalar->trivial);
  EXPECT_EQ(lanes->real_passes, scalar->real_passes);
  EXPECT_EQ(lanes->vacuous_passes, scalar->vacuous_passes);
  ASSERT_EQ(lanes->failure_log.size(), scalar->failure_log.size());
  for (size_t i = 0; i < lanes->failure_log.size(); ++i) {
    EXPECT_EQ(lanes->failure_log[i].time, scalar->failure_log[i].time) << i;
  }
  // ...while the lockstep counters show real cohorts.
  EXPECT_GT(r.metrics.counters.at("engine.lane_blocks"), 0u);
  EXPECT_GT(r.metrics.counters.at("engine.vector_batches"), 0u);
  EXPECT_GT(r.metrics.counters.at("engine.vector_lanes_filled"),
            r.metrics.counters.at("engine.vector_batches"));
}

// ---- engine.vector_batches telemetry ---------------------------------------------
//
// The lockstep counters are checked, not just emitted. Values captured on
// small default workloads; they depend only on the record stream, so they
// repeat exactly at any --jobs.

struct LockstepCounters {
  uint64_t blocks = 0;
  uint64_t batches = 0;
  uint64_t lanes = 0;
  uint64_t table_peak = 0;
};

LockstepCounters lockstep_counters(models::Design design, models::Level level,
                                   size_t workload, size_t jobs) {
  const models::RunResult r = run(design, level, workload, jobs);
  EXPECT_TRUE(r.properties_ok);
  return {r.metrics.counters.at("engine.lane_blocks"),
          r.metrics.counters.at("engine.vector_batches"),
          r.metrics.counters.at("engine.vector_lanes_filled"),
          r.metrics.gauges.at("wrapper.table_peak")};
}

TEST(VectorTelemetry, Des56TlmAtNeverHasTwoLanesDue) {
  // Every DES56 TLM-AT wrapper holds at most one scheduled session at a time
  // (table_peak 1), and no abstracted program gets lanes, so the lockstep
  // kernel never runs a multi-lane batch.
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
  // so sessions overlap and dense cohorts share lane blocks: 1866 multi-lane
  // batches advancing 10741 lanes, a lane fill of 10741 / (64 * 1866) = 0.09.
  for (const size_t jobs : {size_t{1}, size_t{4}}) {
    const LockstepCounters c = lockstep_counters(
        models::Design::kColorConv, models::Level::kTlmCa, 300, jobs);
    EXPECT_EQ(c.batches, 1866u) << "jobs " << jobs;
    EXPECT_EQ(c.lanes, 10741u) << "jobs " << jobs;
  }
}

// ---- Lane choice ------------------------------------------------------------------
//
// Lanes follow the program: a checker allocates lane blocks only for a
// frame-free, next_e-free program. At TLM-AT every abstracted program is
// time-scheduled, so no lane block exists at any job count; at TLM-CA the
// dense RTL programs keep their cohorts.

TEST(LaneChoice, TlmAtAllocatesNoLaneBlock) {
  for (const models::Design design :
       {models::Design::kDes56, models::Design::kColorConv}) {
    for (const size_t jobs : {size_t{1}, size_t{2}}) {
      const LockstepCounters c =
          lockstep_counters(design, models::Level::kTlmAt, 300, jobs);
      EXPECT_EQ(c.blocks, 0u)
          << "design " << static_cast<int>(design) << " jobs " << jobs;
      EXPECT_EQ(c.batches, 0u)
          << "design " << static_cast<int>(design) << " jobs " << jobs;
    }
  }
}

TEST(LaneChoice, ColorConvTlmCaKeepsItsCohorts) {
  for (const size_t jobs : {size_t{1}, size_t{2}}) {
    const LockstepCounters c = lockstep_counters(
        models::Design::kColorConv, models::Level::kTlmCa, 300, jobs);
    EXPECT_GT(c.blocks, 0u) << "jobs " << jobs;
    EXPECT_EQ(c.batches, 1866u) << "jobs " << jobs;
    EXPECT_EQ(c.lanes, 10741u) << "jobs " << jobs;
  }
}

}  // namespace
}  // namespace repro::checker
