// IR-layer tests: the hash-consed expression arena (psl/intern.h), the
// compiled checker programs (checker/program.h), parity of the compiled
// program and its lockstep lanes (checker/batch.h) against the reference
// evaluator, and the parser/printer round-trip over the full property
// suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "abv/snapshot_context.h"
#include "analysis/prune.h"
#include "checker/batch.h"
#include "checker/checker.h"
#include "checker/instance.h"
#include "checker/program.h"
#include "checker/reference_eval.h"
#include "checker/slot_binding.h"
#include "checker/trace.h"
#include "checker_oracle.h"
#include "models/properties.h"
#include "psl/ast.h"
#include "psl/intern.h"
#include "psl/parser.h"
#include "rewrite/methodology.h"
#include "rewrite/pass_manager.h"
#include "support/rng.h"
#include "tlm/transaction.h"

namespace repro::checker {
namespace {

using oracle::oracle_run;
using oracle::reference_resolutions;
using oracle::Resolution;
using psl::ExprId;
using psl::ExprPtr;
using psl::ExprTable;

ExprPtr parse(const std::string& text) {
  auto result = psl::parse_expr(text);
  EXPECT_TRUE(result.ok()) << text;
  return result.value();
}

// ---- ExprTable (hash-consing) ---------------------------------------------------

TEST(IrExprTable, InternsStructurallyEqualTreesToSameId) {
  ExprTable table;
  const ExprId a = table.intern(parse("always (ds -> next[2](rdy))"));
  const ExprId b = table.intern(parse("always (ds -> next[2](rdy))"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, psl::kNoExpr);
}

TEST(IrExprTable, DistinguishesStructurallyDifferentTrees) {
  ExprTable table;
  EXPECT_NE(table.intern(parse("ds && rdy")), table.intern(parse("rdy && ds")));
  EXPECT_NE(table.intern(parse("a until b")), table.intern(parse("a until! b")));
  EXPECT_NE(table.intern(parse("next[2](a)")), table.intern(parse("next[3](a)")));
  EXPECT_NE(table.intern(parse("next_e[1,10](a)")),
            table.intern(parse("next_e[1,20](a)")));
  EXPECT_NE(table.intern(parse("a abort b")), table.intern(parse("a abort! b")));
}

TEST(IrExprTable, SharesSubtreesAcrossFormulas) {
  ExprTable table;
  table.intern(parse("ds && rdy"));
  const size_t before = table.size();
  // Both operands already exist; only implies + always are new.
  table.intern(parse("always (ds -> rdy)"));
  EXPECT_EQ(table.size(), before + 2);
}

TEST(IrExprTable, CountsHitsAndMisses) {
  ExprTable table;
  table.intern(parse("ds && rdy"));
  EXPECT_EQ(table.stats().hits, 0u);
  const uint64_t misses = table.stats().misses;
  table.intern(parse("ds && rdy"));  // 3 nodes, all hits
  EXPECT_EQ(table.stats().hits, 3u);
  EXPECT_EQ(table.stats().misses, misses);
}

TEST(IrExprTable, FactsMatchTreeQueries) {
  models::PropertySuite suites[] = {models::des56_suite(),
                                    models::colorconv_suite()};
  ExprTable table;
  for (const auto& suite : suites) {
    for (const auto& prop : suite.properties) {
      const ExprId id = table.intern(prop.formula);
      const ExprTable::Facts& f = table.facts(id);
      EXPECT_EQ(f.node_count, psl::node_count(prop.formula)) << prop.name;
      EXPECT_EQ(f.max_next_depth, psl::max_next_depth(prop.formula)) << prop.name;
      EXPECT_EQ(f.max_eps, psl::max_eps(prop.formula)) << prop.name;
      EXPECT_EQ(f.is_boolean, psl::is_boolean(prop.formula)) << prop.name;
      EXPECT_EQ(f.has_temporal, psl::has_temporal(prop.formula)) << prop.name;

      const std::set<std::string> expected =
          psl::referenced_signals(prop.formula);
      const std::vector<std::string>& got = table.signals(id);
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << prop.name;
      EXPECT_EQ(std::set<std::string>(got.begin(), got.end()), expected)
          << prop.name;
    }
  }
}

TEST(IrExprTable, ExprRebuildsStructurallyEqualTree) {
  ExprTable table;
  const ExprPtr original =
      parse("always ((ds && indata == 0) -> next_e[2,40](out != 0) abort rst)");
  const ExprId id = table.intern(original);
  const ExprPtr rebuilt = table.expr(id);
  EXPECT_TRUE(psl::equal(original, rebuilt));
  // Rebuilding twice returns the cached tree.
  EXPECT_EQ(rebuilt.get(), table.expr(id).get());
  // And re-interning the rebuilt tree is a pure cache hit.
  EXPECT_EQ(table.intern(rebuilt), id);
}

TEST(IrExprTable, IdEqualityMatchesStructuralEquality) {
  Rng rng(2026);
  ExprTable table;
  std::vector<ExprPtr> trees;
  std::vector<ExprId> ids;
  for (int i = 0; i < 40; ++i) {
    auto tree = parse(i % 2 == 0 ? "a until (b && next(c))" : "a until b");
    trees.push_back(tree);
    ids.push_back(table.intern(tree));
  }
  for (size_t i = 0; i < trees.size(); ++i) {
    for (size_t j = 0; j < trees.size(); ++j) {
      EXPECT_EQ(ids[i] == ids[j], psl::equal(trees[i], trees[j]));
    }
  }
}

// ---- Program compilation --------------------------------------------------------

TEST(IrProgram, FlattensInTopologicalOrder) {
  const auto program = Program::compile(parse("always (ds -> next[2](rdy))"));
  ASSERT_EQ(program->size(), 5u);
  // Children precede parents; the root is last.
  for (uint32_t i = 0; i < program->size(); ++i) {
    const auto& n = program->nodes()[i];
    if (n.lhs != Program::kNoNode) {
      EXPECT_LT(n.lhs, i);
    }
    if (n.rhs != Program::kNoNode) {
      EXPECT_LT(n.rhs, i);
    }
    EXPECT_LE(n.subtree_lo, i);
  }
  EXPECT_EQ(program->nodes()[program->root()].op, psl::ExprKind::kAlways);
  EXPECT_EQ(program->nodes()[program->root()].subtree_lo, 0u);
}

TEST(IrProgram, RecordsDynamicNodes) {
  const auto program =
      Program::compile(parse("always (a until! (b release c))"));
  // always, until!, release are multi-instantiating.
  EXPECT_EQ(program->dynamic_count(), 3u);
  EXPECT_EQ(program->dyn_before(0), 0u);
  for (uint32_t ord = 0; ord < program->dynamic_count(); ++ord) {
    const uint32_t n = program->dyn_node(ord);
    EXPECT_EQ(program->dyn_before(n), ord);
    switch (program->nodes()[n].op) {
      case psl::ExprKind::kUntil:
      case psl::ExprKind::kRelease:
      case psl::ExprKind::kAlways:
      case psl::ExprKind::kEventually:
        break;
      default:
        ADD_FAILURE() << "non-dynamic opcode at dyn_node(" << ord << ")";
    }
  }
}

TEST(IrProgram, DedupsAtoms) {
  const auto program = Program::compile(parse("ds && (ds || ds)"));
  EXPECT_EQ(program->atoms().size(), 1u);
}

TEST(IrProgram, CompilesFromInternedId) {
  ExprTable table;
  const ExprPtr tree = parse("always (ds -> next_e[1,20](rdy))");
  const auto a = Program::compile(tree);
  const auto b = Program::compile(table, table.intern(tree));
  ASSERT_EQ(a->size(), b->size());
  for (uint32_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->nodes()[i].op, b->nodes()[i].op) << i;
  }
}

TEST(IrProgram, DumpListsEveryNode) {
  const auto program =
      Program::compile(parse("always ((ds && rdy) -> next[3](out != 0))"));
  std::ostringstream os;
  program->dump(os);
  const std::string listing = os.str();
  EXPECT_NE(listing.find("always"), std::string::npos);
  EXPECT_NE(listing.find("implies"), std::string::npos);
  EXPECT_NE(listing.find("out != 0"), std::string::npos);
  EXPECT_NE(listing.find("root @"), std::string::npos);
}

// ---- Compiled backend parity ----------------------------------------------------

// Same generator family as checker_test.cc's randomized sweep, kept local so
// the two suites can evolve independently.
ExprPtr random_formula(Rng& rng, int depth) {
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
  switch (rng.below(10)) {
    case 0:
      return psl::and_(random_formula(rng, depth - 1),
                       random_formula(rng, depth - 1));
    case 1:
      return psl::or_(random_formula(rng, depth - 1),
                      random_formula(rng, depth - 1));
    case 2:
      return psl::implies(random_formula(rng, depth - 1),
                          random_formula(rng, depth - 1));
    case 3:
      return psl::next(static_cast<uint32_t>(rng.range(1, 3)),
                       random_formula(rng, depth - 1));
    case 4:
      return psl::next_eps(1, rng.range(1, 5) * 10,
                           random_formula(rng, depth - 1));
    case 5:
      return psl::until(random_formula(rng, depth - 1),
                        random_formula(rng, depth - 1), rng.chance(1, 2));
    case 6:
      return psl::release(random_formula(rng, depth - 1),
                          random_formula(rng, depth - 1));
    case 7:
      return psl::always(random_formula(rng, depth - 1));
    case 8:
      return psl::abort_(random_formula(rng, depth - 1),
                         psl::sig(signals[rng.below(3)]));
    default:
      return psl::eventually(random_formula(rng, depth - 1));
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

class IrBackendParity : public ::testing::TestWithParam<int> {};

constexpr int kParitySeeds = 200;

void expect_same_stats(const CheckerStats& a, const CheckerStats& b,
                       const std::string& what);

ExprPtr strip_always(ExprPtr e) {
  while (e->kind == psl::ExprKind::kAlways) e = e->lhs;
  return e;
}

// The generators of the two lane sweeps below, shared with their floor test.
Rng program_sweep_rng(int param) {
  return Rng(static_cast<uint64_t>(param) * 6271 + 5);
}
Rng checker_sweep_rng(int param) {
  return Rng(static_cast<uint64_t>(param) * 40127 + 11);
}

// A lockstep lane of `program`, or nullptr when the kernel rejects it — the
// same per-property choice PropertyChecker makes.
std::unique_ptr<Instance> lane_instance(
    const std::shared_ptr<const Program>& program) {
  if (!ProgramBatch::supported(*program)) return nullptr;
  auto block = std::make_shared<BatchState>(
      std::make_shared<const ProgramBatch>(program));
  return std::make_unique<Instance>(block, block->allocate_lane());
}

// The compiled program and, when ProgramBatch::supported() accepts it, a
// lockstep lane against reference_eval, on every prefix and at the end of
// the trace. A lane-backed program is never time-scheduled.
TEST_P(IrBackendParity, CompiledMatchesInterpreterAndReference) {
  Rng rng = program_sweep_rng(GetParam());
  const ExprPtr formula = random_formula(rng, 3);
  const Trace trace = random_trace(rng, 12);

  const auto program = Program::compile(formula);
  Instance compiled(program);
  const std::unique_ptr<Instance> lane = lane_instance(program);
  std::vector<psl::TimeNs> scratch;
  for (size_t k = 0; k < trace.size(); ++k) {
    const Event ev{trace[k].time, &trace[k].values};
    const Verdict vc = compiled.step(ev);
    const Trace prefix(trace.begin(), trace.begin() + k + 1);
    ASSERT_EQ(vc, reference_eval(formula, prefix, 0, /*complete=*/false))
        << "formula: " << psl::to_string(formula)
        << "\nprefix length: " << k + 1;
    if (lane != nullptr) {
      ASSERT_EQ(lane->step(ev), vc)
          << "vector lane diverged: " << psl::to_string(formula)
          << "\nprefix length: " << k + 1;
      ASSERT_FALSE(lane->next_deadline(scratch).has_value());
      ASSERT_FALSE(compiled.next_deadline(scratch).has_value())
          << "formula: " << psl::to_string(formula);
    }
    if (vc != Verdict::kPending) return;
  }
  ASSERT_EQ(compiled.finish(), reference_eval(formula, trace, 0, true))
      << "formula: " << psl::to_string(formula);
  if (lane != nullptr) {
    ASSERT_EQ(lane->finish(), compiled.verdict())
        << "formula: " << psl::to_string(formula);
  }
}

TEST_P(IrBackendParity, ResetCompiledInstanceBehavesLikeFresh) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 30011 + 7);
  const ExprPtr formula = random_formula(rng, 3);
  const Trace first = random_trace(rng, 8);
  const Trace second = random_trace(rng, 8);

  const auto program = Program::compile(formula);
  Instance reused(program);
  for (const auto& o : first) {
    if (reused.step(Event{o.time, &o.values}) != Verdict::kPending) break;
  }
  reused.reset();

  Instance fresh(program);
  for (const auto& o : second) {
    const Verdict a = reused.step(Event{o.time, &o.values});
    const Verdict b = fresh.step(Event{o.time, &o.values});
    ASSERT_EQ(a, b) << psl::to_string(formula);
    if (a != Verdict::kPending) return;
  }
  ASSERT_EQ(reused.finish(), fresh.finish()) << psl::to_string(formula);
}

// Coverage-counter parity at the checker level: the same random formula
// wrapped in `always`, driven through a full PropertyChecker (lane-backed
// exactly when the kernel accepts the body), against the counts a
// reference_eval run of every activation gives. Every CheckerStats field the
// oracle knows — including the vacuity split and the node-visit cost proxy —
// must match.
TEST_P(IrBackendParity, CoverageCountersIdenticalAcrossBackends) {
  Rng rng = checker_sweep_rng(GetParam());
  const ExprPtr formula = psl::always(random_formula(rng, 3));
  const Trace trace = random_trace(rng, 16);

  PropertyChecker checker("p", formula, nullptr);
  for (const Observation& o : trace) checker.on_event(o.time, o.values);
  checker.finish();

  expect_same_stats(checker.stats(),
                    oracle_run(strip_always(formula), nullptr, trace).stats,
                    psl::to_string(formula));
  // The split partitions the holds exactly.
  EXPECT_EQ(checker.stats().holds,
            checker.stats().real_passes + checker.stats().vacuous_passes);
}

// The two sweeps above stay lane sweeps: enough of their seeds draw a
// program the lockstep kernel accepts.
TEST(IrBackendParityLanes, EverySweepHasLaneBackedCases) {
  size_t program_lanes = 0;
  size_t checker_lanes = 0;
  for (int param = 0; param < kParitySeeds; ++param) {
    Rng a = program_sweep_rng(param);
    program_lanes +=
        ProgramBatch::supported(*Program::compile(random_formula(a, 3)));
    Rng b = checker_sweep_rng(param);
    checker_lanes += ProgramBatch::supported(
        *Program::compile(strip_always(random_formula(b, 3))));
  }
  EXPECT_GE(program_lanes, 15u);  // 19 of 200 seeds
  EXPECT_GE(checker_lanes, 10u);  // 13 of 200 seeds
}

// Boolean-only random formula for activation guards.
ExprPtr random_guard(Rng& rng, int depth) {
  const char* signals[] = {"a", "b", "c"};
  if (depth <= 0 || rng.chance(1, 2)) {
    switch (rng.below(3)) {
      case 0:
        return psl::sig(signals[rng.below(3)]);
      case 1:
        return psl::not_(psl::sig(signals[rng.below(3)]));
      default:
        return psl::cmp(signals[rng.below(3)], psl::CmpOp::kGe, rng.below(3));
    }
  }
  return rng.chance(1, 2)
             ? psl::and_(random_guard(rng, depth - 1),
                         random_guard(rng, depth - 1))
             : psl::or_(random_guard(rng, depth - 1),
                        random_guard(rng, depth - 1));
}

// Prune leg of the randomized sweep: a single-property aggressive plan over
// a random formula with a random activation guard. Every static claim the
// planner makes must agree with the real checker on a random trace — an
// elided-true property never fails, an elided-false property fails at every
// activation (such formulas resolve at their anchor), and a specialized
// formula is verdict- and counter-identical under the same guard.
TEST_P(IrBackendParity, PrunePlanSoundOnRandomFormulas) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 52361 + 13);
  const ExprPtr formula = psl::always(random_formula(rng, 3));
  const ExprPtr guard = rng.chance(1, 2) ? random_guard(rng, 2) : nullptr;

  analysis::PruneInput input;
  input.name = "p";
  input.formula = formula;
  input.guard = guard;
  input.context_key = "posedge";
  const auto plan =
      analysis::build_prune_plan({input}, analysis::PruneMode::kAggressive);
  ASSERT_EQ(plan.decisions.size(), 1u);
  const analysis::PruneDecision& d = plan.decisions[0];

  const Trace trace = random_trace(rng, 14);
  PropertyChecker real("p", formula, guard, {});
  for (const auto& o : trace) real.on_event(o.time, o.values);
  real.finish();

  if (d.action == analysis::PruneAction::kElide) {
    if (d.static_verdict) {
      EXPECT_EQ(real.stats().failures, 0u) << psl::to_string(formula);
    } else {
      EXPECT_EQ(real.stats().failures, real.stats().activations)
          << psl::to_string(formula);
    }
    return;
  }
  if (d.specialized != nullptr) {
    PropertyChecker spec("p", d.specialized, guard, {});
    for (const auto& o : trace) spec.on_event(o.time, o.values);
    spec.finish();
    EXPECT_EQ(spec.stats().activations, real.stats().activations)
        << psl::to_string(formula) << "\nguard: " << psl::to_string(guard)
        << "\nspecialized: " << psl::to_string(d.specialized);
    EXPECT_EQ(spec.stats().failures, real.stats().failures)
        << psl::to_string(formula) << "\nguard: " << psl::to_string(guard)
        << "\nspecialized: " << psl::to_string(d.specialized);
    EXPECT_EQ(spec.ok(), real.ok()) << psl::to_string(formula);
  }
}

// Subsumption claims checked dynamically: when the planner prunes one of
// two random properties, the surviving checker's verdict must bound the
// pruned one's on shared random traces (subsumer ok => subsumed ok).
TEST_P(IrBackendParity, PruneSubsumptionImpliesVerdictOnRandomTraces) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 77003 + 29);
  const ExprPtr f[2] = {psl::always(random_formula(rng, 2)),
                        psl::always(random_formula(rng, 2))};
  std::vector<analysis::PruneInput> inputs(2);
  inputs[0].name = "q0";
  inputs[0].formula = f[0];
  inputs[0].context_key = "posedge";
  inputs[1].name = "q1";
  inputs[1].formula = f[1];
  inputs[1].context_key = "posedge";
  const auto plan =
      analysis::build_prune_plan(inputs, analysis::PruneMode::kSafe);
  for (size_t j = 0; j < plan.decisions.size(); ++j) {
    const analysis::PruneDecision& d = plan.decisions[j];
    if (d.action != analysis::PruneAction::kSubsumed) continue;
    const size_t i = d.subsumed_by == "q0" ? 0 : 1;
    for (int round = 0; round < 3; ++round) {
      const Trace trace = random_trace(rng, 12);
      PropertyChecker subsumer("i", f[i], nullptr, {});
      PropertyChecker subsumed("j", f[j], nullptr, {});
      for (const auto& o : trace) {
        subsumer.on_event(o.time, o.values);
        subsumed.on_event(o.time, o.values);
      }
      subsumer.finish();
      subsumed.finish();
      if (subsumer.ok()) {
        EXPECT_TRUE(subsumed.ok())
            << "subsumer: " << psl::to_string(f[i])
            << "\nsubsumed: " << psl::to_string(f[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IrBackendParity,
                         ::testing::Range(0, kParitySeeds));

TEST(IrBackendParitySuites, SuitePropertiesAgreeOnRandomTraces) {
  // Every suite property, as written and with its always chain stripped
  // (what checkers run), stepped over random traces by its compiled program
  // and, where the kernel accepts it, a lockstep lane, against
  // reference_eval on every prefix.
  Rng rng(97);
  size_t lane_runs = 0;
  models::PropertySuite suites[] = {models::des56_suite(),
                                    models::colorconv_suite()};
  for (const auto& suite : suites) {
    for (const auto& prop : suite.properties) {
      for (const ExprPtr& f : {prop.formula, strip_always(prop.formula)}) {
        const auto program = Program::compile(f);
        for (int round = 0; round < 5; ++round) {
          Trace trace;
          psl::TimeNs time = 10;
          const size_t len = rng.range(4, 20);
          for (size_t i = 0; i < len; ++i) {
            Observation o;
            o.time = time;
            for (const auto& name : psl::referenced_signals(f)) {
              o.values.set(name, rng.below(4));
            }
            trace.push_back(std::move(o));
            time += 10;
          }
          Instance compiled(program);
          const std::unique_ptr<Instance> lane = lane_instance(program);
          if (lane != nullptr) ++lane_runs;
          Verdict vc = Verdict::kPending;
          for (size_t k = 0; k < trace.size() && vc == Verdict::kPending;
               ++k) {
            const Event ev{trace[k].time, &trace[k].values};
            vc = compiled.step(ev);
            const Trace prefix(trace.begin(), trace.begin() + k + 1);
            ASSERT_EQ(vc, reference_eval(f, prefix, 0, /*complete=*/false))
                << suite.design << "." << prop.name;
            if (lane != nullptr) {
              ASSERT_EQ(lane->step(ev), vc) << suite.design << "." << prop.name;
            }
          }
          if (vc != Verdict::kPending) continue;
          ASSERT_EQ(compiled.finish(), reference_eval(f, trace, 0, true))
              << suite.design << "." << prop.name;
          if (lane != nullptr) {
            ASSERT_EQ(lane->finish(), compiled.verdict())
                << suite.design << "." << prop.name;
          }
        }
      }
    }
  }
  EXPECT_GE(lane_runs, 40u);  // 55 runs
}

// ---- Anchor resolution and slot-bound atoms --------------------------------

ExprPtr random_guarded(Rng& rng, int depth);

// A consequent with a temporal operator at the top: next_e, next[n], until,
// or (nested guards) another guard shape.
ExprPtr random_consequent(Rng& rng, int depth) {
  switch (rng.below(4)) {
    case 0:
      return psl::next_eps(1, rng.range(1, 5) * 10, random_formula(rng, depth));
    case 1:
      return psl::next(static_cast<uint32_t>(rng.range(1, 3)),
                       random_formula(rng, depth));
    case 2:
      return psl::until(random_formula(rng, depth), random_formula(rng, depth),
                        rng.chance(1, 2));
    default:
      return depth > 0 ? random_guarded(rng, depth - 1)
                       : psl::next(1, random_formula(rng, 0));
  }
}

// A body of one of the guard shapes derive_antecedent() recognizes:
// `g -> c`, `g || c` and `c || g` (boolean g, temporal c).
ExprPtr random_guarded(Rng& rng, int depth) {
  ExprPtr g = random_guard(rng, 2);
  ExprPtr c = random_consequent(rng, depth);
  switch (rng.below(3)) {
    case 0: return psl::implies(std::move(g), std::move(c));
    case 1: return psl::or_(std::move(g), std::move(c));
    default: return psl::or_(std::move(c), std::move(g));
  }
}

// The trace's observations as snapshots over one shared dictionary, for
// driving checkers down the slot-bound path (ObservablesContext).
std::vector<tlm::Snapshot> to_snapshots(const Trace& trace,
                                        std::vector<std::string> names) {
  auto keys = std::make_shared<const tlm::Snapshot::Keys>(std::move(names));
  std::vector<tlm::Snapshot> out;
  for (const Observation& o : trace) {
    tlm::Snapshot snap(keys);
    for (size_t i = 0; i < keys->size(); ++i) {
      const std::string& name = (*keys)[i];
      if (o.values.has(name)) snap.set_at(i, o.values.value(name));
    }
    out.push_back(std::move(snap));
  }
  return out;
}

// The anchor lemma behind the checkers' vacuous fast path (DESIGN.md §17):
// whenever a guard-shaped body's derived antecedent is false at an anchor,
// the body resolves kTrue at that anchor on every backend — the compiled
// program (name path and slot-bound bits), the lockstep lane and
// reference_eval.
TEST(IrAnchorLemma, FalseAntecedentResolvesTrueAtAnchorOnEveryBackend) {
  size_t anchors = 0;
  size_t lane_anchors = 0;
  for (int seed = 0; seed < 256; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 3);
    const ExprPtr body = random_guarded(rng, 2);
    const ExprPtr antecedent = derive_antecedent(body);
    ASSERT_NE(antecedent, nullptr) << psl::to_string(body);
    const Trace trace = random_trace(rng, 8);
    const std::vector<tlm::Snapshot> snaps =
        to_snapshots(trace, {"c", "a", "b"});
    const auto program = Program::compile(body);
    // Program atoms registered first take slots 0..n-1: the table's bits
    // are then the program's Event::atoms.
    AtomTable table;
    for (size_t a = 0; a < program->atoms().size(); ++a) {
      ASSERT_EQ(table.atom(program->atoms()[a]), a);
    }
    for (size_t k = 0; k < trace.size(); ++k) {
      if (eval_boolean(antecedent, trace[k].values)) continue;
      ++anchors;
      SCOPED_TRACE(psl::to_string(body) + " @" + std::to_string(k));
      const Event ev{trace[k].time, &trace[k].values};
      Instance compiled(program);
      EXPECT_EQ(compiled.step(ev), Verdict::kTrue);
      const abv::ObservablesContext ctx(snaps[k]);
      const uint8_t* bits = table.load(ctx);
      ASSERT_NE(bits, nullptr);
      const Event slot_ev{trace[k].time, &ctx, bits};
      Instance slot_compiled(program);
      EXPECT_EQ(slot_compiled.step(slot_ev), Verdict::kTrue);
      if (ProgramBatch::supported(*program)) {
        ++lane_anchors;
        auto block = std::make_shared<BatchState>(
            std::make_shared<const ProgramBatch>(program));
        Instance lane(block, block->allocate_lane());
        EXPECT_EQ(lane.step(ev), Verdict::kTrue);
        Instance slot_lane(block, block->allocate_lane());
        EXPECT_EQ(slot_lane.step(slot_ev), Verdict::kTrue);
      }
      const Trace prefix(trace.begin(), trace.begin() + k + 1);
      EXPECT_EQ(reference_eval(body, prefix, k, /*complete=*/false),
                Verdict::kTrue);
    }
  }
  EXPECT_GE(anchors, 200u);  // the sweep exercised the lemma
  EXPECT_GE(lane_anchors, 120u);  // 165 anchors
}

// The checker-level consequence of the lemma: activations resolved at the
// anchor without an instance count exactly what stepping one would, on
// both backends (scalar and lane-backed programs) and on both the slot-bound
// and the name path.
TEST(IrAnchorLemma, CheckerCountsMatchReferenceOracle) {
  uint64_t vacuous = 0;
  size_t lane_checkers = 0;
  for (int seed = 0; seed < 200; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 65537 + 29);
    ExprPtr body =
        rng.chance(3, 4) ? random_guarded(rng, 2) : random_formula(rng, 2);
    // The checker strips the whole leading always chain.
    while (body->kind == psl::ExprKind::kAlways) body = body->lhs;
    const ExprPtr guard = rng.chance(1, 3) ? random_guard(rng, 1) : nullptr;
    const Trace trace = random_trace(rng, 14);
    const std::vector<tlm::Snapshot> snaps = to_snapshots(trace, {"a", "b", "c"});
    // The independent oracle for the activation accounting (the anchor fast
    // path must reproduce a full evaluation of every activation).
    const CheckerStats want = oracle_run(body, guard, trace).stats;
    vacuous += want.vacuous_passes;
    const std::string what = psl::to_string(body);
    PropertyChecker by_name("p", psl::always(body), guard);
    PropertyChecker by_slot("p", psl::always(body), guard);
    lane_checkers += ProgramBatch::supported(*by_name.program());
    for (size_t k = 0; k < trace.size(); ++k) {
      by_name.on_event(trace[k].time, trace[k].values);
      by_slot.on_event(trace[k].time, abv::ObservablesContext(snaps[k]));
    }
    by_name.finish();
    by_slot.finish();
    expect_same_stats(by_name.stats(), want, what);
    expect_same_stats(by_slot.stats(), want, what);
  }
  EXPECT_GE(vacuous, 200u);  // the fast path was taken
  EXPECT_GE(lane_checkers, 30u);  // 39 of 200 seeds
}

void expect_same_stats(const CheckerStats& a, const CheckerStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.activations, b.activations) << what;
  EXPECT_EQ(a.failures, b.failures) << what;
  EXPECT_EQ(a.holds, b.holds) << what;
  EXPECT_EQ(a.trivial, b.trivial) << what;
  EXPECT_EQ(a.uncompleted, b.uncompleted) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.real_passes, b.real_passes) << what;
  EXPECT_EQ(a.vacuous_passes, b.vacuous_passes) << what;
  EXPECT_EQ(a.node_visits, b.node_visits) << what;
}

// Every field, pool and evaluation table included.
void expect_same_wrapper_stats(const CheckerStats& a, const CheckerStats& b,
                               const std::string& what) {
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.activations, b.activations) << what;
  EXPECT_EQ(a.failures, b.failures) << what;
  EXPECT_EQ(a.holds, b.holds) << what;
  EXPECT_EQ(a.trivial, b.trivial) << what;
  EXPECT_EQ(a.uncompleted, b.uncompleted) << what;
  EXPECT_EQ(a.reuses, b.reuses) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.real_passes, b.real_passes) << what;
  EXPECT_EQ(a.vacuous_passes, b.vacuous_passes) << what;
  EXPECT_EQ(a.missed_deadlines, b.missed_deadlines) << what;
  EXPECT_EQ(a.node_visits, b.node_visits) << what;
  EXPECT_EQ(a.pool_capacity, b.pool_capacity) << what;
  EXPECT_EQ(a.table_peak, b.table_peak) << what;
}

// ---- until / release parity over long pending runs ---------------------------

// Values (a, b, c) that keep `a until b` open, and those that keep
// `a release b` open; the compound operands below stay open on them too.
using Abc = std::array<uint64_t, 3>;
constexpr Abc kUntilOpen = {1, 0, 0};
constexpr Abc kReleaseOpen = {0, 1, 0};

void push_event(Trace& trace, const Abc& abc) {
  Observation o;
  o.time = trace.empty() ? 10 : trace.back().time + 10;
  o.values.set("a", abc[0]);
  o.values.set("b", abc[1]);
  o.values.set("c", abc[2]);
  trace.push_back(std::move(o));
}

// A trace of pending runs (64..80 events holding one operator's open values)
// separated by a few random events, ending inside a run that keeps `open`
// formulas pending to the last event.
Trace pending_run_trace(Rng& rng, const Abc& open) {
  Trace trace;
  const size_t runs = rng.range(1, 2);
  for (size_t r = 0; r < runs; ++r) {
    const Abc& run = rng.chance(1, 2) ? kUntilOpen : kReleaseOpen;
    for (size_t i = rng.range(64, 80); i > 0; --i) push_event(trace, run);
    for (size_t i = rng.range(1, 4); i > 0; --i) {
      push_event(trace, {rng.below(2), rng.below(2), rng.below(2)});
    }
  }
  for (size_t i = rng.range(64, 72); i > 0; --i) push_event(trace, open);
  return trace;
}

// The until/release family with boolean operands (plain and compound), their
// negations, and the same formulas under next[k] and a conjunction. Each
// comes with the values that keep it pending.
std::vector<std::pair<ExprPtr, Abc>> fixpoint_family() {
  using psl::sig;
  struct Operands {
    ExprPtr p, q;
  };
  const Operands operand_sets[] = {
      {sig("a"), sig("b")},
      {psl::and_(sig("a"), psl::not_(sig("c"))), psl::or_(sig("b"), sig("c"))},
  };
  std::vector<std::pair<ExprPtr, Abc>> out;
  for (const Operands& o : operand_sets) {
    const std::pair<ExprPtr, Abc> base[] = {
        {psl::until(o.p, o.q, /*strong=*/false), kUntilOpen},
        {psl::until(o.p, o.q, /*strong=*/true), kUntilOpen},
        {psl::release(o.p, o.q), kReleaseOpen},
    };
    for (const auto& [f, open] : base) {
      out.emplace_back(f, open);
      out.emplace_back(psl::not_(f), open);
      out.emplace_back(psl::next(3, f), open);
      out.emplace_back(psl::next(1, psl::not_(f)), open);
      out.emplace_back(psl::and_(psl::not_(sig("c")), f), open);
      out.emplace_back(psl::and_(f, psl::next(2, f)), open);
    }
  }
  return out;
}

// Steps one instance anchored at `k` to resolution or to the end of the
// trace, then finishes it.
Resolution run_instance(Instance& inst, const Trace& trace, size_t k) {
  Resolution r;
  r.at = trace.size();
  for (size_t j = k; j < trace.size(); ++j) {
    ++r.steps;
    const Verdict v = inst.step(Event{trace[j].time, &trace[j].values});
    if (v != Verdict::kPending) {
      r.verdict = v;
      r.at = j;
      return r;
    }
  }
  r.verdict = inst.finish();
  return r;
}

// Compiled program and reference_eval agree on the verdict, the resolution
// event and the step count of every anchor, over pending runs of 64+ events
// and with instances still open when the trace ends. A checker over
// `always f` adds up the same session counts.
TEST(IrFixpointParity, LongPendingRunsAgreeOnEveryBackend) {
  const auto family = fixpoint_family();
  for (size_t fi = 0; fi < family.size(); ++fi) {
    const auto& [f, open] = family[fi];
    const auto program = Program::compile(f);
    for (uint64_t seed = 0; seed < 3; ++seed) {
      Rng rng(fi * 7919 + seed * 104729 + 1);
      const Trace trace = pending_run_trace(rng, open);
      SCOPED_TRACE(psl::to_string(f) + " seed " + std::to_string(seed));
      const std::vector<Resolution> want = reference_resolutions(f, trace);
      CheckerStats sum;
      size_t open_at_end = 0;
      uint64_t longest = 0;
      for (size_t k = 0; k < trace.size(); ++k) {
        Instance compiled(program);
        const Resolution rc = run_instance(compiled, trace, k);
        ASSERT_EQ(rc, want[k]) << "compiled, anchor " << k;
        if (rc.at == trace.size()) ++open_at_end;
        longest = std::max(longest, rc.steps);
        sum.steps += rc.steps;
        if (rc.at == k) ++sum.trivial;
        // Sessions open at the end count by their finish() verdict.
        if (rc.verdict == Verdict::kTrue) {
          ++sum.holds;
        } else if (rc.verdict == Verdict::kFalse) {
          ++sum.failures;
        } else {
          ++sum.uncompleted;
        }
      }
      EXPECT_GE(open_at_end, 1u);
      EXPECT_GE(longest, 64u);
      PropertyChecker checker("p", psl::always(f), nullptr);
      for (const Observation& o : trace) checker.on_event(o.time, o.values);
      checker.finish();
      const CheckerStats& got = checker.stats();
      EXPECT_EQ(got.activations, trace.size());
      EXPECT_EQ(got.steps, sum.steps);
      EXPECT_EQ(got.trivial, sum.trivial);
      EXPECT_EQ(got.uncompleted, sum.uncompleted);
      EXPECT_EQ(got.holds, sum.holds);
      EXPECT_EQ(got.failures, sum.failures);
    }
  }
}

// Slot-bound atoms are a pure speed-up: unabstracted and abstracted
// checkers fed the same events through a positional dictionary (in a
// scrambled slot order, with an extra unused observable) or by name reach
// byte-identical stats, latency histograms and failure logs, scalar and
// lane-backed alike.
TEST(IrSlotBinding, SlotAndNamePathsAgreeOnEveryBackend) {
  size_t lane_checkers = 0;
  for (int seed = 0; seed < 200; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 104729 + 17);
    const ExprPtr body =
        rng.chance(1, 2) ? random_guarded(rng, 2) : random_formula(rng, 3);
    const ExprPtr formula = psl::always(body);
    const ExprPtr guard = rng.chance(1, 3) ? random_guard(rng, 1) : nullptr;
    const Trace trace = random_trace(rng, 16);
    const std::vector<tlm::Snapshot> snaps =
        to_snapshots(trace, {"b", "zz", "c", "a"});
    const std::string what = psl::to_string(formula);
    PropertyChecker by_name("p", formula, guard);
    PropertyChecker by_slot("p", formula, guard);
    PropertyChecker w_name({"q", formula, {guard}}, 10);
    PropertyChecker w_slot({"q", formula, {guard}}, 10);
    lane_checkers += ProgramBatch::supported(*by_name.program());
    for (size_t k = 0; k < trace.size(); ++k) {
      const abv::ObservablesContext ctx(snaps[k]);
      by_name.on_event(trace[k].time, trace[k].values);
      by_slot.on_event(trace[k].time, ctx);
      w_name.on_event(trace[k].time, trace[k].values);
      w_slot.on_event(trace[k].time, ctx);
    }
    by_name.finish();
    by_slot.finish();
    w_name.finish();
    w_slot.finish();
    EXPECT_TRUE(by_slot.binding_error().empty()) << by_slot.binding_error();
    expect_same_stats(by_name.stats(), by_slot.stats(), what);
    expect_same_wrapper_stats(w_name.stats(), w_slot.stats(), what);
    EXPECT_EQ(by_name.latency_histogram().counts(),
              by_slot.latency_histogram().counts())
        << what;
    EXPECT_EQ(w_name.latency_histogram().counts(),
              w_slot.latency_histogram().counts())
        << what;
    ASSERT_EQ(w_name.failures().size(), w_slot.failures().size()) << what;
    for (size_t i = 0; i < w_name.failures().size(); ++i) {
      EXPECT_EQ(w_name.failures()[i].time, w_slot.failures()[i].time)
          << what;
    }
  }
  EXPECT_GE(lane_checkers, 24u);  // 31 of 200 seeds
}

TEST(IrSlotBinding, RebindsWhenTheDictionaryChanges) {
  // a == b with a signal on both sides, then the same values under a
  // permuted dictionary: the second event must rebind, not reuse slots.
  psl::Atom eq;
  eq.lhs = "a";
  eq.op = psl::CmpOp::kEq;
  eq.rhs_is_signal = true;
  eq.rhs_signal = "b";
  AtomTable table;
  const uint32_t eq_slot = table.atom(eq);
  const uint32_t not_c = table.boolean(psl::not_(psl::sig("c")));
  const uint32_t c_slot = table.boolean(psl::sig("c"));

  auto first = std::make_shared<const tlm::Snapshot::Keys>(
      tlm::Snapshot::Keys{"a", "b", "c"});
  tlm::Snapshot s1(first);
  s1.set("a", 4);
  s1.set("b", 4);
  s1.set("c", 0);
  const uint8_t* bits = table.load(abv::ObservablesContext(s1));
  ASSERT_NE(bits, nullptr);
  EXPECT_EQ(bits[eq_slot], 1);  // a == b
  EXPECT_EQ(bits[c_slot], 0);   // c
  EXPECT_EQ(bits[not_c], 1);    // !c
  const uint64_t bound = table.generation();

  auto second = std::make_shared<const tlm::Snapshot::Keys>(
      tlm::Snapshot::Keys{"c", "b", "a"});
  tlm::Snapshot s2(second);
  s2.set("a", 4);
  s2.set("b", 5);
  s2.set("c", 1);
  bits = table.load(abv::ObservablesContext(s2));
  ASSERT_NE(bits, nullptr);
  EXPECT_EQ(bits[eq_slot], 0);
  EXPECT_EQ(bits[c_slot], 1);
  EXPECT_EQ(bits[not_c], 0);
  EXPECT_EQ(table.generation(), bound + 1);  // rebound
  EXPECT_EQ(table.missing(eq_slot), nullptr);
  EXPECT_EQ(table.missing(c_slot), nullptr);

  // A context without a positional view keeps the name path.
  MapContext by_name({{"a", 1}, {"b", 1}, {"c", 1}});
  EXPECT_EQ(table.load(by_name), nullptr);
  EXPECT_EQ(table.bits(), nullptr);
}

TEST(IrSlotBinding, MissingObservableFailsAtBindTime) {
  PropertyChecker checker("p7", psl::always(psl::or_(psl::not_(psl::sig("ds")),
                                                     psl::next(1, psl::sig("rdy")))),
                          nullptr);
  auto keys = std::make_shared<const tlm::Snapshot::Keys>(
      tlm::Snapshot::Keys{"ds", "out"});
  tlm::Snapshot snap(keys);
  snap.set("ds", 1);
  checker.on_event(10, abv::ObservablesContext(snap));
  checker.on_event(20, abv::ObservablesContext(snap));
  checker.finish();
  EXPECT_EQ(checker.binding_error(),
            "property 'p7': observable 'rdy' missing from the record "
            "dictionary");
  EXPECT_EQ(checker.stats().activations, 0u);  // inert from the first event
}

// ---- Pass manager ---------------------------------------------------------------

rewrite::AbstractionOptions p3_options() {
  rewrite::AbstractionOptions options;
  options.clock_period_ns = 10;
  options.abstracted_signals = {"rdy_next_cycle", "rdy_next_next_cycle"};
  return options;
}

psl::RtlProperty fig3_p3() {
  auto parsed = psl::parse_rtl_property(
      "p3: always (!ds || (next[15](rdy_next_next_cycle) && "
      "next[16](rdy_next_cycle) && next[17](rdy))) @clk_pos");
  EXPECT_TRUE(parsed.ok());
  return parsed.value();
}

TEST(IrPassManager, RecordsOneTracePerStageForP3) {
  rewrite::PassManager pm(p3_options());
  const rewrite::AbstractionOutcome outcome =
      rewrite::abstract_property(pm, fig3_p3());
  ASSERT_FALSE(outcome.deleted());
  EXPECT_EQ(psl::to_string(*outcome.property),
            "always !ds || next_e[1,170](rdy) @Tb");

  ASSERT_EQ(outcome.passes.size(), 5u);
  EXPECT_EQ(outcome.passes[0].pass, "nnf");
  EXPECT_EQ(outcome.passes[1].pass, "signal-abstraction");
  EXPECT_EQ(outcome.passes[2].pass, "push-ahead");
  EXPECT_EQ(outcome.passes[3].pass, "next-substitution");
  EXPECT_EQ(outcome.passes[4].pass, "context-map");

  // Fig. 3's pipeline: signal abstraction drops the two next-chains over
  // abstracted handshake signals, Algorithm III.1 rewrites the surviving
  // next[17] into next_e[1, 170].
  EXPECT_TRUE(outcome.passes[1].changed);
  EXPECT_EQ(outcome.passes[1].after, "always !ds || next[17](rdy)");
  EXPECT_LT(outcome.passes[1].nodes_after, outcome.passes[1].nodes_before);
  EXPECT_FALSE(outcome.passes[1].notes.empty());
  EXPECT_TRUE(outcome.passes[3].changed);
  EXPECT_EQ(outcome.passes[3].after, "always !ds || next_e[1,170](rdy)");
  EXPECT_EQ(outcome.passes[4].before, "clk_pos");
  EXPECT_EQ(outcome.passes[4].after, "Tb");

  // First run: nothing cached.
  for (const auto& t : outcome.passes) {
    EXPECT_FALSE(t.cache_hit) << t.pass;
  }
}

TEST(IrPassManager, MemoizesRepeatedAbstraction) {
  rewrite::PassManager pm(p3_options());
  rewrite::abstract_property(pm, fig3_p3());
  const auto stats_before = pm.cache_stats();
  EXPECT_EQ(stats_before.hits, 0u);
  EXPECT_EQ(stats_before.misses, 4u);

  const rewrite::AbstractionOutcome again =
      rewrite::abstract_property(pm, fig3_p3());
  EXPECT_EQ(pm.cache_stats().hits, 4u);
  EXPECT_EQ(pm.cache_stats().misses, 4u);
  // All rewrite stages report the memo hit; results are identical.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(again.passes[i].cache_hit) << again.passes[i].pass;
  }
  EXPECT_EQ(psl::to_string(*again.property),
            "always !ds || next_e[1,170](rdy) @Tb");
  EXPECT_EQ(again.classification, rewrite::AbstractionClass::kConsequence);
}

TEST(IrPassManager, ThrowawayOverloadMatchesSharedManager) {
  // The legacy entry point must produce identical outcomes (the suites and
  // examples depend on it).
  const rewrite::AbstractionOutcome a =
      rewrite::abstract_property(fig3_p3(), p3_options());
  rewrite::PassManager pm(p3_options());
  const rewrite::AbstractionOutcome b = rewrite::abstract_property(pm, fig3_p3());
  ASSERT_FALSE(a.deleted());
  ASSERT_FALSE(b.deleted());
  EXPECT_TRUE(psl::equal(a.property->formula, b.property->formula));
  EXPECT_EQ(a.notes, b.notes);
  EXPECT_EQ(a.classification, b.classification);
}

TEST(IrPassManager, SuiteSharesOneManager) {
  // Abstracting the full DES56 suite twice in one call list: the repeated
  // property bodies hit the memo (hits > 0 requires shared state).
  const models::PropertySuite suite = models::des56_suite();
  std::vector<psl::RtlProperty> doubled = suite.properties;
  doubled.insert(doubled.end(), suite.properties.begin(),
                 suite.properties.end());
  rewrite::AbstractionOptions options;
  options.clock_period_ns = suite.clock_period_ns;
  options.abstracted_signals = suite.abstracted_signals;
  const auto outcomes = rewrite::abstract_suite(doubled, options);
  ASSERT_EQ(outcomes.size(), doubled.size());
  for (size_t i = 0; i < suite.properties.size(); ++i) {
    const auto& first = outcomes[i];
    const auto& second = outcomes[i + suite.properties.size()];
    EXPECT_EQ(first.deleted(), second.deleted()) << suite.properties[i].name;
    if (!first.deleted()) {
      EXPECT_TRUE(psl::equal(first.property->formula, second.property->formula));
      // The second run of every property is answered from the memo.
      for (size_t s = 0; s < 4; ++s) {
        EXPECT_TRUE(second.passes[s].cache_hit)
            << suite.properties[i].name << " " << second.passes[s].pass;
      }
    }
  }
}

TEST(IrPassManager, DeletedPropertyStopsAfterSignalAbstraction) {
  rewrite::AbstractionOptions options;
  options.abstracted_signals = {"a", "b"};
  rewrite::PassManager pm(options);
  auto parsed = psl::parse_rtl_property("always (a -> next(b)) @clk_pos");
  ASSERT_TRUE(parsed.ok());
  const auto outcome = rewrite::abstract_property(pm, parsed.value());
  EXPECT_TRUE(outcome.deleted());
  ASSERT_EQ(outcome.passes.size(), 2u);
  EXPECT_EQ(outcome.passes[1].pass, "signal-abstraction");
  EXPECT_EQ(outcome.passes[1].after, "(deleted)");
  EXPECT_EQ(outcome.passes[1].nodes_after, 0u);
}

TEST(IrPassManager, FormatPassesRendersEveryStage) {
  rewrite::PassManager pm(p3_options());
  const auto outcome = rewrite::abstract_property(pm, fig3_p3());
  const std::string text = rewrite::format_passes(outcome.passes);
  EXPECT_NE(text.find("[1] nnf"), std::string::npos);
  EXPECT_NE(text.find("[2] signal-abstraction"), std::string::npos);
  EXPECT_NE(text.find("[5] context-map"), std::string::npos);
  EXPECT_NE(text.find("next_e[1,170](rdy)"), std::string::npos);
  EXPECT_NE(text.find("changed"), std::string::npos);
}

// ---- Parser/printer round trip --------------------------------------------------

void expect_roundtrip(const ExprPtr& formula, const std::string& label) {
  const std::string printed = psl::to_string(formula);
  auto reparsed = psl::parse_expr(printed);
  ASSERT_TRUE(reparsed.ok())
      << label << ": " << printed << ": " << reparsed.error().to_string();
  EXPECT_TRUE(psl::equal(formula, reparsed.value()))
      << label << ": " << printed << " -> " << psl::to_string(reparsed.value());
}

TEST(IrRoundTrip, AllSuitePropertiesSurviveParsePrintParse) {
  models::PropertySuite suites[] = {models::des56_suite(),
                                    models::colorconv_suite()};
  for (const auto& suite : suites) {
    for (const auto& prop : suite.properties) {
      expect_roundtrip(prop.formula, suite.design + "." + prop.name);
    }
  }
  expect_roundtrip(models::des56_p2_paper().formula, "des56.p2_paper");
}

TEST(IrRoundTrip, RandomFormulasSurviveParsePrintParse) {
  Rng rng(31415);
  for (int i = 0; i < 300; ++i) {
    const ExprPtr formula = random_formula(rng, 4);
    expect_roundtrip(formula, "random#" + std::to_string(i));
    // And interning the reparsed tree yields the same id as the original.
    ExprTable table;
    const ExprId a = table.intern(formula);
    const ExprId b =
        table.intern(psl::parse_expr(psl::to_string(formula)).value());
    EXPECT_EQ(a, b) << psl::to_string(formula);
  }
}

}  // namespace
}  // namespace repro::checker
