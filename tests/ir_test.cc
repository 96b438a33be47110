// IR-layer tests: the hash-consed expression arena (psl/intern.h), the
// compiled checker programs (checker/program.h), parity of the compiled
// backend against both the tree interpreter and the reference evaluator,
// and the parser/printer round-trip over the full property suites.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "abv/report.h"
#include "abv/snapshot_context.h"
#include "analysis/prune.h"
#include "checker/batch.h"
#include "checker/checker.h"
#include "checker/instance.h"
#include "checker/program.h"
#include "checker/reference_eval.h"
#include "checker/slot_binding.h"
#include "checker/trace.h"
#include "checker/wrapper.h"
#include "models/properties.h"
#include "models/testbench.h"
#include "psl/ast.h"
#include "psl/intern.h"
#include "psl/parser.h"
#include "rewrite/methodology.h"
#include "rewrite/pass_manager.h"
#include "support/rng.h"
#include "tlm/transaction.h"

namespace repro::checker {
namespace {

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

// Three-way parity: interpreter vs scalar compiled vs (for frame-free
// programs) a lockstep lane of the vectorized backend. The lane instance is
// absent when the random formula drew a dynamic operator — exactly the
// per-property fallback the wrapper applies.
TEST_P(IrBackendParity, CompiledMatchesInterpreterAndReference) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6271 + 5);
  const ExprPtr formula = random_formula(rng, 3);
  const Trace trace = random_trace(rng, 12);

  const auto program = Program::compile(formula);
  Instance interpreted(formula);
  Instance compiled(program);
  std::unique_ptr<Instance> lane;
  if (ProgramBatch::supported(*program)) {
    auto block = std::make_shared<BatchState>(
        std::make_shared<const ProgramBatch>(program));
    lane = std::make_unique<Instance>(block, block->allocate_lane());
  }
  for (size_t k = 0; k < trace.size(); ++k) {
    const Event ev{trace[k].time, &trace[k].values};
    const Verdict vi = interpreted.step(ev);
    const Verdict vc = compiled.step(ev);
    ASSERT_EQ(vc, vi) << "formula: " << psl::to_string(formula)
                      << "\nprefix length: " << k + 1;
    ASSERT_EQ(compiled.next_deadline(), interpreted.next_deadline())
        << "formula: " << psl::to_string(formula) << "\nprefix length: " << k + 1;
    if (lane != nullptr) {
      ASSERT_EQ(lane->step(ev), vc)
          << "vector lane diverged: " << psl::to_string(formula)
          << "\nprefix length: " << k + 1;
      ASSERT_EQ(lane->next_deadline(), compiled.next_deadline())
          << "formula: " << psl::to_string(formula)
          << "\nprefix length: " << k + 1;
    }
    const Trace prefix(trace.begin(), trace.begin() + k + 1);
    ASSERT_EQ(vc, reference_eval(formula, prefix, 0, /*complete=*/false))
        << "formula: " << psl::to_string(formula);
    if (vc != Verdict::kPending) return;
  }
  ASSERT_EQ(compiled.finish(), interpreted.finish())
      << "formula: " << psl::to_string(formula);
  if (lane != nullptr) {
    ASSERT_EQ(lane->finish(), compiled.verdict())
        << "formula: " << psl::to_string(formula);
  }
  ASSERT_EQ(compiled.verdict(), reference_eval(formula, trace, 0, true))
      << "formula: " << psl::to_string(formula);
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
// wrapped in `always` and driven through three full PropertyChecker
// backends (interpreter, compiled scalar, compiled+vectorized). Every
// CheckerStats field — including the vacuity split and the node-visit cost
// proxy — must be byte-identical; only the vector_* accounting may differ.
TEST_P(IrBackendParity, CoverageCountersIdenticalAcrossBackends) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 40127 + 11);
  const ExprPtr formula = psl::always(random_formula(rng, 3));
  const Trace trace = random_trace(rng, 16);

  CheckerOptions interp_opts;
  interp_opts.compiled = false;
  CheckerOptions scalar_opts;
  scalar_opts.compiled = true;
  scalar_opts.vectorized = false;
  CheckerOptions vector_opts;
  vector_opts.compiled = true;
  vector_opts.vectorized = true;
  PropertyChecker interp("p", formula, nullptr, interp_opts);
  PropertyChecker scalar("p", formula, nullptr, scalar_opts);
  PropertyChecker vector("p", formula, nullptr, vector_opts);
  for (const Observation& o : trace) {
    interp.on_event(o.time, o.values);
    scalar.on_event(o.time, o.values);
    vector.on_event(o.time, o.values);
  }
  interp.finish();
  scalar.finish();
  vector.finish();

  const auto expect_same = [&](const CheckerStats& a, const CheckerStats& b) {
    EXPECT_EQ(a.events, b.events) << psl::to_string(formula);
    EXPECT_EQ(a.activations, b.activations) << psl::to_string(formula);
    EXPECT_EQ(a.failures, b.failures) << psl::to_string(formula);
    EXPECT_EQ(a.holds, b.holds) << psl::to_string(formula);
    EXPECT_EQ(a.trivial, b.trivial) << psl::to_string(formula);
    EXPECT_EQ(a.uncompleted, b.uncompleted) << psl::to_string(formula);
    EXPECT_EQ(a.steps, b.steps) << psl::to_string(formula);
    EXPECT_EQ(a.real_passes, b.real_passes) << psl::to_string(formula);
    EXPECT_EQ(a.vacuous_passes, b.vacuous_passes) << psl::to_string(formula);
    EXPECT_EQ(a.node_visits, b.node_visits) << psl::to_string(formula);
  };
  expect_same(interp.stats(), scalar.stats());
  expect_same(scalar.stats(), vector.stats());
  // The split partitions the holds exactly.
  EXPECT_EQ(scalar.stats().holds,
            scalar.stats().real_passes + scalar.stats().vacuous_passes);
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

INSTANTIATE_TEST_SUITE_P(Sweep, IrBackendParity, ::testing::Range(0, 200));

TEST(IrBackendParitySuites, SuitePropertiesAgreeOnRandomTraces) {
  // Every suite property (the always-stripped body is what wrappers run, but
  // here the full formula) stepped over shared random traces on both
  // backends.
  Rng rng(97);
  models::PropertySuite suites[] = {models::des56_suite(),
                                    models::colorconv_suite()};
  for (const auto& suite : suites) {
    for (const auto& prop : suite.properties) {
      const auto program = Program::compile(prop.formula);
      for (int round = 0; round < 5; ++round) {
        Trace trace;
        psl::TimeNs time = 10;
        const size_t len = rng.range(4, 20);
        for (size_t i = 0; i < len; ++i) {
          Observation o;
          o.time = time;
          for (const auto& name : psl::referenced_signals(prop.formula)) {
            o.values.set(name, rng.below(4));
          }
          trace.push_back(std::move(o));
          time += 10;
        }
        Instance interpreted(prop.formula);
        Instance compiled(program);
        bool resolved = false;
        for (const auto& o : trace) {
          const Event ev{o.time, &o.values};
          const Verdict vi = interpreted.step(ev);
          const Verdict vc = compiled.step(ev);
          ASSERT_EQ(vc, vi) << suite.design << "." << prop.name;
          if (vc != Verdict::kPending) {
            resolved = true;
            break;
          }
        }
        if (!resolved) {
          ASSERT_EQ(compiled.finish(), interpreted.finish())
              << suite.design << "." << prop.name;
        }
      }
    }
  }
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
// program (name path and slot-bound bits), the lockstep lane, the
// interpreter and reference_eval.
TEST(IrAnchorLemma, FalseAntecedentResolvesTrueAtAnchorOnEveryBackend) {
  size_t anchors = 0;
  for (int seed = 0; seed < 256; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 3);
    const ExprPtr body = random_guarded(rng, 2);
    const ExprPtr antecedent = derive_antecedent(body);
    ASSERT_NE(antecedent, nullptr) << psl::to_string(body);
    const Trace trace = random_trace(rng, 8);
    const std::vector<tlm::Snapshot> snaps =
        to_snapshots(trace, {"c", "a", "b"});
    const auto program = Program::compile(body);
    AtomSlots slots;
    slots.reset("p", program.get());
    for (size_t k = 0; k < trace.size(); ++k) {
      if (eval_boolean(antecedent, trace[k].values)) continue;
      ++anchors;
      SCOPED_TRACE(psl::to_string(body) + " @" + std::to_string(k));
      const Event ev{trace[k].time, &trace[k].values};
      Instance interpreted(body);
      Instance compiled(program);
      EXPECT_EQ(interpreted.step(ev), Verdict::kTrue);
      EXPECT_EQ(compiled.step(ev), Verdict::kTrue);
      const abv::ObservablesContext ctx(snaps[k]);
      const uint8_t* bits = slots.load(ctx);
      ASSERT_NE(bits, nullptr);
      const Event slot_ev{trace[k].time, &ctx, bits};
      Instance slot_compiled(program);
      EXPECT_EQ(slot_compiled.step(slot_ev), Verdict::kTrue);
      if (ProgramBatch::supported(*program)) {
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
}

// Independent oracle for the checker's activation accounting: the counts a
// full evaluation of every activation must produce, from reference_eval on
// growing prefixes. The anchor fast path must reproduce them exactly.
CheckerStats oracle_stats(const ExprPtr& body, const ExprPtr& guard,
                          const Trace& trace) {
  CheckerStats s;
  s.events = trace.size();
  const ExprPtr antecedent = derive_antecedent(body);
  const uint64_t cost = psl::node_count(body);
  for (size_t k = 0; k < trace.size(); ++k) {
    if (guard && !eval_boolean(guard, trace[k].values)) continue;
    ++s.activations;
    Verdict v = Verdict::kPending;
    size_t j = k;
    for (; j < trace.size(); ++j) {
      const Trace prefix(trace.begin(), trace.begin() + j + 1);
      v = reference_eval(body, prefix, k, /*complete=*/false);
      if (v != Verdict::kPending) break;
    }
    if (v == Verdict::kPending) {
      s.steps += trace.size() - k;
      v = reference_eval(body, trace, k, /*complete=*/true);
    } else {
      s.steps += j - k + 1;
      if (j == k) ++s.trivial;
    }
    if (v == Verdict::kTrue) {
      ++s.holds;
      const bool exercised =
          antecedent == nullptr || eval_boolean(antecedent, trace[k].values);
      ++(exercised ? s.real_passes : s.vacuous_passes);
    } else if (v == Verdict::kFalse) {
      ++s.failures;
    } else {
      ++s.uncompleted;
    }
  }
  s.node_visits = s.steps * cost;
  return s;
}

void expect_same_stats(const CheckerStats& a, const CheckerStats& b,
                       const std::string& what);

// The checker-level consequence of the lemma: activations resolved at the
// anchor without an instance count exactly what stepping one would, on
// every backend and on both the slot-bound and the name path.
TEST(IrAnchorLemma, CheckerCountsMatchReferenceOracle) {
  CheckerOptions interp_opts;
  interp_opts.compiled = false;
  CheckerOptions scalar_opts;
  scalar_opts.vectorized = false;
  const CheckerOptions vector_opts;
  const CheckerOptions backends[] = {interp_opts, scalar_opts, vector_opts};
  uint64_t vacuous = 0;
  for (int seed = 0; seed < 200; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 65537 + 29);
    ExprPtr body =
        rng.chance(3, 4) ? random_guarded(rng, 2) : random_formula(rng, 2);
    // The checker strips the whole leading always chain.
    while (body->kind == psl::ExprKind::kAlways) body = body->lhs;
    const ExprPtr guard = rng.chance(1, 3) ? random_guard(rng, 1) : nullptr;
    const Trace trace = random_trace(rng, 14);
    const std::vector<tlm::Snapshot> snaps = to_snapshots(trace, {"a", "b", "c"});
    const CheckerStats want = oracle_stats(body, guard, trace);
    vacuous += want.vacuous_passes;
    const std::string what = psl::to_string(body);
    for (const CheckerOptions& opts : backends) {
      PropertyChecker by_name("p", psl::always(body), guard, opts);
      PropertyChecker by_slot("p", psl::always(body), guard, opts);
      for (size_t k = 0; k < trace.size(); ++k) {
        by_name.on_event(trace[k].time, trace[k].values);
        by_slot.on_event(trace[k].time, abv::ObservablesContext(snaps[k]));
      }
      by_name.finish();
      by_slot.finish();
      expect_same_stats(by_name.stats(), want, what);
      expect_same_stats(by_slot.stats(), want, what);
    }
  }
  EXPECT_GE(vacuous, 200u);  // the fast path was taken
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

void expect_same_stats(const WrapperStats& a, const WrapperStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.transactions, b.transactions) << what;
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
  EXPECT_EQ(a.pool_dropped, b.pool_dropped) << what;
  EXPECT_EQ(a.table_peak, b.table_peak) << what;
}

// Slot-bound atoms are a pure speed-up: checkers and wrappers fed the same
// events through a positional dictionary (in a scrambled slot order, with an
// extra unused observable) or by name reach byte-identical stats, latency
// histograms and failure logs on every backend.
TEST(IrSlotBinding, SlotAndNamePathsAgreeOnEveryBackend) {
  CheckerOptions interp_opts;
  interp_opts.compiled = false;
  CheckerOptions scalar_opts;
  scalar_opts.vectorized = false;
  const CheckerOptions vector_opts;
  const CheckerOptions backends[] = {interp_opts, scalar_opts, vector_opts};
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
    for (const CheckerOptions& opts : backends) {
      PropertyChecker by_name("p", formula, guard, opts);
      PropertyChecker by_slot("p", formula, guard, opts);
      TlmCheckerWrapper w_name({"q", formula, {guard}}, 10, opts);
      TlmCheckerWrapper w_slot({"q", formula, {guard}}, 10, opts);
      for (size_t k = 0; k < trace.size(); ++k) {
        const abv::ObservablesContext ctx(snaps[k]);
        by_name.on_event(trace[k].time, trace[k].values);
        by_slot.on_event(trace[k].time, ctx);
        w_name.on_transaction(trace[k].time, trace[k].values);
        w_slot.on_transaction(trace[k].time, ctx);
      }
      by_name.finish();
      by_slot.finish();
      w_name.finish();
      w_slot.finish();
      EXPECT_TRUE(by_slot.binding_error().empty()) << by_slot.binding_error();
      expect_same_stats(by_name.stats(), by_slot.stats(), what);
      expect_same_stats(w_name.stats(), w_slot.stats(), what);
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
  }
}

TEST(IrSlotBinding, RebindsWhenTheDictionaryChanges) {
  // a == b with a signal on both sides, then the same values under a
  // permuted dictionary: the second event must rebind, not reuse slots.
  psl::Atom eq;
  eq.lhs = "a";
  eq.op = psl::CmpOp::kEq;
  eq.rhs_is_signal = true;
  eq.rhs_signal = "b";
  const auto program = Program::compile(psl::atom(eq));
  AtomSlots slots;
  slots.reset("p", program.get());
  BoolCode code = slots.compile(psl::not_(psl::sig("c")));

  auto first = std::make_shared<const tlm::Snapshot::Keys>(
      tlm::Snapshot::Keys{"a", "b", "c"});
  tlm::Snapshot s1(first);
  s1.set("a", 4);
  s1.set("b", 4);
  s1.set("c", 0);
  const uint8_t* bits = slots.load(abv::ObservablesContext(s1));
  ASSERT_NE(bits, nullptr);
  EXPECT_EQ(bits[0], 1);  // a == b
  EXPECT_EQ(bits[1], 0);  // c
  EXPECT_TRUE(code.eval(bits));  // !c

  auto second = std::make_shared<const tlm::Snapshot::Keys>(
      tlm::Snapshot::Keys{"c", "b", "a"});
  tlm::Snapshot s2(second);
  s2.set("a", 4);
  s2.set("b", 5);
  s2.set("c", 1);
  bits = slots.load(abv::ObservablesContext(s2));
  ASSERT_NE(bits, nullptr);
  EXPECT_EQ(bits[0], 0);
  EXPECT_EQ(bits[1], 1);
  EXPECT_FALSE(code.eval(bits));
  EXPECT_FALSE(slots.failed());

  // A context without a positional view keeps the name path.
  MapContext by_name({{"a", 1}, {"b", 1}, {"c", 1}});
  EXPECT_EQ(slots.load(by_name), nullptr);
  EXPECT_FALSE(slots.failed());
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

// ---- Backend-equivalence golden runs --------------------------------------------

// Runs the whole TLM-AT flow with the compiled and interpreter backends and
// requires bit-identical verification results: an empty Report::diff and a
// byte-identical JSON report (timing excluded). Covers both designs at
// jobs=1 and jobs=4.
void expect_backends_equivalent(models::Design design, size_t workload,
                                size_t jobs) {
  models::RunConfig config;
  config.design = design;
  config.level = models::Level::kTlmAt;
  config.workload = workload;
  config.checkers = 99;  // whole suite (clamped)
  config.engine.jobs = jobs;

  config.compiled_checkers = true;
  const models::RunResult compiled = models::run_simulation(config);
  EXPECT_TRUE(compiled.functional_ok);
  EXPECT_TRUE(compiled.properties_ok);

  config.compiled_checkers = false;
  const models::RunResult interp = models::run_simulation(config);
  EXPECT_TRUE(interp.functional_ok);

  EXPECT_TRUE(compiled.report.diff(interp.report).empty());
  std::ostringstream a;
  std::ostringstream b;
  compiled.report.write_json(a, nullptr);
  interp.report.write_json(b, nullptr);
  EXPECT_EQ(a.str(), b.str());
}

TEST(IrBackendEquivalence, Des56TlmAtSerial) {
  expect_backends_equivalent(models::Design::kDes56, 60, 1);
}

TEST(IrBackendEquivalence, Des56TlmAtSharded) {
  expect_backends_equivalent(models::Design::kDes56, 60, 4);
}

TEST(IrBackendEquivalence, ColorConvTlmAtSerial) {
  expect_backends_equivalent(models::Design::kColorConv, 600, 1);
}

TEST(IrBackendEquivalence, ColorConvTlmAtSharded) {
  expect_backends_equivalent(models::Design::kColorConv, 600, 4);
}

}  // namespace
}  // namespace repro::checker
