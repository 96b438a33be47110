#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checker/checker.h"
#include "checker/instance.h"
#include "checker/program.h"
#include "checker/reference_eval.h"
#include "checker/trace.h"
#include "psl/parser.h"
#include "support/rng.h"

namespace repro::checker {
namespace {

using psl::ExprPtr;

ExprPtr parse(const std::string& text) {
  auto result = psl::parse_expr(text);
  EXPECT_TRUE(result.ok()) << text;
  return result.value();
}

// Builds an observation from {name, value} pairs.
Observation obs(psl::TimeNs time,
                std::initializer_list<std::pair<const char*, uint64_t>> values) {
  Observation o;
  o.time = time;
  for (const auto& [name, value] : values) o.values.set(name, value);
  return o;
}

// Steps a fresh instance of the compiled formula through the whole trace and
// finishes it.
Verdict run_instance(const ExprPtr& formula, const Trace& trace) {
  Instance instance(Program::compile(formula));
  for (const auto& o : trace) {
    const Verdict v = instance.step(Event{o.time, &o.values});
    if (v != Verdict::kPending) return v;
  }
  return instance.finish();
}

// ---- Atom evaluation -----------------------------------------------------------

TEST(Atoms, AllComparisonOperators) {
  MapContext ctx;
  ctx.set("x", 5);
  ctx.set("y", 5);
  EXPECT_TRUE(eval_boolean(parse("x"), ctx));
  EXPECT_TRUE(eval_boolean(parse("x == 5"), ctx));
  EXPECT_FALSE(eval_boolean(parse("x != 5"), ctx));
  EXPECT_TRUE(eval_boolean(parse("x <= 5"), ctx));
  EXPECT_FALSE(eval_boolean(parse("x < 5"), ctx));
  EXPECT_TRUE(eval_boolean(parse("x >= 5"), ctx));
  EXPECT_FALSE(eval_boolean(parse("x > 5"), ctx));
  EXPECT_TRUE(eval_boolean(parse("x == y"), ctx));
  EXPECT_TRUE(eval_boolean(parse("!(x > 5) && (x == 5 || x == 0)"), ctx));
  EXPECT_TRUE(eval_boolean(parse("x == 4 -> x == 9"), ctx));
}

// ---- Basic operator semantics -----------------------------------------------------

TEST(Instance, BooleanResolvesAtAnchor) {
  const Trace t{obs(10, {{"a", 1}})};
  EXPECT_EQ(run_instance(parse("a"), t), Verdict::kTrue);
  EXPECT_EQ(run_instance(parse("!a"), t), Verdict::kFalse);
}

TEST(Instance, NextCountsEvents) {
  const Trace t{obs(10, {{"a", 0}}), obs(20, {{"a", 0}}), obs(30, {{"a", 1}})};
  EXPECT_EQ(run_instance(parse("next[2](a)"), t), Verdict::kTrue);
  EXPECT_EQ(run_instance(parse("next(a)"), t), Verdict::kFalse);
}

TEST(Instance, NextBeyondTraceIsWeaklyTrue) {
  const Trace t{obs(10, {{"a", 0}})};
  EXPECT_EQ(run_instance(parse("next[5](a)"), t), Verdict::kTrue);
}

TEST(Instance, NextEpsEvaluatesAtExactInstant) {
  const Trace t{obs(10, {{"a", 0}}), obs(40, {{"a", 1}})};
  EXPECT_EQ(run_instance(parse("next_e[1,30](a)"), t), Verdict::kTrue);
}

TEST(Instance, NextEpsIgnoresEarlierEvents) {
  const Trace t{obs(10, {{"a", 0}}), obs(20, {{"a", 0}}), obs(40, {{"a", 1}})};
  // Events at 20 (early) must not consume the obligation due at 40.
  EXPECT_EQ(run_instance(parse("next_e[1,30](a)"), t), Verdict::kTrue);
}

TEST(Instance, NextEpsFailsWhenInstantIsMissed) {
  // Def. III.3: no event observable at eps -> false (detected at the first
  // later event).
  const Trace t{obs(10, {{"a", 0}}), obs(50, {{"a", 1}})};
  EXPECT_EQ(run_instance(parse("next_e[1,30](a)"), t), Verdict::kFalse);
}

TEST(Instance, NextEpsPendingAtTraceEndIsWeaklyTrue) {
  const Trace t{obs(10, {{"a", 0}}), obs(20, {{"a", 0}})};
  EXPECT_EQ(run_instance(parse("next_e[1,30](a)"), t), Verdict::kTrue);
}

TEST(Instance, NextEpsAnchorsFixpointOperand) {
  // next_e wrapping a boolean-operand until (the opaque-fixpoint form): the
  // until anchors at the deadline event and then runs over later events.
  const Trace t{obs(10, {{"p", 1}, {"q", 0}}), obs(20, {{"p", 1}, {"q", 0}}),
                obs(170, {{"p", 1}, {"q", 0}}), obs(180, {{"p", 0}, {"q", 1}})};
  EXPECT_EQ(run_instance(parse("next_e[1,10](p until q)"), t), Verdict::kTrue);
  EXPECT_EQ(run_instance(parse("next_e[1,10](q until p)"), t), Verdict::kTrue);
}

TEST(Instance, WeakUntilDischargesOnQ) {
  const Trace t{obs(10, {{"p", 1}, {"q", 0}}), obs(20, {{"p", 1}, {"q", 0}}),
                obs(30, {{"p", 0}, {"q", 1}})};
  EXPECT_EQ(run_instance(parse("p until q"), t), Verdict::kTrue);
}

TEST(Instance, UntilFailsWhenPBreaksBeforeQ) {
  const Trace t{obs(10, {{"p", 1}, {"q", 0}}), obs(20, {{"p", 0}, {"q", 0}}),
                obs(30, {{"p", 1}, {"q", 1}})};
  EXPECT_EQ(run_instance(parse("p until q"), t), Verdict::kFalse);
  EXPECT_EQ(run_instance(parse("p until! q"), t), Verdict::kFalse);
}

TEST(Instance, WeakVsStrongUntilAtTraceEnd) {
  const Trace t{obs(10, {{"p", 1}, {"q", 0}}), obs(20, {{"p", 1}, {"q", 0}})};
  EXPECT_EQ(run_instance(parse("p until q"), t), Verdict::kTrue);    // weak
  EXPECT_EQ(run_instance(parse("p until! q"), t), Verdict::kFalse);  // strong
}

TEST(Instance, ReleaseHoldsQThroughRelease) {
  const Trace t{obs(10, {{"p", 0}, {"q", 1}}), obs(20, {{"p", 1}, {"q", 1}}),
                obs(30, {{"p", 0}, {"q", 0}})};
  // Released at t=20 with q still true: q may fall afterwards.
  EXPECT_EQ(run_instance(parse("p release q"), t), Verdict::kTrue);
}

TEST(Instance, ReleaseFailsWhenQFallsEarly) {
  const Trace t{obs(10, {{"p", 0}, {"q", 1}}), obs(20, {{"p", 0}, {"q", 0}})};
  EXPECT_EQ(run_instance(parse("p release q"), t), Verdict::kFalse);
}

TEST(Instance, ReleaseIsWeak) {
  const Trace t{obs(10, {{"p", 0}, {"q", 1}}), obs(20, {{"p", 0}, {"q", 1}})};
  EXPECT_EQ(run_instance(parse("p release q"), t), Verdict::kTrue);
}

TEST(Instance, AlwaysDetectsViolationImmediately) {
  Instance instance(Program::compile(parse("always a")));
  const Observation good = obs(10, {{"a", 1}});
  EXPECT_EQ(instance.step(Event{good.time, &good.values}), Verdict::kPending);
  const Observation bad = obs(20, {{"a", 0}});
  EXPECT_EQ(instance.step(Event{bad.time, &bad.values}), Verdict::kFalse);
}

TEST(Instance, EventuallyStrongFailsAtEnd) {
  const Trace t{obs(10, {{"a", 0}}), obs(20, {{"a", 0}})};
  EXPECT_EQ(run_instance(parse("eventually! a"), t), Verdict::kFalse);
  const Trace t2{obs(10, {{"a", 0}}), obs(20, {{"a", 1}})};
  EXPECT_EQ(run_instance(parse("eventually! a"), t2), Verdict::kTrue);
}

TEST(Instance, AbortDischargesPendingObligation) {
  // next[3](a) would fail, but rst fires first: discharged.
  const Trace t{obs(10, {{"a", 0}, {"rst", 0}}), obs(20, {{"a", 0}, {"rst", 1}}),
                obs(30, {{"a", 0}, {"rst", 0}}), obs(40, {{"a", 0}, {"rst", 0}})};
  EXPECT_EQ(run_instance(parse("next[3](a) abort rst"), t), Verdict::kTrue);
  // Without the reset the obligation fails.
  const Trace t2{obs(10, {{"a", 0}, {"rst", 0}}), obs(20, {{"a", 0}, {"rst", 0}}),
                 obs(30, {{"a", 0}, {"rst", 0}}), obs(40, {{"a", 0}, {"rst", 0}})};
  EXPECT_EQ(run_instance(parse("next[3](a) abort rst"), t2), Verdict::kFalse);
}

TEST(Instance, AbortDoesNotMaskEarlierFailure) {
  // The operand fails strictly before the reset: the failure stands.
  const Trace t{obs(10, {{"a", 0}, {"rst", 0}}), obs(20, {{"a", 0}, {"rst", 0}}),
                obs(30, {{"a", 0}, {"rst", 1}})};
  EXPECT_EQ(run_instance(parse("next(a) abort rst"), t), Verdict::kFalse);
}

TEST(Instance, AbortAtAnchorIsImmediatelyTrue) {
  const Trace t{obs(10, {{"a", 0}, {"rst", 1}})};
  EXPECT_EQ(run_instance(parse("eventually! a abort rst"), t), Verdict::kTrue);
}

TEST(Instance, AbortConditionCheckedBeforeOperand) {
  // At t=30 both the reset and the (failing) deadline coincide: reset wins.
  const Trace t{obs(10, {{"a", 0}, {"rst", 0}}), obs(30, {{"a", 0}, {"rst", 1}})};
  EXPECT_EQ(run_instance(parse("next_e[1,10](a) abort rst"), t), Verdict::kTrue);
}

TEST(Instance, ImplicationShortCircuit) {
  const Trace t{obs(10, {{"a", 0}, {"b", 0}})};
  EXPECT_EQ(run_instance(parse("a -> next[7](b)"), t), Verdict::kTrue);
}

TEST(Instance, ResetRestoresFreshState) {
  const ExprPtr formula = parse("next_e[1,20](a)");
  Instance instance(Program::compile(formula));
  const Observation o1 = obs(10, {{"a", 0}});
  const Observation o2 = obs(30, {{"a", 1}});
  instance.step(Event{o1.time, &o1.values});
  instance.step(Event{o2.time, &o2.values});
  EXPECT_EQ(instance.verdict(), Verdict::kTrue);

  instance.reset();
  EXPECT_EQ(instance.verdict(), Verdict::kPending);
  // Re-anchor at a different time: target must be recomputed.
  const Observation o3 = obs(100, {{"a", 0}});
  const Observation o4 = obs(120, {{"a", 0}});
  instance.step(Event{o3.time, &o3.values});
  EXPECT_EQ(instance.step(Event{o4.time, &o4.values}), Verdict::kFalse);
}

TEST(Instance, NextDeadlineReportsNextEpsTargets) {
  Instance instance(
      Program::compile(parse("next_e[1,30](a) && next_e[2,50](b)")));
  const Observation o = obs(100, {{"a", 0}, {"b", 0}});
  instance.step(Event{o.time, &o.values});
  std::vector<psl::TimeNs> scratch;
  const auto deadline = instance.next_deadline(scratch);
  ASSERT_TRUE(deadline.has_value());
  EXPECT_EQ(*deadline, 130u);
}

TEST(Instance, NextDeadlineAbsentForDenseObligations) {
  Instance instance(Program::compile(parse("p until q")));
  const Observation o = obs(10, {{"p", 1}, {"q", 0}});
  instance.step(Event{o.time, &o.values});
  std::vector<psl::TimeNs> scratch;
  EXPECT_FALSE(instance.next_deadline(scratch).has_value());
}

// ---- PropertyChecker ---------------------------------------------------------------

TEST(PropertyChecker, AlwaysSpawnsPerEventAndCountsFailures) {
  // always(!a || next(b)): fails exactly when a is followed by !b.
  PropertyChecker checker("t", parse("always (!a || next(b))"), nullptr);
  const std::vector<std::pair<uint64_t, uint64_t>> values = {
      {1, 0}, {0, 1}, {1, 0}, {1, 0}, {0, 0}};
  psl::TimeNs time = 10;
  for (const auto& [a, b] : values) {
    MapContext ctx;
    ctx.set("a", a);
    ctx.set("b", b);
    checker.on_event(time, ctx);
    time += 10;
  }
  checker.finish();
  EXPECT_EQ(checker.stats().events, 5u);
  EXPECT_EQ(checker.stats().activations, 5u);
  // Failing anchors: a@30 (b@40 == 0) and a@40 (b@50 == 0).
  EXPECT_EQ(checker.stats().failures, 2u);
  EXPECT_FALSE(checker.ok());
  ASSERT_EQ(checker.failures().size(), 2u);
  EXPECT_EQ(checker.failures()[0].property, "t");
}

TEST(PropertyChecker, TrivialActivationsAreCounted) {
  // !a || next(b): with a low, every session resolves at its anchor.
  PropertyChecker checker("t", parse("always (!a || next(b))"), nullptr);
  for (int i = 0; i < 4; ++i) {
    MapContext ctx;
    ctx.set("a", 0);
    ctx.set("b", 0);
    checker.on_event(10 * (i + 1), ctx);
  }
  checker.finish();
  EXPECT_EQ(checker.stats().trivial, 4u);
  // A real firing is not trivial.
  MapContext ctx;
  ctx.set("a", 1);
  ctx.set("b", 1);
  checker.on_event(100, ctx);
  checker.finish();
  EXPECT_EQ(checker.stats().trivial, 4u);
  EXPECT_EQ(checker.stats().activations, 5u);
}

TEST(PropertyChecker, GuardRestrictsActivation) {
  PropertyChecker checker("t", parse("always a"), parse("en"));
  for (int i = 0; i < 4; ++i) {
    MapContext ctx;
    ctx.set("a", 1);
    ctx.set("en", i % 2);
    checker.on_event(10 * (i + 1), ctx);
  }
  checker.finish();
  EXPECT_EQ(checker.stats().activations, 2u);
}

TEST(PropertyChecker, NonRepeatingPropertyActivatesOnce) {
  PropertyChecker checker("t", parse("eventually! done"), nullptr);
  for (int i = 0; i < 3; ++i) {
    MapContext ctx;
    ctx.set("done", i == 2);
    checker.on_event(10 * (i + 1), ctx);
  }
  checker.finish();
  EXPECT_EQ(checker.stats().activations, 1u);
  EXPECT_EQ(checker.stats().holds, 1u);
}

TEST(PropertyChecker, UncompletedCountsPendingAtFinish) {
  // A never-anchored obligation: no events at all.
  PropertyChecker checker("t", parse("always a"), nullptr);
  checker.finish();
  EXPECT_EQ(checker.stats().uncompleted, 0u);
  EXPECT_TRUE(checker.ok());
}

TEST(PropertyChecker, FinishRetiresPendingSessionsAtTheLastEvent) {
  // a fires at 100 and b never rises: the strong obligation is still
  // pending when the trace ends at 300, so it fails there, 200 ns after
  // its activation.
  PropertyChecker checker("t", parse("always (!a || eventually! b)"), nullptr);
  for (const psl::TimeNs time : {100, 200, 300}) {
    MapContext ctx;
    ctx.set("a", time == 100);
    ctx.set("b", 0);
    checker.on_event(time, ctx);
  }
  checker.finish();
  EXPECT_EQ(checker.stats().failures, 1u);
  ASSERT_EQ(checker.failures().size(), 1u);
  EXPECT_EQ(checker.failures()[0].time, 300u);
  EXPECT_EQ(checker.latency_histogram().max(), 200u);
}

// ---- Randomized equivalence with the reference evaluator -----------------------------

// Random formula over signals {a, b, c} from the operator classes the
// library supports.
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
      return psl::and_(random_formula(rng, depth - 1), random_formula(rng, depth - 1));
    case 1:
      return psl::or_(random_formula(rng, depth - 1), random_formula(rng, depth - 1));
    case 2:
      return psl::implies(random_formula(rng, depth - 1),
                          random_formula(rng, depth - 1));
    case 3:
      return psl::next(static_cast<uint32_t>(rng.range(1, 3)),
                       random_formula(rng, depth - 1));
    case 4:
      return psl::next_eps(1, rng.range(1, 5) * 10, random_formula(rng, depth - 1));
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

// Random trace: mostly on a 10 ns grid with occasional dropped instants, so
// next_e obligations both hit and miss.
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
    time += 10 * rng.range(1, 3);  // skip 0..2 grid instants
  }
  return trace;
}

class RandomizedEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedEquivalence, InstanceMatchesReferenceEvaluator) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  const ExprPtr formula = random_formula(rng, 3);
  const Trace trace = random_trace(rng, 12);

  Instance instance(Program::compile(formula));
  for (size_t k = 0; k < trace.size(); ++k) {
    const Verdict incremental =
        instance.step(Event{trace[k].time, &trace[k].values});
    const Trace prefix(trace.begin(), trace.begin() + k + 1);
    const Verdict reference =
        reference_eval(formula, prefix, 0, /*complete=*/false);
    ASSERT_EQ(incremental, reference)
        << "formula: " << psl::to_string(formula) << "\nprefix length: " << k + 1;
    if (incremental != Verdict::kPending) return;  // resolved: stays resolved
  }
  const Verdict final_incremental = instance.finish();
  const Verdict final_reference =
      reference_eval(formula, trace, 0, /*complete=*/true);
  ASSERT_EQ(final_incremental, final_reference)
      << "formula: " << psl::to_string(formula);
}

TEST_P(RandomizedEquivalence, ResetInstanceBehavesLikeFresh) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 3);
  const ExprPtr formula = random_formula(rng, 3);
  const Trace first = random_trace(rng, 8);
  const Trace second = random_trace(rng, 8);

  Instance reused(Program::compile(formula));
  for (const auto& o : first) {
    if (reused.step(Event{o.time, &o.values}) != Verdict::kPending) break;
  }
  reused.reset();

  Instance fresh(Program::compile(formula));
  for (const auto& o : second) {
    const Verdict a = reused.step(Event{o.time, &o.values});
    const Verdict b = fresh.step(Event{o.time, &o.values});
    ASSERT_EQ(a, b) << psl::to_string(formula);
    if (a != Verdict::kPending) return;
  }
  ASSERT_EQ(reused.finish(), fresh.finish()) << psl::to_string(formula);
}

TEST_P(RandomizedEquivalence, PropertyCheckerMatchesReferenceAlways) {
  // The repeating (always) checker must agree with the reference evaluation
  // of `always body` over the full trace.
  Rng rng(static_cast<uint64_t>(GetParam()) * 1299709 + 31);
  const ExprPtr body = random_formula(rng, 2);
  const Trace trace = random_trace(rng, 10);

  PropertyChecker checker("rand", psl::always(body), nullptr);
  for (const auto& o : trace) checker.on_event(o.time, o.values);
  checker.finish();

  const Verdict reference =
      reference_eval_always(body, trace, /*complete=*/true);
  if (reference == Verdict::kFalse) {
    EXPECT_GT(checker.stats().failures, 0u) << psl::to_string(body);
  } else {
    EXPECT_EQ(checker.stats().failures, 0u) << psl::to_string(body);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomizedEquivalence, ::testing::Range(0, 300));

}  // namespace
}  // namespace repro::checker
