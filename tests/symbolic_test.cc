// Symbolic bounded trajectory evaluation (analysis/symbolic.h): exhaustive
// enumeration cross-checks against the reference evaluator on randomized
// small programs (the symbolic verdict set must equal the enumerated set
// exactly), witness replay through the concrete interpreter, dead-node
// detection, the time-scheduled next_e encoding (met / missed / vacuous
// deadlines), and the SYM diagnostics of the analysis driver.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/driver.h"
#include "analysis/symbolic.h"
#include "checker/program.h"
#include "checker/reference_eval.h"
#include "checker/trace.h"
#include "psl/ast.h"
#include "psl/parser.h"

namespace repro::analysis {
namespace {

using checker::Verdict;

// ---- Helpers --------------------------------------------------------------------

// Deterministic xorshift64* so the sweep is reproducible per seed.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed * 2685821657736338717ULL + 1) {}
  uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 2685821657736338717ULL;
  }
  size_t below(size_t n) { return static_cast<size_t>(next() % n); }
};

// Random event-stepped formula: every operator the symbolic engine supports
// in the event-stepped encoding (no next_e, no abort), over truthy atoms of
// distinct signals so (atom, step) independence matches the BDD model.
psl::ExprPtr random_event_formula(Rng& rng, int depth,
                                  const std::vector<std::string>& sigs) {
  if (depth <= 0 || rng.below(4) == 0) {
    return psl::sig(sigs[rng.below(sigs.size())]);
  }
  switch (rng.below(9)) {
    case 0:
      return psl::not_(random_event_formula(rng, depth - 1, sigs));
    case 1:
      return psl::and_(random_event_formula(rng, depth - 1, sigs),
                       random_event_formula(rng, depth - 1, sigs));
    case 2:
      return psl::or_(random_event_formula(rng, depth - 1, sigs),
                      random_event_formula(rng, depth - 1, sigs));
    case 3:
      return psl::implies(random_event_formula(rng, depth - 1, sigs),
                          random_event_formula(rng, depth - 1, sigs));
    case 4:
      return psl::next(static_cast<uint32_t>(1 + rng.below(2)),
                       random_event_formula(rng, depth - 1, sigs));
    case 5:
      return psl::until(random_event_formula(rng, depth - 1, sigs),
                        random_event_formula(rng, depth - 1, sigs),
                        rng.below(2) == 1);
    case 6:
      return psl::release(random_event_formula(rng, depth - 1, sigs),
                          random_event_formula(rng, depth - 1, sigs));
    case 7:
      return psl::always(random_event_formula(rng, depth - 1, sigs));
    default:
      return psl::eventually(random_event_formula(rng, depth - 1, sigs));
  }
}

// One concrete trace of `len` events on the 10 ns grid; bit (s * n + k) of
// `mask` is the value of signal k at step s.
checker::Trace trace_from_mask(const std::vector<std::string>& sigs,
                               size_t len, uint64_t mask) {
  checker::Trace trace;
  for (size_t s = 0; s < len; ++s) {
    checker::Observation o;
    o.time = static_cast<psl::TimeNs>((s + 1) * 10);
    for (size_t k = 0; k < sigs.size(); ++k) {
      o.values.set(sigs[k], (mask >> (s * sigs.size() + k)) & 1u);
    }
    trace.push_back(std::move(o));
  }
  return trace;
}

// Signal names of a program's atoms (truthy atoms over distinct signals).
std::vector<std::string> atom_signals(const checker::Program& program) {
  std::vector<std::string> sigs;
  sigs.reserve(program.atoms().size());
  for (const auto& a : program.atoms()) sigs.push_back(a.lhs);
  return sigs;
}

SymbolicEval::Options event_options(size_t budget) {
  SymbolicEval::Options opt;
  opt.clock_period_ns = 10;
  opt.step_budget = budget;
  return opt;
}

// Replays the symbolic witness and checks the predicted verdict.
void expect_witness_replays_false(const SymbolicEval::FailWitness& w,
                                  const psl::ExprPtr& body) {
  EXPECT_EQ(w.trace.size(), w.length);
  EXPECT_EQ(replay_witness(body, w.trace), Verdict::kFalse)
      << psl::to_string(body);
}

// ---- Exhaustive enumeration cross-check -----------------------------------------

// For ~250 random seeds: enumerate EVERY concrete trace of every length up
// to the horizon (all 2^(atoms x len) valuations) and require the symbolic
// answers to match the enumerated set exactly:
//   - never_fails()  <=>  no enumerated complete trace evaluates kFalse,
//   - fail_witness() exists iff a failure exists, has the minimal failing
//     length, and replays to kFalse through the concrete interpreter,
//   - exhaustive() implies every horizon-length incomplete prefix is
//     already decided (informative verdicts are extension-invariant).
TEST(SymbolicExhaustive, MatchesEnumerationOnRandomPrograms) {
  const std::vector<std::string> pool = {"a", "b", "c"};
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 250; ++seed) {
    Rng rng(seed * 7919 + 13);
    const size_t nsigs = 2 + rng.below(2);  // 2 or 3 distinct atoms
    const std::vector<std::string> sigs(pool.begin(), pool.begin() + nsigs);
    const psl::ExprPtr formula = random_event_formula(rng, 2, sigs);
    // Keep atoms x horizon <= 12 bits so full enumeration stays cheap.
    const size_t budget = nsigs == 2 ? 5 : 4;
    SymbolicEval sym(formula, event_options(budget));
    ASSERT_EQ(sym.status(), SymbolicEval::Status::kOk)
        << psl::to_string(formula) << ": " << sym.skip_reason();
    ASSERT_FALSE(sym.time_scheduled());
    const psl::ExprPtr body = sym.body();
    const std::vector<std::string> used = atom_signals(*sym.program());
    const size_t horizon = sym.horizon();
    ASSERT_GE(horizon, 1u);
    if (used.empty() || used.size() * horizon > 12) continue;

    bool any_fail = false;
    size_t min_fail_len = 0;
    bool all_decided_at_horizon = true;
    for (size_t len = 1; len <= horizon; ++len) {
      const uint64_t combos = uint64_t{1} << (used.size() * len);
      for (uint64_t mask = 0; mask < combos; ++mask) {
        const checker::Trace trace = trace_from_mask(used, len, mask);
        const Verdict complete =
            checker::reference_eval(body, trace, 0, /*complete=*/true);
        if (complete == Verdict::kFalse && !any_fail) {
          any_fail = true;
          min_fail_len = len;
        }
        if (len == horizon &&
            checker::reference_eval(body, trace, 0, /*complete=*/false) ==
                Verdict::kPending) {
          all_decided_at_horizon = false;
        }
      }
    }

    EXPECT_EQ(sym.never_fails(), !any_fail)
        << "seed " << seed << ": " << psl::to_string(body);
    const std::optional<SymbolicEval::FailWitness> w = sym.fail_witness();
    ASSERT_EQ(w.has_value(), any_fail)
        << "seed " << seed << ": " << psl::to_string(body);
    if (w.has_value()) {
      EXPECT_EQ(w->length, min_fail_len)
          << "seed " << seed << ": " << psl::to_string(body);
      expect_witness_replays_false(*w, body);
    }
    // Soundness direction: an exhaustive claim must mean every trajectory
    // is decided on the horizon prefix. (The converse may fail only when
    // the horizon was clamped, which conservatively reports false.)
    if (sym.exhaustive()) {
      EXPECT_TRUE(all_decided_at_horizon)
          << "seed " << seed << ": " << psl::to_string(body);
    }
    ++checked;
  }
  // The sweep must actually exercise the cross-check, not skip its way out.
  EXPECT_GE(checked, 200u);
}

// ---- Targeted event-stepped cases -----------------------------------------------

TEST(SymbolicEvent, TautologyNeverFailsExhaustively) {
  SymbolicEval sym(psl::or_(psl::sig("a"), psl::not_(psl::sig("a"))),
                   event_options(8));
  ASSERT_EQ(sym.status(), SymbolicEval::Status::kOk);
  EXPECT_FALSE(sym.time_scheduled());
  EXPECT_TRUE(sym.exhaustive());
  EXPECT_TRUE(sym.never_fails());
  EXPECT_FALSE(sym.fail_witness().has_value());
}

TEST(SymbolicEvent, WeakNextWitnessHasMinimalLength) {
  // next[2](a) passes weakly on complete traces shorter than 3 events; the
  // minimal failure is a 3-event trace with a low at the target step.
  const psl::ExprPtr f = psl::next(2, psl::sig("a"));
  SymbolicEval sym(f, event_options(8));
  ASSERT_EQ(sym.status(), SymbolicEval::Status::kOk);
  EXPECT_FALSE(sym.never_fails());
  const auto w = sym.fail_witness();
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->length, 3u);
  ASSERT_EQ(w->trace.size(), 3u);
  EXPECT_EQ(w->trace[0].time, 10u);
  EXPECT_EQ(w->trace[2].time, 30u);
  expect_witness_replays_false(*w, sym.body());
}

TEST(SymbolicEvent, StrongEventualityFailsOnEmptyProgress) {
  // eventually! a fails on any complete trace where a never rises; the
  // minimal witness is a single low event.
  SymbolicEval sym(psl::eventually(psl::sig("a")), event_options(6));
  ASSERT_EQ(sym.status(), SymbolicEval::Status::kOk);
  EXPECT_FALSE(sym.never_fails());
  const auto w = sym.fail_witness();
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->length, 1u);
  expect_witness_replays_false(*w, sym.body());
}

TEST(SymbolicEvent, LeadingAlwaysChainIsStripped) {
  // The wrapper anchors one instance per activation; the analysis covers
  // the stripped body.
  const psl::ExprPtr f = psl::always(psl::next(1, psl::sig("a")));
  SymbolicEval sym(f, event_options(8));
  ASSERT_EQ(sym.status(), SymbolicEval::Status::kOk);
  EXPECT_EQ(psl::to_string(sym.body()),
            psl::to_string(psl::next(1, psl::sig("a"))));
}

TEST(SymbolicEvent, DeadDisjunctIsDetected) {
  // (a || !a) || b: the b leaf can never influence the verdict.
  const psl::ExprPtr f = psl::or_(
      psl::or_(psl::sig("a"), psl::not_(psl::sig("a"))), psl::sig("b"));
  SymbolicEval sym(f, event_options(4));
  ASSERT_EQ(sym.status(), SymbolicEval::Status::kOk);
  ASSERT_TRUE(sym.exhaustive());
  EXPECT_FALSE(sym.dead_nodes().empty());
}

TEST(SymbolicEvent, AntecedentUnsatDetectsContradictoryGuard) {
  const psl::ExprPtr vacuous = psl::implies(
      psl::and_(psl::sig("a"), psl::not_(psl::sig("a"))),
      psl::next(1, psl::sig("b")));
  SymbolicEval sym(vacuous, event_options(8));
  ASSERT_EQ(sym.status(), SymbolicEval::Status::kOk);
  EXPECT_TRUE(sym.antecedent_unsat(nullptr));
  EXPECT_TRUE(sym.never_fails());

  const psl::ExprPtr live =
      psl::implies(psl::sig("a"), psl::next(1, psl::sig("b")));
  SymbolicEval sat(live, event_options(8));
  ASSERT_EQ(sat.status(), SymbolicEval::Status::kOk);
  EXPECT_FALSE(sat.antecedent_unsat(nullptr));
}

TEST(SymbolicEvent, GuardCanMakeSatAntecedentVacuous) {
  // The antecedent a is satisfiable on its own but not under guard !a.
  const psl::ExprPtr f =
      psl::implies(psl::sig("a"), psl::next(1, psl::sig("b")));
  SymbolicEval sym(f, event_options(8));
  ASSERT_EQ(sym.status(), SymbolicEval::Status::kOk);
  EXPECT_FALSE(sym.antecedent_unsat(nullptr));
  EXPECT_TRUE(sym.antecedent_unsat(psl::not_(psl::sig("a"))));
}

// ---- Unsupported shapes decline explicitly --------------------------------------

TEST(SymbolicSkip, AbortIsDeclinedWithReason) {
  SymbolicEval sym(psl::abort_(psl::eventually(psl::sig("a")), psl::sig("b")),
                   event_options(8));
  EXPECT_EQ(sym.status(), SymbolicEval::Status::kUnsupported);
  EXPECT_FALSE(sym.skip_reason().empty());
  EXPECT_FALSE(sym.never_fails());
  EXPECT_FALSE(sym.fail_witness().has_value());
}

TEST(SymbolicSkip, MixedCurrenciesAreDeclined) {
  // next counts events, next_e counts nanoseconds; one trajectory encoding
  // cannot cover both.
  SymbolicEval sym(psl::and_(psl::next(1, psl::sig("a")),
                             psl::next_eps(1, 20, psl::sig("b"))),
                   event_options(8));
  EXPECT_EQ(sym.status(), SymbolicEval::Status::kUnsupported);
  EXPECT_FALSE(sym.skip_reason().empty());
}

// ---- Time-scheduled (next_e) encoding -------------------------------------------

TEST(SymbolicScheduled, DeadlineFormulaFindsMissedDeadlineWitness) {
  // ds -> next_e[30](rdy): fails when ds rises and no event carries rdy at
  // the 30 ns deadline (missed, low, or truncated). The witness must replay
  // to a concrete failure.
  const psl::ExprPtr f =
      psl::implies(psl::sig("ds"), psl::next_eps(1, 30, psl::sig("rdy")));
  SymbolicEval sym(f, event_options(8));
  ASSERT_EQ(sym.status(), SymbolicEval::Status::kOk);
  EXPECT_TRUE(sym.time_scheduled());
  EXPECT_TRUE(sym.exhaustive());  // quantifies over all event streams
  EXPECT_FALSE(sym.never_fails());
  const auto w = sym.fail_witness();
  ASSERT_TRUE(w.has_value());
  ASSERT_FALSE(w->trace.empty());
  EXPECT_EQ(w->trace.front().time, 0u);  // anchored at the activation
  expect_witness_replays_false(*w, sym.body());
}

TEST(SymbolicScheduled, VacuousDeadlineNeverFails) {
  // (a && !a) -> next_e[30](rdy): the activation can never happen, so no
  // event stream fails; scheduled analysis is always exhaustive.
  const psl::ExprPtr f = psl::implies(
      psl::and_(psl::sig("a"), psl::not_(psl::sig("a"))),
      psl::next_eps(1, 30, psl::sig("rdy")));
  SymbolicEval sym(f, event_options(8));
  ASSERT_EQ(sym.status(), SymbolicEval::Status::kOk);
  EXPECT_TRUE(sym.time_scheduled());
  EXPECT_TRUE(sym.exhaustive());
  EXPECT_TRUE(sym.never_fails());
  EXPECT_FALSE(sym.fail_witness().has_value());
  EXPECT_TRUE(sym.antecedent_unsat(nullptr));
}

TEST(SymbolicScheduled, MetDeadlineIsNotAFalsePositive) {
  // next_e of a tautology still fails when the stream skips the deadline
  // instant entirely — Def. III.3's "no event observable" clause. The
  // witness must show an event strictly past the deadline.
  const psl::ExprPtr f =
      psl::next_eps(1, 20, psl::or_(psl::sig("a"), psl::not_(psl::sig("a"))));
  SymbolicEval sym(f, event_options(8));
  ASSERT_EQ(sym.status(), SymbolicEval::Status::kOk);
  ASSERT_TRUE(sym.time_scheduled());
  EXPECT_FALSE(sym.never_fails());
  const auto w = sym.fail_witness();
  ASSERT_TRUE(w.has_value());
  expect_witness_replays_false(*w, sym.body());
  bool past_deadline = false;
  for (const auto& ev : w->trace) past_deadline |= ev.time > 20;
  EXPECT_TRUE(past_deadline);
}

// ---- Witness replay through the concrete interpreter ----------------------------

TEST(ReplayWitness, ReproducesVerdictsOnHandBuiltTraces) {
  const psl::ExprPtr f = psl::next(1, psl::sig("a"));
  WitnessTrace failing;
  failing.push_back({10, {{"a", 1}}});
  failing.push_back({20, {{"a", 0}}});
  EXPECT_EQ(replay_witness(f, failing), Verdict::kFalse);

  WitnessTrace passing;
  passing.push_back({10, {{"a", 0}}});
  passing.push_back({20, {{"a", 1}}});
  EXPECT_EQ(replay_witness(f, passing), Verdict::kTrue);

  // One event leaves the weak next pending; finish() resolves it true.
  WitnessTrace truncated;
  truncated.push_back({10, {{"a", 0}}});
  EXPECT_EQ(replay_witness(f, truncated), Verdict::kTrue);

  EXPECT_EQ(replay_witness(f, WitnessTrace{}), Verdict::kPending);
}

// ---- Driver integration (SYM005 skip accounting) --------------------------------

TEST(SymbolicDriver, MixedCurrencySkipIsCountedAsSkipped) {
  auto parsed = psl::parse_rtl_property(
      "m: always (next(ds) && next_e[1,20](rdy)) @clk_pos");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  AnalysisOptions options;
  options.symbolic_budget = 8;
  Driver driver(options);
  const PropertyAnalysis& record = driver.analyze(std::move(parsed).take());
  bool saw_skip = false;
  for (const Diagnostic& d : record.diagnostics) {
    if (d.code == "SYM005") saw_skip = true;
  }
  EXPECT_TRUE(saw_skip);
  EXPECT_GE(driver.counts().skipped, 1u);
}

TEST(SymbolicDriver, ReachableFailureCarriesReplayableWitness) {
  auto parsed =
      psl::parse_rtl_property("w: always (ds -> next[2](rdy)) @clk_pos");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  AnalysisOptions options;
  options.symbolic_budget = 8;
  Driver driver(options);
  const PropertyAnalysis& record = driver.analyze(std::move(parsed).take());
  const Diagnostic* sym004 = nullptr;
  for (const Diagnostic& d : record.diagnostics) {
    if (d.code == "SYM004") {
      sym004 = &d;
      break;
    }
  }
  ASSERT_NE(sym004, nullptr);
  ASSERT_FALSE(sym004->witness.empty());
  EXPECT_EQ(replay_witness(
                psl::implies(psl::sig("ds"), psl::next(2, psl::sig("rdy"))),
                sym004->witness),
            Verdict::kFalse);
}

}  // namespace
}  // namespace repro::analysis
