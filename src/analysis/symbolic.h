// Symbolic bounded trajectory evaluation of compiled checker programs.
//
// SymbolicEval executes a checker::Program node table over BDD-valued atoms
// for a bounded horizon, transcribing reference_eval's three-valued
// finite-trace semantics (the ground truth the scalar engines are proven
// against) into verdict *sets*: each program node at each step gets a pair
// of BDDs (t, f) describing exactly which atom trajectories make it true or
// false there; pending is the complement. Atoms are independent
// propositional variables per (atom, step) — the same soundness contract as
// bool_logic.h: every UNSAT claim (never fails, antecedent unsatisfiable,
// node never influences the verdict) holds for all atom valuations and
// hence for the real signal semantics; SAT claims are "not ruled out" and
// are only reported as facts once a concrete witness trace replays through
// the real interpreter to the predicted verdict.
//
// Two trajectory encodings, selected by the program's operator mix:
//
//   event-stepped    no next_e: steps are consecutive evaluation events
//                    (RTL clock edges). Fixpoint operators unroll to the
//                    horizon; complete traces of every length L <= K are
//                    evaluated exactly (truncated-trace boundary semantics).
//   time-scheduled   next_e + boolean operators only: instants are the
//                    distinct cumulative next_e offsets. Per instant, free
//                    variables encode "an event exists exactly there" and
//                    "an event exists strictly inside the following gap",
//                    which models met / missed / truncated deadlines over
//                    ALL event streams (arbitrary timing) exactly.
//
// Programs mixing both currencies, or containing abort (whose semantics
// depend on resolution times), are declined with an explicit skip reason —
// mirroring the SEM005 atom-cap contract. The horizon K comes from the
// wrapper lifetime (checker::compute_lifetime) and is capped by a
// configurable step budget.
//
// exhaustive() is the load-bearing bit: when the horizon covers every
// trajectory (all longer traces are prefix-determined), bounded queries are
// exact over all traces and never_fails() is elide-grade evidence (SYM001) —
// strictly stronger than the prune planner's tautology-only StaticProver.
// The analysis is lint-only: nothing it proves reaches a run or a prune
// plan. See DESIGN.md §15.
#ifndef REPRO_ANALYSIS_SYMBOLIC_H_
#define REPRO_ANALYSIS_SYMBOLIC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/bool_logic.h"
#include "analysis/diagnostic.h"
#include "checker/program.h"
#include "checker/trace.h"
#include "psl/ast.h"

namespace repro::analysis {

class SymbolicEval {
 public:
  struct Options {
    // Event period of the target stream; scales next_e offsets.
    psl::TimeNs clock_period_ns = 10;
    // Horizon cap: unbounded (fixpoint) programs unroll to at most this
    // many steps; bounded programs use their exact lifetime when it fits.
    // Also caps the time-scheduled instant count.
    size_t step_budget = 16;
    // Distinct-atom cap, same contract as BoolAnalyzer.
    size_t atom_cap = 20;
    // BDD growth guard: evaluation aborts to kOverBudget past this many
    // live BDD nodes.
    size_t bdd_node_cap = 1u << 20;
  };

  enum class Status { kOk, kUnsupported, kOverBudget };

  // `formula` is the property formula as the runtime sees it; the leading
  // always-chain (the activation stream) is stripped, matching the wrapper:
  // the analysis covers one instance anchored at an arbitrary event, which
  // quantifies over every activation of the repeating property.
  SymbolicEval(const psl::ExprPtr& formula, Options options);

  Status status() const { return status_; }
  // Human-readable reason when status() != kOk.
  const std::string& skip_reason() const { return skip_reason_; }
  // Steps (event-stepped) or instants (time-scheduled) actually evaluated.
  size_t horizon() const { return horizon_; }
  bool time_scheduled() const { return scheduled_; }
  // True when the horizon covers every trajectory: verdicts of longer
  // traces are prefix-determined, so the bounded queries are exact.
  bool exhaustive();

  // No complete trace within the horizon fails. Elide-grade evidence iff
  // exhaustive() also holds.
  bool never_fails();

  // Minimal-length failing trace, concretized to integer signal values and
  // replay-verified against the concrete interpreter. nullopt when no
  // failure is reachable within the horizon or no witness is realizable.
  struct FailWitness {
    WitnessTrace trace;
    size_t length = 0;  // events
  };
  std::optional<FailWitness> fail_witness();

  // Program node indices whose value never influences the root verdict
  // profile within the horizon (forcing the node to either constant leaves
  // every verdict set unchanged).
  std::vector<uint32_t> dead_nodes();

  // The derived antecedent (checker::derive_antecedent) is unsatisfiable
  // under the activation guard on every reachable trajectory: every pass
  // would be vacuous. `guard` may be nullptr (no activation guard).
  bool antecedent_unsat(const psl::ExprPtr& guard);

  // The compiled program under analysis (post always-strip); nullptr only
  // when compilation was skipped (kUnsupported before compile).
  const std::shared_ptr<const checker::Program>& program() const {
    return program_;
  }
  const psl::ExprPtr& body() const { return body_; }

 private:
  struct SymVerdict {
    Bdd::Ref t = Bdd::kFalse;
    Bdd::Ref f = Bdd::kFalse;

    bool operator==(const SymVerdict&) const = default;
  };
  // Root verdicts over every query point: event-stepped programs list
  // (L, complete) pairs for L = 1..K; time-scheduled programs the single
  // complete-trace verdict.
  using Profile = std::vector<SymVerdict>;

  void classify(const psl::ExprPtr& body);
  void build_schedule();
  // Starts an evaluation of the analyzed program with optional forced node
  // constants (dead-node probing).
  void begin_eval(const std::vector<uint8_t>* force);
  Bdd::Ref atom_ref(uint32_t atom, size_t step);
  SymVerdict eval_event(uint32_t node, size_t step, size_t len, bool complete);
  SymVerdict eval_scheduled(uint32_t node);
  SymVerdict boundary(bool complete, bool weak);
  Profile profile(const std::vector<uint8_t>* force);
  std::optional<Bdd::Ref> build_boolean(const psl::ExprPtr& e);
  std::optional<WitnessTrace> concretize_event(const Bdd::Assignment& a,
                                               size_t len);
  std::optional<WitnessTrace> concretize_scheduled(const Bdd::Assignment& a);
  bool solve_step(
      const std::vector<std::optional<bool>>& required,
      std::vector<std::pair<std::string, uint64_t>>& values) const;

  Options options_;
  Status status_ = Status::kOk;
  std::string skip_reason_;
  psl::ExprPtr body_;
  std::shared_ptr<const checker::Program> program_;
  bool scheduled_ = false;
  bool bounded_ = true;  // no fixpoint operators
  size_t horizon_ = 0;
  std::optional<bool> exhaustive_cache_;

  Bdd bdd_;
  // Variable ids are assigned step-major (all variables of step/instant s
  // before those of s+1) so witness extraction reads front-to-back.
  // var_of_atom_[step * atom_count + atom] is the BDD variable of that
  // (atom, step); scheduled programs add per-instant event/gap variables.
  std::vector<uint32_t> var_of_atom_;
  // Time-scheduled only: sorted distinct cumulative next_e offsets
  // (offsets_[0] = 0 = the anchor), the instant each program node is
  // anchored at, per-instant "an event exists exactly here" variables and
  // "an event exists strictly inside the following gap" refs (kFalse when
  // the integer-time gap is empty), plus the suffix-or "some event past
  // this instant" refs.
  std::vector<psl::TimeNs> offsets_;
  std::vector<uint32_t> node_instant_;
  std::vector<uint32_t> event_var_;  // [1..], instant 0 unused
  std::vector<uint32_t> gap_var_;    // [1..], ~0u when gap empty
  std::vector<Bdd::Ref> past_;       // [1..]

  // Forced node constants of the current evaluation (0 free / 1 true /
  // 2 false; see begin_eval).
  const std::vector<uint8_t>* cur_force_ = nullptr;
  std::unordered_map<uint64_t, SymVerdict> memo_;
  // Atoms referenced by guard/antecedent queries but absent from the
  // program; each gets one stable fresh variable past the trajectory range.
  std::vector<psl::Atom> extra_atoms_;
};

// Replays a witness trace through the concrete compiled interpreter
// (Program::compile + ProgramState) and returns the final verdict (finish()
// resolves a still-pending obligation with complete-trace semantics, like
// end of simulation). The leading always-chain of `formula` is stripped:
// the trace anchors one instance at its first event.
checker::Verdict replay_witness(const psl::ExprPtr& formula,
                                const WitnessTrace& witness);

}  // namespace repro::analysis

#endif  // REPRO_ANALYSIS_SYMBOLIC_H_
