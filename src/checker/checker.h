// PropertyChecker: the synthesized checker for one property, driven by a
// stream of evaluation events.
//
// This is the generic checker used (a) at RTL, where the event stream is
// the clock edges selected by the clock context, and (b) at TLM-CA, where
// unabstracted RTL properties are evaluated at per-cycle transaction
// boundaries (the paper's TLM-CA rows of Table I). The Sec. IV wrapper for
// abstracted (next_e) properties lives in wrapper.h.
//
// A property with a top-level `always` starts a fresh verification session
// (checker instance) at every evaluation event whose context guard holds,
// mirroring the behaviour FoCs-generated checkers have at RTL.
#ifndef REPRO_CHECKER_CHECKER_H_
#define REPRO_CHECKER_CHECKER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checker/batch.h"
#include "checker/instance.h"
#include "checker/program.h"
#include "checker/slot_binding.h"
#include "checker/trace.h"
#include "psl/ast.h"
#include "support/coverage.h"
#include "support/metrics.h"

namespace repro::checker {

// Backend and resource options shared by PropertyChecker and the Sec. IV
// wrapper. The compiled backend evaluates a flat program (program.h) shared
// by every instance of a property; the interpreter backend keeps the
// virtual-dispatch obligation tree of instance.h. Both implement the same
// semantics (cross-validated in the ir test suite).
struct CheckerOptions {
  bool compiled = true;
  // On the compiled backend, evaluate instances of frame-free programs
  // (ProgramBatch::supported) through the 64-wide lockstep kernel (batch.h).
  // Reports are byte-identical either way; only speed differs. Programs with
  // dynamic operators fall back to scalar compiled evaluation per property.
  bool vectorized = true;
  // Maximum number of Failure entries retained for diagnostics; verdicts and
  // stats are unaffected.
  size_t failure_log_cap = 64;
};

// One observed property violation. `time` is the simulation (VCD) timestamp
// the violation was attributed to. `witness` is the wrapper's ring buffer of
// recent transactions at failure time, oldest first; empty for plain
// checkers and for wrappers configured with witness depth 0.
struct Failure {
  psl::TimeNs time = 0;
  std::string property;
  std::vector<WitnessEntry> witness;
};

struct CheckerStats {
  uint64_t events = 0;        // evaluation events observed
  uint64_t activations = 0;   // instances started
  uint64_t failures = 0;      // instances resolved kFalse
  uint64_t holds = 0;         // instances resolved kTrue
  uint64_t trivial = 0;       // activations resolved at their anchor event
                              // (vacuity indicator: typically a false
                              // antecedent, the paper's "trivially true")
  uint64_t uncompleted = 0;   // instances still pending at finish()
  uint64_t steps = 0;         // instance step() calls (work measure)
  // Vacuity split of `holds` (holds == real_passes + vacuous_passes): a
  // pass is real when the property's derived antecedent/guard fired at the
  // instance's anchor event, vacuous otherwise. Properties without a guard
  // shape count every hold as real. See DESIGN.md §13.
  uint64_t real_passes = 0;
  uint64_t vacuous_passes = 0;
  // steps x formula node count: a deterministic evaluation-cost proxy that
  // is identical across the interpreter/compiled/lockstep backends (actual
  // per-backend node visits differ and would break report byte-identity).
  uint64_t node_visits = 0;
  // Lockstep accounting (vectorized backend only; absent from reports, so
  // the JSON stays byte-identical with vectorization on or off).
  uint64_t vector_batches = 0;       // multi-lane prime() calls
  uint64_t vector_lanes_filled = 0;  // lanes advanced by those calls
};

class PropertyChecker {
 public:
  // `formula` is the full property; a leading `always` chain is stripped and
  // turned into per-event instance activation. `guard` is the optional
  // boolean context guard (clock context guard at RTL, Tb guard at TLM);
  // nullptr means every event is an evaluation point.
  PropertyChecker(std::string name, psl::ExprPtr formula, psl::ExprPtr guard,
                  CheckerOptions options = {});

  // Feeds one evaluation event.
  void on_event(psl::TimeNs time, const ValueContext& values);

  // Ends the trace: resolves outstanding instances with truncated semantics.
  void finish();

  const std::string& name() const { return name_; }
  const CheckerStats& stats() const { return stats_; }
  const std::vector<Failure>& failures() const { return failure_log_; }
  bool ok() const { return stats_.failures == 0; }

  const CheckerOptions& options() const { return options_; }
  // Compiled program shared by this checker's instances; nullptr on the
  // interpreter backend.
  const std::shared_ptr<const Program>& program() const { return program_; }

  // Replaces the compiled program with one built from `formula` (e.g. the
  // parity-gated dead-node fold of an analysis PruneDecision). The original
  // formula keeps driving the node_visits cost proxy and the derived
  // antecedent, so reports stay byte-identical; only the executed node
  // table shrinks. Must be called before the first event; no-op on nullptr
  // or the interpreter backend.
  void set_program_formula(const psl::ExprPtr& formula);

  // --- Observability -------------------------------------------------------

  // The derived antecedent/guard (derive_antecedent on the stripped body);
  // nullptr when the body has no guard shape (every pass is then real).
  const psl::ExprPtr& antecedent() const { return antecedent_; }

  // Activation-to-verdict latency in simulation nanoseconds, one sample per
  // retired instance. Deterministic for a given event stream.
  const support::Histogram& latency_histogram() const { return latency_ns_; }

  // Attaches the live coverage row this checker mirrors its stats into at
  // the end of every event (relaxed stores; see support/coverage.h).
  // nullptr detaches. The row must outlive the checker.
  void set_coverage(support::CoverageTable::Row* row);

  // Non-empty once an event's observable dictionary lacked one of this
  // property's observables (see slot_binding.h); the checker ignores every
  // event from then on.
  const std::string& binding_error() const { return activation_.error(); }

 private:
  void sync_coverage();
  void count_verdict(Verdict v, bool exercised, psl::TimeNs activated,
                     psl::TimeNs time);
  void retire(std::unique_ptr<Instance> instance, Verdict v, psl::TimeNs time);
  std::unique_ptr<Instance> make_instance();
  void prime_cohorts(const Event& ev);

  std::string name_;
  psl::ExprPtr formula_;       // keeps the AST alive for node back-references
  psl::ExprPtr body_;          // formula with the top-level always stripped
  psl::ExprPtr guard_;         // may be nullptr
  CheckerOptions options_;
  std::shared_ptr<const Program> program_;  // compiled backend only
  // Vectorized backend: shared lockstep layout and the lane blocks the
  // instances live in (see wrapper.h for the wrapper-side counterpart).
  std::shared_ptr<const ProgramBatch> batch_layout_;
  std::vector<std::shared_ptr<BatchState>> blocks_;
  // Reused per-event scratch of the prime pre-pass (block -> lanes).
  std::vector<std::pair<BatchState*, uint64_t>> prime_masks_;
  bool repeating_ = false;     // had a top-level always
  bool started_ = false;       // non-repeating: first activation done
  std::vector<std::unique_ptr<Instance>> active_;
  std::vector<std::unique_ptr<Instance>> free_pool_;
  CheckerStats stats_;
  std::vector<Failure> failure_log_;  // capped at options_.failure_log_cap

  psl::ExprPtr antecedent_;    // derived guard, may be nullptr
  uint64_t node_cost_ = 0;     // node_count(body_), the node_visits increment
  // Slot-bound guard/antecedent/anchor evaluation over the program's atoms;
  // rebuilt whenever the program changes.
  ActivationLogic activation_;
  support::Histogram latency_ns_;
  support::CoverageTable::Row* coverage_ = nullptr;
};

}  // namespace repro::checker

#endif  // REPRO_CHECKER_CHECKER_H_
