// PropertyChecker: the checker runtime of one property, driven by a stream
// of evaluation events — the clock edges selected by the clock context at
// RTL, the transaction ends at TLM.
//
// It is the Sec. IV wrapper, used for every property:
//   1. allocation of checker instances — a pool sized by the property
//      lifetime (the maximum number of instants where transactions can
//      occur between firing and completion);
//   2. evaluation of active instances — an evaluation table maps the next
//      required evaluation time of each scheduled instance to the instance;
//      on an event at time t, instances due at t are evaluated and
//      instances whose deadline passed (t' < t) resolve per next_e
//      semantics (a missed evaluation point is a failure unless the formula
//      absorbs it);
//   3. reset and reuse of instances that reached their completion time;
//   4. activation of a new instance at each event matching the context,
//      skipping registration when the instance is trivially resolved at
//      its firing point.
//
// Pending obligations that are not purely time-scheduled (next, until,
// release, eventually) are kept on a dense list and see every event; this
// is the graceful degradation for until-based TLM properties like q2 of
// Fig. 3. An unabstracted formula (RTL, and the paper's TLM-CA rows of
// Table I) has no evaluation table: all of its pending instances are dense
// and its pool grows on demand.
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
#include "checker/record_pass.h"
#include "checker/slot_binding.h"
#include "checker/trace.h"
#include "psl/ast.h"
#include "support/coverage.h"
#include "support/metrics.h"
#include "support/trace_sink.h"

namespace repro::checker {

// Resource options of a checker. Every checker evaluates its property's
// compiled program (program.h); the lockstep lanes of batch.h are used
// exactly when ProgramBatch::supported() accepts the program.
struct CheckerOptions {
  // Ignored. Kept only because abvbench/abv_e2e.cc still assigns it; the
  // abvbench insulation PR deletes it (ROADMAP.md).
  bool compiled = true;
  // Ignored, like `compiled`, and deleted by the same PR.
  bool vectorized = true;
  // Maximum number of Failure entries retained for diagnostics; verdicts and
  // stats are unaffected.
  size_t failure_log_cap = 64;
};

// One observed property violation. `time` is the simulation (VCD) timestamp
// the violation was attributed to. `witness` is the record pass's ring of
// recent events at failure time, oldest first; empty for unabstracted
// properties and for witness depth 0.
struct Failure {
  psl::TimeNs time = 0;
  std::string property;
  std::vector<WitnessEntry> witness;
};

// Static sizing of a checker-instance pool (Sec. IV point 1), shared with
// the pre-simulation checker-sizing analysis pass. `bounded` is false when
// the formula (below its top-level always chain) contains a fixpoint
// operator (until/release/always/eventually/abort), in which case the pool
// has no static bound and grows on demand. For bounded formulas `instants`
// is the instance lifetime in transaction instants: with timing equivalence
// those instants are multiples of the RTL clock period, so lifetime =
// ceil(max next_e window / clock period) — the ceiling matters when a
// window is not a multiple of the period, where truncation would undersize
// the pool and the deadline horizon.
struct LifetimeInfo {
  bool bounded = true;
  size_t instants = 0;       // 0 when unbounded or purely boolean
  psl::TimeNs max_eps = 0;   // largest next_e window below the always chain
};

LifetimeInfo compute_lifetime(const psl::ExprPtr& formula,
                              psl::TimeNs clock_period_ns);

struct CheckerStats {
  uint64_t events = 0;        // evaluation events observed
  uint64_t activations = 0;   // verification sessions started
  uint64_t failures = 0;      // sessions resolved kFalse
  uint64_t holds = 0;         // sessions resolved kTrue
  uint64_t trivial = 0;       // sessions resolved at their firing event
                              // (vacuity indicator: typically a false
                              // antecedent, the paper's "trivially true")
  uint64_t uncompleted = 0;   // sessions still pending at finish()
  uint64_t reuses = 0;        // sessions served by a recycled instance
  uint64_t steps = 0;         // instance step() calls (work measure)
  // Vacuity split of `holds` (holds == real_passes + vacuous_passes): a
  // pass is real when the property's derived antecedent/guard fired at the
  // session's firing event, vacuous otherwise. Properties without a guard
  // shape count every hold as real. See DESIGN.md §13.
  uint64_t real_passes = 0;
  uint64_t vacuous_passes = 0;
  // Evaluation-table entries popped strictly past their deadline (the
  // out-of-order/missed evaluation points of Sec. IV point 2); the next_e
  // semantics decide whether the miss is absorbed or fails the instance.
  uint64_t missed_deadlines = 0;
  // steps x formula node count: a deterministic evaluation-cost proxy that
  // is identical for the scalar and lane forms (actual node visits differ
  // between them and would break report byte-identity).
  uint64_t node_visits = 0;
  size_t pool_capacity = 0;   // live instances (in use + pooled)
  size_t table_peak = 0;      // peak size of the evaluation table
  // Lockstep accounting (lane-backed programs only; absent from reports).
  uint64_t vector_batches = 0;       // multi-lane prime() calls
  uint64_t vector_lanes_filled = 0;  // lanes advanced by those calls
  uint64_t lane_blocks = 0;          // 64-lane blocks allocated
};

class PropertyChecker {
 public:
  // An unabstracted property, checked at RTL clock edges or TLM-CA
  // transactions. `formula` is the full property; a leading `always` chain
  // is stripped and turned into per-event instance activation. `guard` is
  // the optional boolean context guard (clock context guard at RTL);
  // nullptr means every event is an evaluation point. Failures carry no
  // witnesses unless set_witness_depth() asks for them.
  PropertyChecker(std::string name, psl::ExprPtr formula, psl::ExprPtr guard,
                  CheckerOptions options = {});

  // An abstracted (TLM) property. `clock_period_ns` is the reference RTL
  // clock period; together with the formula's maximum next_e window it
  // determines the instance-pool size preallocated up front (Sec. IV
  // point 1). A property with unbounded lifetime (until-based) starts with
  // an empty pool that grows on demand. Failures carry the last 8 events
  // unless set_witness_depth() says otherwise.
  PropertyChecker(const psl::TlmProperty& property, psl::TimeNs clock_period_ns,
                  CheckerOptions options = {});

  // Feeds one evaluation event: runs this checker's own record pass
  // (created at the first call), then evaluate(). For a checker used on its
  // own; a checker attached to its environment's pass is driven through
  // evaluate().
  void on_event(psl::TimeNs time, const ValueContext& values);

  // Registers this checker with `pass`, the record pass of its environment
  // or engine shard: from then on the owner runs the pass once per event
  // and calls evaluate(). Raises the pass's witness ring to this checker's
  // depth. Call once, before the first event; `pass` must outlive the
  // checker.
  void attach(RecordPass& pass);

  // One evaluation event the attached pass has just run over `values`.
  void evaluate(psl::TimeNs time, const ValueContext& values);

  // Ends the trace: resolves outstanding instances with truncated
  // semantics, at the last event time.
  void finish();

  const std::string& name() const { return name_; }
  const CheckerStats& stats() const { return stats_; }
  const std::vector<Failure>& failures() const { return failure_log_; }
  bool ok() const { return stats_.failures == 0; }

  // Built from an abstracted TLM property (the second constructor). Owners
  // scope the Sec. IV wrapper metrics and witness depth by it.
  bool abstracted() const { return abstracted_; }

  // Lifetime in instants, as computed per Sec. IV (0 if unbounded or
  // unabstracted).
  size_t lifetime() const { return lifetime_; }

  const CheckerOptions& options() const { return options_; }
  // Compiled program shared by this checker's instances.
  const std::shared_ptr<const Program>& program() const { return program_; }

  // --- Observability -------------------------------------------------------

  // Number of recent events dumped alongside each failure verdict (read
  // from the record pass's witness ring). 0 disables witnesses. Call
  // before the first event; resizing discards buffered entries.
  void set_witness_depth(size_t depth);
  size_t witness_depth() const { return witness_depth_; }

  // Emits an instant trace event on lane `tid` for every failure verdict.
  // The sink must outlive the checker; nullptr disables emission.
  void set_trace(support::TraceSink* sink, uint32_t tid) {
    trace_ = sink;
    trace_tid_ = tid;
  }

  // Activation-to-verdict latency in simulation nanoseconds, one sample per
  // retired session. Deterministic for a given event stream. Sessions
  // resolved at their firing event are folded in by publish(), so the
  // histogram is complete after publish() and finish().
  const support::Histogram& latency_histogram() const { return latency_ns_; }

  // The derived antecedent/guard (derive_antecedent on the stripped body);
  // nullptr when the body has no guard shape (every pass is then real).
  const psl::ExprPtr& antecedent() const { return antecedent_; }

  // Attaches the live coverage row this checker mirrors its stats into at
  // each publish() (relaxed stores; see support/coverage.h). nullptr
  // detaches. The row must outlive the checker.
  void set_coverage(support::CoverageTable::Row* row);

  // Publishes the bookkeeping the per-event path defers: folds the
  // anchor-resolved 0-ns latency samples into latency_histogram() and
  // mirrors the stats into the coverage row, if any. Owners call it at sync
  // points (before a mid-run metrics line, at the end of a shard batch);
  // set_coverage() and finish() call it too.
  void publish();

  // Non-empty once an event's observable dictionary lacked one of this
  // property's observables (see slot_binding.h); the checker ignores every
  // event from then on.
  const std::string& binding_error() const { return activation_.error(); }

 private:
  // What the two public constructors share, short of the program (see
  // build_program). `latency_bounds` are the latency histogram's bucket
  // bounds.
  PropertyChecker(std::string name, psl::ExprPtr formula, psl::ExprPtr guard,
                  CheckerOptions options, std::vector<uint64_t> latency_bounds,
                  bool abstracted);

  void count_verdict(Verdict v, bool exercised, psl::TimeNs time);
  // The failure log entry (with its witnesses) and trace instant of a
  // kFalse verdict.
  void log_failure(psl::TimeNs time);
  void retire(std::unique_ptr<Instance> instance, Verdict v, psl::TimeNs time);
  // Puts a pending instance on the evaluation table at its next deadline,
  // or on the dense list.
  void place(std::unique_ptr<Instance> instance);
  std::unique_ptr<Instance> acquire();
  std::unique_ptr<Instance> make_instance();
  // Compiles body_ (and its lockstep layout) and fills the pool to the
  // lifetime.
  void build_program();
  void prime_cohorts(const Event& ev);

  std::string name_;
  psl::ExprPtr body_;      // formula with the top-level always stripped
  psl::ExprPtr guard_;     // context guard, may be nullptr
  CheckerOptions options_;
  bool abstracted_ = false;
  std::shared_ptr<const Program> program_;
  // Lane-backed programs: the shared lockstep layout and the lane blocks the
  // instances live in (one block per 64 concurrent instances). Empty when
  // ProgramBatch::supported() rejects the program.
  std::shared_ptr<const ProgramBatch> batch_layout_;
  std::vector<std::shared_ptr<BatchState>> blocks_;
  // Reused per-event scratch of the prime pre-pass (block -> lanes).
  std::vector<std::pair<BatchState*, uint64_t>> prime_masks_;
  bool repeating_ = false;  // had a top-level always
  bool started_ = false;    // non-repeating: first activation done
  // An abstracted body with a next_e: pending instances may have a
  // deadline. Otherwise every pending instance goes straight to the dense
  // list and next_deadline() is never asked.
  bool schedulable_ = false;
  size_t lifetime_ = 0;
  // Last event time observed; end-of-trace retirements are reported at
  // this instant (never later than the end of the trace).
  psl::TimeNs last_time_ = 0;

  // Evaluation table: scheduled instances in deadline order, ties in
  // insertion order (a flat multimap). The due loop of evaluate() consumes
  // entries from `table_head_`; the spent prefix is compacted in one erase
  // when the loop ends, so table_head_ is 0 everywhere else.
  struct Scheduled {
    psl::TimeNs deadline = 0;
    std::unique_ptr<Instance> instance;
  };
  std::vector<Scheduled> table_;
  size_t table_head_ = 0;
  size_t table_live() const { return table_.size() - table_head_; }
  // Instances that must observe every event.
  std::vector<std::unique_ptr<Instance>> dense_;
  // Reset instances ready for reuse.
  std::vector<std::unique_ptr<Instance>> free_pool_;
  // Reused Instance::next_deadline collection space.
  std::vector<psl::TimeNs> deadline_scratch_;

  CheckerStats stats_;
  std::vector<Failure> failure_log_;  // capped at options_.failure_log_cap

  // The record pass this checker reads: its environment's, or its own
  // (`own_pass_`) when on_event() drives it. Failure witnesses are the last
  // `witness_depth_` records of the pass's ring: every checker of a pass
  // sees every record while it is bound, and a checker whose binding
  // failed logs no further failures.
  std::unique_ptr<RecordPass> own_pass_;
  RecordPass* pass_ = nullptr;
  size_t witness_depth_ = 0;

  // Activation-to-verdict latency in simulation ns, plus the 0-ns samples
  // of anchor-resolved sessions not yet folded in (see publish()).
  support::Histogram latency_ns_;
  uint64_t anchor_latencies_ = 0;

  psl::ExprPtr antecedent_;  // derived guard, may be nullptr
  uint64_t node_cost_ = 0;   // node_count(body_), the node_visits increment
  // This property's view of the pass's atom table: guard, antecedent and
  // anchor slots plus the program's atom gather; built by attach().
  ActivationLogic activation_;
  support::CoverageTable::Row* coverage_ = nullptr;

  support::TraceSink* trace_ = nullptr;
  uint32_t trace_tid_ = 0;
};

}  // namespace repro::checker

#endif  // REPRO_CHECKER_CHECKER_H_
