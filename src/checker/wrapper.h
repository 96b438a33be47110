// The Sec. IV wrapper: executes checker instances of an abstracted (TLM)
// property at the correct simulation instants.
//
// The wrapper implements the four behaviours of Sec. IV:
//   1. allocation of checker instances — a pool sized by the property
//      lifetime (the maximum number of instants where transactions can
//      occur between firing and completion);
//   2. evaluation of active instances — an evaluation table maps the next
//      required evaluation time of each scheduled instance to the instance;
//      on a transaction at time t, instances due at t are evaluated and
//      instances whose deadline passed (t' < t) resolve per next_e
//      semantics (a missed evaluation point is a failure unless the formula
//      absorbs it);
//   3. reset and reuse of instances that reached their completion time;
//   4. activation of a new instance at each transaction matching the
//      transaction context, skipping registration when the instance is
//      trivially resolved at its firing point.
//
// Properties whose pending obligations are not purely time-scheduled
// (until/release/eventually) are kept on a dense list and see every
// transaction; this is the graceful degradation for until-based TLM
// properties like q2 of Fig. 3.
#ifndef REPRO_CHECKER_WRAPPER_H_
#define REPRO_CHECKER_WRAPPER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checker/batch.h"
#include "checker/checker.h"
#include "checker/instance.h"
#include "checker/record_pass.h"
#include "psl/ast.h"
#include "support/coverage.h"
#include "support/metrics.h"
#include "support/trace_sink.h"

namespace repro::checker {

// Static sizing of a wrapper's checker-instance pool (Sec. IV point 1),
// shared with the pre-simulation checker-sizing analysis pass. `bounded` is
// false when the formula (below its top-level always chain) contains a
// fixpoint operator (until/release/always/eventually/abort), in which case
// the pool has no static bound and grows on demand. For bounded formulas
// `instants` is the instance lifetime in transaction instants: with timing
// equivalence those instants are multiples of the RTL clock period, so
// lifetime = ceil(max next_e window / clock period) — the ceiling matters
// when a window is not a multiple of the period, where truncation would
// undersize the pool and the deadline horizon.
struct LifetimeInfo {
  bool bounded = true;
  size_t instants = 0;       // 0 when unbounded or purely boolean
  psl::TimeNs max_eps = 0;   // largest next_e window below the always chain
};

LifetimeInfo compute_lifetime(const psl::ExprPtr& formula,
                              psl::TimeNs clock_period_ns);

struct WrapperStats {
  uint64_t transactions = 0;   // transaction-end events observed
  uint64_t activations = 0;    // verification sessions started
  uint64_t failures = 0;
  uint64_t holds = 0;
  uint64_t trivial = 0;  // sessions resolved at their firing transaction
  uint64_t uncompleted = 0;
  uint64_t reuses = 0;         // sessions served by a recycled instance
  uint64_t steps = 0;          // instance step() calls
  // Vacuity split of `holds` (holds == real_passes + vacuous_passes); see
  // CheckerStats and DESIGN.md §13.
  uint64_t real_passes = 0;
  uint64_t vacuous_passes = 0;
  // Evaluation-table entries popped strictly past their deadline (the
  // out-of-order/missed evaluation points of Sec. IV point 2); the next_e
  // semantics decide whether the miss is absorbed or fails the instance.
  uint64_t missed_deadlines = 0;
  // steps x formula node count (deterministic cost proxy; see CheckerStats).
  uint64_t node_visits = 0;
  size_t pool_capacity = 0;    // live instances (in use + pooled)
  size_t pool_dropped = 0;     // instances freed by the free-pool cap
  size_t table_peak = 0;       // peak size of the evaluation table
  // Lockstep accounting (vectorized backend only; absent from reports, so
  // the JSON stays byte-identical with vectorization on or off).
  uint64_t vector_batches = 0;       // multi-lane prime() calls
  uint64_t vector_lanes_filled = 0;  // lanes advanced by those calls
};

class TlmCheckerWrapper {
 public:
  // `clock_period_ns` is the reference RTL clock period; together with the
  // formula's maximum next_e window it determines the instance-pool size
  // preallocated up front (Sec. IV point 1). A property with unbounded
  // lifetime (until-based) starts with an empty pool that grows on demand.
  // `options` selects the instance backend and the failure-log cap.
  TlmCheckerWrapper(const psl::TlmProperty& property, psl::TimeNs clock_period_ns,
                    CheckerOptions options = {});

  // End of one transaction at time `time`, with the DUV observables: runs
  // this wrapper's own record pass (created at the first call), then
  // evaluate(). For a wrapper used on its own; a wrapper attached to its
  // environment's pass is driven through evaluate().
  void on_transaction(psl::TimeNs time, const ValueContext& values);

  // Registers this wrapper with `pass`, the record pass of its environment
  // or engine shard: from then on the owner runs the pass once per
  // transaction and calls evaluate(). Raises the pass's witness ring to
  // this wrapper's depth. Call once, before the first transaction; `pass`
  // must outlive the wrapper.
  void attach(RecordPass& pass);

  // End of one transaction the attached pass has just run over `values`.
  void evaluate(psl::TimeNs time, const ValueContext& values);

  // End of simulation.
  void finish();

  const std::string& name() const { return name_; }
  const WrapperStats& stats() const { return stats_; }
  const std::vector<Failure>& failures() const { return failure_log_; }
  bool ok() const { return stats_.failures == 0; }

  // Lifetime in instants, as computed per Sec. IV (0 if unbounded).
  size_t lifetime() const { return lifetime_; }

  const CheckerOptions& options() const { return options_; }
  // Compiled program shared by this wrapper's instances; nullptr on the
  // interpreter backend.
  const std::shared_ptr<const Program>& program() const { return program_; }

  // Replaces the compiled program with one built from `formula` (e.g. the
  // parity-gated dead-node fold of an analysis PruneDecision). The original
  // formula keeps driving everything observable — lifetime, pool sizing and
  // the node_visits cost proxy — so reports stay byte-identical; only the
  // executed node table shrinks. Must be called before attach() and the
  // first transaction; no-op on nullptr or the interpreter backend.
  void set_program_formula(const psl::ExprPtr& formula);

  // --- Observability -------------------------------------------------------

  // Number of recent transactions dumped alongside each failure verdict
  // (read from the record pass's witness ring). 0 disables witnesses. Call
  // before the first transaction; resizing discards buffered entries.
  void set_witness_depth(size_t depth);
  size_t witness_depth() const { return witness_depth_; }

  // Emits an instant trace event on lane `tid` for every failure verdict.
  // The sink must outlive the wrapper; nullptr disables emission.
  void set_trace(support::TraceSink* sink, uint32_t tid) {
    trace_ = sink;
    trace_tid_ = tid;
  }

  // Activation-to-verdict latency in simulation nanoseconds, one sample per
  // retired session. Deterministic for a given transaction stream. Sessions
  // resolved at their firing transaction are folded in by publish(), so the
  // histogram is complete after publish() and finish().
  const support::Histogram& latency_histogram() const { return latency_ns_; }

  // The derived antecedent/guard (derive_antecedent on the stripped body);
  // nullptr when the body has no guard shape (every pass is then real).
  const psl::ExprPtr& antecedent() const { return antecedent_; }

  // Attaches the live coverage row this wrapper mirrors its stats into at
  // each publish() (relaxed stores; see support/coverage.h). nullptr
  // detaches. The row must outlive the wrapper.
  void set_coverage(support::CoverageTable::Row* row);

  // Publishes the bookkeeping the per-transaction path defers: folds the
  // anchor-resolved 0-ns latency samples into latency_histogram() and
  // mirrors the stats into the coverage row, if any. Owners call it at sync
  // points (before a mid-run metrics line, at the end of a shard batch);
  // set_coverage() and finish() call it too.
  void publish();

  // Non-empty once a transaction's observable dictionary lacked one of this
  // property's observables (see slot_binding.h); the wrapper ignores every
  // transaction from then on.
  const std::string& binding_error() const { return activation_.error(); }

 private:
  void count_verdict(Verdict v, bool exercised, psl::TimeNs time);
  // The failure log entry (with its witnesses) and trace instant of a
  // kFalse verdict.
  void log_failure(psl::TimeNs time);
  void retire(std::unique_ptr<Instance> instance, Verdict v, psl::TimeNs time);
  // Returns a fresh (reset) instance to the free pool, or drops it when the
  // pool of an unbounded property is at its cap.
  void release(std::unique_ptr<Instance> instance);
  void place(std::unique_ptr<Instance> instance);
  std::unique_ptr<Instance> acquire();
  std::unique_ptr<Instance> make_instance();
  void prime_cohorts(psl::TimeNs time, const Event& ev);

  std::string name_;
  psl::ExprPtr formula_;   // keeps the AST alive
  psl::ExprPtr body_;      // formula with top-level always stripped
  psl::ExprPtr guard_;     // transaction-context guard, may be nullptr
  CheckerOptions options_;
  std::shared_ptr<const Program> program_;  // compiled backend only
  // Vectorized backend: the shared lockstep layout and the lane blocks the
  // instances live in (one block per 64 concurrent instances). Empty when
  // the program is unsupported or vectorization is off.
  std::shared_ptr<const ProgramBatch> batch_layout_;
  std::vector<std::shared_ptr<BatchState>> blocks_;
  // Reused per-transaction scratch of the prime pre-pass (block -> lanes).
  std::vector<std::pair<BatchState*, uint64_t>> prime_masks_;
  bool repeating_ = false;
  bool started_ = false;
  size_t lifetime_ = 0;
  // Last transaction-end time observed; end-of-sim retirements are reported
  // at this instant (never later than the end of the trace).
  psl::TimeNs last_time_ = 0;
  // High-water mark of instances in use at once: scheduled + dense + the
  // one held at a firing. Caps the free pool of unbounded (until-based)
  // properties.
  size_t peak_in_use_ = 0;

  // Evaluation table: scheduled instances in deadline order, ties in
  // insertion order (a flat multimap). The due loop of on_transaction
  // consumes entries from `table_head_`; the spent prefix is compacted in
  // one erase when the loop ends, so table_head_ is 0 everywhere else.
  struct Scheduled {
    psl::TimeNs deadline = 0;
    std::unique_ptr<Instance> instance;
  };
  std::vector<Scheduled> table_;
  size_t table_head_ = 0;
  size_t table_live() const { return table_.size() - table_head_; }
  // Instances that must observe every transaction.
  std::vector<std::unique_ptr<Instance>> dense_;
  // Reset instances ready for reuse.
  std::vector<std::unique_ptr<Instance>> free_pool_;
  // Reused Instance::next_deadline collection space.
  std::vector<psl::TimeNs> deadline_scratch_;

  WrapperStats stats_;
  std::vector<Failure> failure_log_;

  // The record pass this wrapper reads: its environment's, or its own
  // (`own_pass_`) when on_transaction() drives it. Failure witnesses are
  // the last `witness_depth_` records of the pass's ring: every wrapper of
  // a pass sees every record while it is bound, and a wrapper whose binding
  // failed logs no further failures.
  std::unique_ptr<RecordPass> own_pass_;
  RecordPass* pass_ = nullptr;
  size_t witness_depth_ = 8;

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

#endif  // REPRO_CHECKER_WRAPPER_H_
