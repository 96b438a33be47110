// TLM dynamic ABV environment.
//
// Subscribes to a TransactionRecorder and drives, at the end of each
// transaction (the basic transaction context Tb):
//   - TlmCheckerWrappers for properties abstracted with Methodology III.1
//     (the intended use, Sec. IV), and
//   - plain PropertyCheckers for unabstracted RTL properties replayed at
//     TLM-CA (the paper's TLM-CA rows of Table I), where every per-cycle
//     transaction stands for a clock edge.
#ifndef REPRO_ABV_TLM_ENV_H_
#define REPRO_ABV_TLM_ENV_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "abv/engine_config.h"
#include "abv/eval_engine.h"
#include "abv/prune_runtime.h"
#include "abv/report.h"
#include "abv/snapshot_context.h"
#include "analysis/prune.h"
#include "checker/checker.h"
#include "checker/wrapper.h"
#include "psl/ast.h"
#include "support/coverage.h"
#include "support/metrics.h"
#include "support/trace_sink.h"
#include "tlm/recorder.h"

namespace repro::abv {

class TlmAbvEnv {
 public:
  // `clock_period_ns` is the reference RTL clock period, used to size the
  // wrapper instance pools (Sec. IV point 1). `jobs` selects the evaluation
  // engine: 1 (default) is the exact serial walk; N > 1 shards the
  // registered properties across N concurrent workers with identical
  // per-property results (see EvalEngine).
  explicit TlmAbvEnv(psl::TimeNs clock_period_ns = 10, size_t jobs = 1)
      : clock_period_ns_(clock_period_ns) {
    engine_config_.jobs = jobs == 0 ? 1 : jobs;
  }

  // Replaces the full engine knob group (jobs, batch size, in-flight
  // bound); must be called before attach(). The struct is handed to the
  // EvalEngine verbatim.
  void set_engine_config(const EngineConfig& config) {
    engine_config_ = config;
    if (engine_config_.jobs == 0) engine_config_.jobs = 1;
    if (engine_config_.batch_size == 0) engine_config_.batch_size = 1;
    if (engine_config_.max_inflight_batches == 0) {
      engine_config_.max_inflight_batches = 1;
    }
  }
  const EngineConfig& engine_config() const { return engine_config_; }

  // Field-wise conveniences over set_engine_config.
  void set_jobs(size_t jobs) { engine_config_.jobs = jobs == 0 ? 1 : jobs; }
  size_t jobs() const { return engine_config_.jobs; }
  void set_batch_size(size_t batch_size) {
    engine_config_.batch_size = batch_size == 0 ? 1 : batch_size;
  }
  size_t batch_size() const { return engine_config_.batch_size; }

  // Failure-witness ring depth applied to every wrapper at attach() (0
  // disables witness capture).
  void set_witness_depth(size_t depth) { witness_depth_ = depth; }
  size_t witness_depth() const { return witness_depth_; }

  // Checker backend and failure-log cap applied to wrappers and checkers
  // registered *after* this call; call before add_property.
  void set_checker_options(checker::CheckerOptions options) {
    checker_options_ = options;
  }
  const checker::CheckerOptions& checker_options() const {
    return checker_options_;
  }

  // Chrome-trace sink for engine spans and failure instants; must outlive
  // the environment. nullptr (default) disables tracing.
  void set_trace_sink(support::TraceSink* sink) { trace_ = sink; }

  // JSONL metrics/coverage snapshot stream (--metrics-out): one compact line
  // every `interval_records` records plus an exact final line at finish().
  // Must outlive the environment; nullptr (default) disables streaming.
  // Call before attach().
  void set_metrics_output(std::ostream* os, size_t interval_records) {
    metrics_out_ = os;
    metrics_interval_ = interval_records;
  }

  // Live per-property coverage table: attach() wires one row per registered
  // property into its wrapper/checker, so the table tracks the run as it
  // happens (exact after finish()).
  const support::CoverageTable& coverage() const { return coverage_; }

  // Applies a prune plan to properties registered *after* this call: elided
  // and subsumed properties do not spawn wrappers/checkers — their report
  // rows carry derived verdicts — and live properties with a specialized
  // formula compile the slimmed formula instead. With `cross_check` true
  // every property still runs and prune_cross_check() audits the derived
  // verdicts (PRN003). The plan must outlive the environment.
  void set_prune_plan(const analysis::PrunePlan* plan,
                      bool cross_check = false) {
    prune_plan_ = plan;
    prune_audit_ = cross_check;
  }

  // PRN003 error diagnostics for derived verdicts the audit run contradicts;
  // only ever non-empty when set_prune_plan(..., /*cross_check=*/true) was
  // used. Call after finish().
  std::vector<analysis::Diagnostic> prune_cross_check() const;

  // Registers an abstracted TLM property (checked through the wrapper).
  void add_property(const psl::TlmProperty& property);

  // Registers an unabstracted RTL property evaluated on the transaction
  // stream (per-cycle transactions at TLM-CA); the clock context guard, if
  // any, carries over.
  void add_rtl_property(const psl::RtlProperty& property);

  // Builds the evaluation engine over the registered properties without
  // subscribing to anything; records then arrive through on_records (the
  // pull-based RecordSource drain loop). Call after all add_* and config
  // calls.
  void bind();

  // bind() plus a recorder subscription — the push-based hookup.
  void attach(tlm::TransactionRecorder& recorder);

  // Bulk ingest for pull-based sources; requires bind() or attach() first.
  // Spans feed the engine exactly like subscribed delivery does.
  void on_records(const tlm::TransactionRecord* begin,
                  const tlm::TransactionRecord* end);

  // Trace-log writer serializing the ingested stream (--record-out); must
  // outlive the environment. Call before bind()/attach(). nullptr disables.
  void set_record_writer(support::tracelog::TraceWriter* writer) {
    record_writer_ = writer;
  }

  void finish();

  Report report() const;
  bool all_ok() const;
  // First slot-binding error in registration order (a record dictionary
  // lacked a property's observable; see checker/slot_binding.h), or empty.
  // Call after finish().
  std::string binding_error() const;

  // Metrics registry backing the evaluation engine; created by attach()
  // (nullptr before). Callers may add their own gauges (lane 0) before
  // taking a snapshot.
  support::MetricsRegistry* metrics() { return metrics_.get(); }
  // Deterministic merged view; empty when never attached.
  support::MetricsSnapshot metrics_snapshot() const;

  const std::vector<std::unique_ptr<checker::TlmCheckerWrapper>>& wrappers() const {
    return wrappers_;
  }

 private:
  void on_record(const tlm::TransactionRecord& record);
  // Verdict of the live wrapper/checker named `name`; `found` reports
  // whether one exists (derived rows are not consulted).
  bool live_ok(const std::string& name, bool& found) const;

  psl::TimeNs clock_period_ns_;
  EngineConfig engine_config_;
  size_t witness_depth_ = 8;
  checker::CheckerOptions checker_options_;
  support::TraceSink* trace_ = nullptr;
  support::tracelog::TraceWriter* record_writer_ = nullptr;
  std::ostream* metrics_out_ = nullptr;
  size_t metrics_interval_ = 0;
  support::CoverageTable coverage_;
  const analysis::PrunePlan* prune_plan_ = nullptr;
  bool prune_audit_ = false;
  std::vector<analysis::PruneDecision> pruned_;   // never spawned
  std::vector<analysis::PruneDecision> audited_;  // spawned for cross-check
  std::vector<std::unique_ptr<checker::TlmCheckerWrapper>> wrappers_;
  std::vector<std::unique_ptr<checker::PropertyChecker>> checkers_;
  std::unique_ptr<support::MetricsRegistry> metrics_;  // built by attach()
  std::unique_ptr<EvalEngine> engine_;                 // built by attach()
};

}  // namespace repro::abv

#endif  // REPRO_ABV_TLM_ENV_H_
