// The part of an ABV environment that does not depend on the level.
//
// RtlAbvEnv (clock-edge sampling) and TlmAbvEnv (transaction stream through
// the evaluation engine) derive from AbvEnv. The base owns what both
// produce one verification result from: the checker options, the prune
// plan and its decisions, the checkers, and the coverage table. It
// implements property admission under the prune plan, the
// report, the run verdict, binding errors and the PRN003 audit once, for
// both levels.
#ifndef REPRO_ABV_ENV_H_
#define REPRO_ABV_ENV_H_

#include <memory>
#include <string>
#include <vector>

#include "abv/report.h"
#include "analysis/diagnostic.h"
#include "analysis/prune.h"
#include "checker/checker.h"
#include "psl/ast.h"
#include "support/coverage.h"
#include "support/metrics.h"
#include "tlm/transaction.h"

namespace repro::support::tracelog {
class TraceWriter;
}  // namespace repro::support::tracelog

namespace repro::abv {

class AbvEnv {
 public:
  virtual ~AbvEnv() = default;

  // Checker backend and failure-log cap applied to checkers registered
  // *after* this call; call before registering properties.
  void set_checker_options(checker::CheckerOptions options) {
    checker_options_ = options;
  }
  const checker::CheckerOptions& checker_options() const {
    return checker_options_;
  }

  // Applies a prune plan to properties registered *after* this call: elided
  // and subsumed properties do not spawn checkers — their report
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

  // Trace-log writer serializing the checked stream (--record-out); must
  // outlive the environment. nullptr (default) disables.
  void set_record_writer(support::tracelog::TraceWriter* writer) {
    record_writer_ = writer;
  }

  // Bulk ingest of a pulled record span: a recorded or live transaction
  // stream at TLM, replayed clock-edge samples at RTL.
  virtual void on_records(const tlm::TransactionRecord* begin,
                          const tlm::TransactionRecord* end) = 0;

  // End of the run: resolve outstanding obligations.
  virtual void finish();

  // Live rows in registration order, then the derived rows of pruned
  // properties.
  Report report() const;
  bool all_ok() const;
  // First slot-binding error in registration order (a sampled or recorded
  // dictionary lacked a property's observable; see checker/slot_binding.h),
  // or empty. Call after finish().
  std::string binding_error() const;

  // Every live checker, in registration order.
  const std::vector<std::unique_ptr<checker::PropertyChecker>>& checkers() const {
    return checkers_;
  }
  // The name abvbench/abv_e2e.cc reads the TLM-AT checkers through.
  const auto& wrappers() const { return checkers(); }

  // Deterministic merged view of the engine's metrics registry; empty when
  // no engine was built (always at RTL).
  support::MetricsSnapshot metrics_snapshot() const;

 protected:
  AbvEnv() = default;

  // Admits `name` under the prune plan: false when the property is pruned
  // (it never spawns; report() derives its row). Otherwise `formula` becomes
  // the plan's specialized formula, if any.
  bool admit(const std::string& name, psl::ExprPtr& formula);

  // Admits and registers an unabstracted RTL property (its clock context
  // guard carries over); nullptr when pruned.
  checker::PropertyChecker* add_checker(const psl::RtlProperty& property);
  // Admits and registers an abstracted TLM property, its instance pool
  // sized by `clock_period_ns`; nullptr when pruned.
  checker::PropertyChecker* add_checker(const psl::TlmProperty& property,
                                        psl::TimeNs clock_period_ns);

  support::tracelog::TraceWriter* record_writer_ = nullptr;
  // Per-property coverage: pruned properties are annotated with their prune
  // action; the TLM engine wires a live row into every checker.
  support::CoverageTable coverage_;
  std::vector<std::unique_ptr<checker::PropertyChecker>> checkers_;
  std::unique_ptr<support::MetricsRegistry> metrics_;  // engine-backed only

 private:
  // The live checker named `name`, or nullptr (derived rows are not
  // consulted).
  const checker::PropertyChecker* live(const std::string& name) const;

  checker::CheckerOptions checker_options_;
  const analysis::PrunePlan* prune_plan_ = nullptr;
  bool prune_audit_ = false;
  std::vector<analysis::PruneDecision> pruned_;   // never spawned
  std::vector<analysis::PruneDecision> audited_;  // spawned for cross-check
};

}  // namespace repro::abv

#endif  // REPRO_ABV_ENV_H_
