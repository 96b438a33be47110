// RTL dynamic ABV environment.
//
// Binds PropertyCheckers (synthesized from RTL properties) to a clock and a
// set of design signals. At each clock edge selected by a property's clock
// context the environment samples the design — after its delta cycles have
// settled, so registered outputs written at the edge are visible — and
// feeds the evaluation event to the checker.
//
// Sampling follows the same arena discipline as the TLM engine: the signal
// bag is read ONCE per event into a reusable tlm::Snapshot (one getter call
// per signal, not one per signal per checker), and every checker selected
// at that edge evaluates against the same read-only ObservablesContext.
// With a single synchronous consumer the snapshot buffer is recycled in
// place — the degenerate one-reader case of support::BatchArena.
#ifndef REPRO_ABV_RTL_ENV_H_
#define REPRO_ABV_RTL_ENV_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "abv/prune_runtime.h"
#include "abv/report.h"
#include "analysis/prune.h"
#include "checker/checker.h"
#include "psl/ast.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "sim/signal.h"
#include "tlm/transaction.h"

namespace repro::support::tracelog {
class TraceWriter;
}  // namespace repro::support::tracelog

namespace repro::abv {

// Named read accessors into the design under verification. RTL models
// register their observable signals here; the environment samples them into
// per-event snapshots (it remains a ValueContext for direct, unsampled
// evaluation in tests and tools).
class SignalBag : public checker::ValueContext {
 public:
  void add(const std::string& name, std::function<uint64_t()> getter) {
    getters_[name] = std::move(getter);
    keys_cache_.reset();
  }
  void add(const std::string& name, const sim::Signal<uint64_t>& signal) {
    add(name, [&signal] { return signal.read(); });
  }
  void add(const std::string& name, const sim::Signal<bool>& signal) {
    add(name, [&signal] { return signal.read() ? uint64_t{1} : uint64_t{0}; });
  }

  uint64_t value(std::string_view name) const override;
  bool has(std::string_view name) const override;

  // Shared key table over the registered names (map order, so the index
  // layout is deterministic); built lazily, invalidated by add(). Feed it
  // to tlm::Snapshot so all snapshots of this bag share one allocation.
  std::shared_ptr<const tlm::Snapshot::Keys> keys() const;

  // Reads every getter once into `snapshot`, which must have been built
  // over this bag's keys().
  void sample_into(tlm::Snapshot& snapshot) const;

 private:
  std::map<std::string, std::function<uint64_t()>, std::less<>> getters_;
  mutable std::shared_ptr<const tlm::Snapshot::Keys> keys_cache_;
};

class RtlAbvEnv {
 public:
  RtlAbvEnv(sim::Kernel& kernel, SignalBag& signals)
      : kernel_(kernel), signals_(signals) {}

  // Checker backend and failure-log cap applied to properties registered
  // *after* this call; call before add_property.
  void set_checker_options(checker::CheckerOptions options) {
    checker_options_ = options;
  }
  const checker::CheckerOptions& checker_options() const {
    return checker_options_;
  }

  // Applies a prune plan to properties registered *after* this call; same
  // contract as TlmAbvEnv::set_prune_plan (elided/subsumed properties never
  // spawn checkers, live ones may compile a specialized formula, cross_check
  // audits derived verdicts via prune_cross_check()).
  void set_prune_plan(const analysis::PrunePlan* plan,
                      bool cross_check = false) {
    prune_plan_ = plan;
    prune_audit_ = cross_check;
  }

  // PRN003 error diagnostics for derived verdicts the audit run contradicts;
  // call after finish().
  std::vector<analysis::Diagnostic> prune_cross_check() const;

  // Synthesizes a checker for `property` and registers it. Properties with
  // kClkPos (or the basic) context are evaluated at rising edges, kClkNeg at
  // falling edges, kClk at both.
  void add_property(const psl::RtlProperty& property);

  // Attaches the environment to the DUV clock. Must be called after all
  // add_property calls and before the simulation runs.
  void attach(sim::Clock& clock);

  // One settled clock-edge evaluation point: dispatches `values` to every
  // checker selected at that edge kind. attach()'s sampling callbacks land
  // here; offline replay (support::tracelog) calls it directly with recorded
  // snapshots, no clock or live design needed.
  void on_sample(psl::TimeNs now, bool rising, const tlm::Snapshot& values);

  // Trace-log writer serializing the sampled edge stream (--record-out) as
  // one record per evaluation point: start = end = edge time, address 0 for
  // rising / 1 for falling, observables = the settled snapshot. Must outlive
  // the environment; nullptr disables.
  void set_record_writer(support::tracelog::TraceWriter* writer) {
    record_writer_ = writer;
  }

  // End of simulation: resolve outstanding obligations.
  void finish();

  Report report() const;
  bool all_ok() const;
  // First slot-binding error in registration order (the sampled dictionary
  // lacked a property's observable), or empty. Call after finish().
  std::string binding_error() const;
  const std::vector<std::unique_ptr<checker::PropertyChecker>>& checkers() const {
    return checkers_;
  }

 private:
  void sample(bool rising);
  bool live_ok(const std::string& name, bool& found) const;

  sim::Kernel& kernel_;
  SignalBag& signals_;
  support::tracelog::TraceWriter* record_writer_ = nullptr;
  checker::CheckerOptions checker_options_;
  const analysis::PrunePlan* prune_plan_ = nullptr;
  bool prune_audit_ = false;
  std::vector<analysis::PruneDecision> pruned_;   // never spawned
  std::vector<analysis::PruneDecision> audited_;  // spawned for cross-check
  std::vector<std::unique_ptr<checker::PropertyChecker>> checkers_;
  std::vector<psl::ClockContext::Kind> kinds_;
  // Reusable per-event snapshot buffer, built over signals_.keys() at
  // attach(); refilled (recycled) at every sampled edge.
  tlm::Snapshot sample_buffer_;
  bool any_pos_ = false;
  bool any_neg_ = false;
};

}  // namespace repro::abv

#endif  // REPRO_ABV_RTL_ENV_H_
