// TLM dynamic ABV environment.
//
// Fed the completed transactions through on_records (a RecordSource drain
// loop), it drives, at the end of each transaction (the basic transaction
// context Tb), one PropertyChecker per property:
//   - properties abstracted with Methodology III.1 (the intended use,
//     Sec. IV), and
//   - unabstracted RTL properties replayed at TLM-CA (the paper's TLM-CA
//     rows of Table I), where every per-cycle transaction stands for a
//     clock edge.
#ifndef REPRO_ABV_TLM_ENV_H_
#define REPRO_ABV_TLM_ENV_H_

#include <iosfwd>
#include <memory>

#include "abv/engine_config.h"
#include "abv/env.h"
#include "abv/eval_engine.h"
#include "psl/ast.h"
#include "support/trace_sink.h"

namespace repro::abv {

// Engine construction and ingest over the shared environment core
// (abv/env.h).
class TlmAbvEnv : public AbvEnv {
 public:
  // `clock_period_ns` is the reference RTL clock period, used to size the
  // instance pools of abstracted properties (Sec. IV point 1).
  explicit TlmAbvEnv(psl::TimeNs clock_period_ns = 10)
      : clock_period_ns_(clock_period_ns) {}

  // The evaluation engine's knob group (jobs), handed to the EvalEngine
  // verbatim, which clamps it; call before bind().
  // jobs 1 (default) is the exact serial walk; N > 1 shards the registered
  // properties across N concurrent workers with identical per-property
  // results (see EvalEngine).
  void set_engine_config(const EngineConfig& config) { engine_config_ = config; }

  // Failure-witness ring depth applied to every abstracted property at
  // bind() (0 disables witness capture).
  void set_witness_depth(size_t depth) { witness_depth_ = depth; }

  // Chrome-trace sink for engine spans and failure instants; must outlive
  // the environment. nullptr (default) disables tracing.
  void set_trace_sink(support::TraceSink* sink) { trace_ = sink; }

  // JSONL metrics/coverage snapshot stream (--metrics-out): one compact line
  // every `interval_records` records plus an exact final line at finish().
  // Must outlive the environment; nullptr (default) disables streaming.
  // Call before bind().
  void set_metrics_output(std::ostream* os, size_t interval_records) {
    metrics_out_ = os;
    metrics_interval_ = interval_records;
  }

  // Registers an abstracted TLM property (checked per Sec. IV), subject to
  // the prune plan.
  void add_property(const psl::TlmProperty& property) {
    add_checker(property, clock_period_ns_);
  }

  // Registers an unabstracted RTL property evaluated on the transaction
  // stream (per-cycle transactions at TLM-CA); the clock context guard, if
  // any, carries over.
  void add_rtl_property(const psl::RtlProperty& property) {
    add_checker(property);
  }

  // Builds the evaluation engine over the registered properties and wires
  // one live coverage row into each; records then arrive through on_records
  // (the pull-based RecordSource drain loop). The engine writes the
  // ingested stream to the record writer, if any. Call after all add_* and
  // config calls.
  void bind();

  // Requires bind() first. Feeds the span to the engine in order.
  void on_records(const tlm::TransactionRecord* begin,
                  const tlm::TransactionRecord* end) override;

  // Drains the engine; without one (never bound) retires directly.
  void finish() override;

 private:
  psl::TimeNs clock_period_ns_;
  EngineConfig engine_config_;
  size_t witness_depth_ = 8;
  support::TraceSink* trace_ = nullptr;
  std::ostream* metrics_out_ = nullptr;
  size_t metrics_interval_ = 0;
  std::unique_ptr<EvalEngine> engine_;  // built by bind()
};

}  // namespace repro::abv

#endif  // REPRO_ABV_TLM_ENV_H_
