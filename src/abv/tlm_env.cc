#include "abv/tlm_env.h"

namespace repro::abv {

void TlmAbvEnv::add_property(const psl::TlmProperty& property) {
  psl::TlmProperty effective = property;
  psl::ExprPtr fold;
  if (!admit(property.name, effective.formula, fold)) return;
  wrappers_.push_back(std::make_unique<checker::TlmCheckerWrapper>(
      effective, clock_period_ns_, checker_options()));
  // Symbolic dead-node fold: swap in the slimmer program while the original
  // formula keeps driving cost accounting (verdict-stream parity-gated).
  if (fold != nullptr) wrappers_.back()->set_program_formula(fold);
}

void TlmAbvEnv::bind() {
  EvalEngine::Options options;
  options.config = EvalEngine::clamped(engine_config_);
  // Lane 0 is the producer/dispatch thread; lanes 1..jobs back the shard
  // workers, which now run concurrently with the producer.
  metrics_ =
      std::make_unique<support::MetricsRegistry>(options.config.jobs + 1);
  options.metrics = metrics_.get();
  options.trace = trace_;
  options.metrics_out = metrics_out_;
  options.metrics_interval = metrics_interval_;
  options.coverage = &coverage_;
  options.record_writer = record_writer_;
  engine_ = std::make_unique<EvalEngine>(options);
  for (auto& wrapper : wrappers_) {
    wrapper->set_witness_depth(witness_depth_);
    wrapper->set_coverage(&coverage_.row(wrapper->name()));
    engine_->add(wrapper.get());
  }
  for (auto& checker : checkers_) {
    checker->set_coverage(&coverage_.row(checker->name()));
    engine_->add(checker.get());
  }
}

void TlmAbvEnv::attach(tlm::TransactionRecorder& recorder) {
  bind();
  recorder.subscribe(
      [this](const tlm::TransactionRecord& record) { engine_->on_record(record); });
}

void TlmAbvEnv::on_records(const tlm::TransactionRecord* begin,
                           const tlm::TransactionRecord* end) {
  engine_->on_records(begin, end);
}

void TlmAbvEnv::finish() {
  if (engine_ != nullptr) {
    engine_->finish();
    return;
  }
  // Never attached: retire directly (nothing was ever dispatched).
  AbvEnv::finish();
}

}  // namespace repro::abv
