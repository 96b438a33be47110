#include "abv/tlm_env.h"

namespace repro::abv {

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
  for (auto& checker : checkers_) {
    // Unabstracted properties log their failures without witnesses.
    if (checker->abstracted()) checker->set_witness_depth(witness_depth_);
    checker->set_coverage(&coverage_.row(checker->name()));
    engine_->add(checker.get());
  }
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
  // Never bound: retire directly (nothing was ever dispatched).
  AbvEnv::finish();
}

}  // namespace repro::abv
