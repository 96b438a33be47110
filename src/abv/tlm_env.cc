#include "abv/tlm_env.h"

namespace repro::abv {

void TlmAbvEnv::add_property(const psl::TlmProperty& property) {
  psl::TlmProperty effective = property;
  psl::ExprPtr fold;
  if (prune_plan_ != nullptr) {
    if (const analysis::PruneDecision* d = prune_plan_->find(property.name)) {
      if (d->action != analysis::PruneAction::kLive) {
        if (!prune_audit_) {
          coverage_.annotate(property.name, analysis::to_string(d->action));
          pruned_.push_back(*d);
          return;
        }
        audited_.push_back(*d);
      } else {
        if (d->specialized != nullptr) effective.formula = d->specialized;
        fold = d->program_fold;
      }
    }
  }
  wrappers_.push_back(std::make_unique<checker::TlmCheckerWrapper>(
      effective, clock_period_ns_, checker_options_));
  // Symbolic dead-node fold: swap in the slimmer program while the original
  // formula keeps driving cost accounting (verdict-stream parity-gated).
  if (fold != nullptr) wrappers_.back()->set_program_formula(fold);
}

void TlmAbvEnv::add_rtl_property(const psl::RtlProperty& property) {
  psl::ExprPtr formula = property.formula;
  psl::ExprPtr fold;
  if (prune_plan_ != nullptr) {
    if (const analysis::PruneDecision* d = prune_plan_->find(property.name)) {
      if (d->action != analysis::PruneAction::kLive) {
        if (!prune_audit_) {
          coverage_.annotate(property.name, analysis::to_string(d->action));
          pruned_.push_back(*d);
          return;
        }
        audited_.push_back(*d);
      } else {
        if (d->specialized != nullptr) formula = d->specialized;
        fold = d->program_fold;
      }
    }
  }
  checkers_.push_back(std::make_unique<checker::PropertyChecker>(
      property.name, formula, property.context.guard, checker_options_));
  if (fold != nullptr) checkers_.back()->set_program_formula(fold);
}

void TlmAbvEnv::bind() {
  // Lane 0 is the producer/dispatch thread; lanes 1..jobs back the shard
  // workers, which now run concurrently with the producer.
  metrics_ =
      std::make_unique<support::MetricsRegistry>(engine_config_.jobs + 1);
  EvalEngine::Options options;
  options.config = engine_config_;
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
      [this](const tlm::TransactionRecord& record) { on_record(record); });
}

void TlmAbvEnv::on_record(const tlm::TransactionRecord& record) {
  engine_->on_record(record);
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
  for (auto& wrapper : wrappers_) wrapper->finish();
  for (auto& checker : checkers_) checker->finish();
}

support::MetricsSnapshot TlmAbvEnv::metrics_snapshot() const {
  return metrics_ != nullptr ? metrics_->snapshot() : support::MetricsSnapshot{};
}

bool TlmAbvEnv::live_ok(const std::string& name, bool& found) const {
  for (const auto& wrapper : wrappers_) {
    if (wrapper->name() == name) {
      found = true;
      return wrapper->ok();
    }
  }
  for (const auto& checker : checkers_) {
    if (checker->name() == name) {
      found = true;
      return checker->ok();
    }
  }
  found = false;
  return true;
}

Report TlmAbvEnv::report() const {
  Report report;
  for (const auto& wrapper : wrappers_) report.add(*wrapper);
  for (const auto& checker : checkers_) report.add(*checker);
  for (const auto& d : pruned_) {
    bool found = false;
    bool subsumer_ok = true;
    if (d.action == analysis::PruneAction::kSubsumed) {
      subsumer_ok = live_ok(d.subsumed_by, found);
    }
    report.add_derived(derived_report_row(d, found, subsumer_ok));
  }
  return report;
}

std::vector<analysis::Diagnostic> TlmAbvEnv::prune_cross_check() const {
  std::vector<analysis::Diagnostic> out;
  for (const auto& d : audited_) {
    uint64_t activations = 0;
    uint64_t failures = 0;
    bool have = false;
    for (const auto& wrapper : wrappers_) {
      if (wrapper->name() == d.name) {
        activations = wrapper->stats().activations;
        failures = wrapper->stats().failures;
        have = true;
      }
    }
    for (const auto& checker : checkers_) {
      if (checker->name() == d.name) {
        activations = checker->stats().activations;
        failures = checker->stats().failures;
        have = true;
      }
    }
    if (!have) continue;
    bool found = false;
    const bool subsumer_ok = d.action == analysis::PruneAction::kSubsumed
                                 ? live_ok(d.subsumed_by, found)
                                 : true;
    cross_check_decision(d, activations, failures, subsumer_ok, out);
  }
  return out;
}

std::string TlmAbvEnv::binding_error() const {
  for (const auto& wrapper : wrappers_) {
    if (!wrapper->binding_error().empty()) return wrapper->binding_error();
  }
  for (const auto& checker : checkers_) {
    if (!checker->binding_error().empty()) return checker->binding_error();
  }
  return {};
}

bool TlmAbvEnv::all_ok() const {
  for (const auto& wrapper : wrappers_) {
    if (!wrapper->ok()) return false;
  }
  for (const auto& checker : checkers_) {
    if (!checker->ok()) return false;
  }
  // Derived verdicts: an elided-false property fails by construction; a
  // subsumed property follows its subsumer, which the loops above covered.
  for (const auto& d : pruned_) {
    if (d.action == analysis::PruneAction::kElide && !d.static_verdict) {
      return false;
    }
  }
  return true;
}

}  // namespace repro::abv
