#include "abv/rtl_env.h"

#include <cstdio>
#include <cstdlib>

#include "abv/snapshot_context.h"
#include "support/tracelog.h"

namespace repro::abv {

uint64_t SignalBag::value(std::string_view name) const {
  auto it = getters_.find(name);
  if (it == getters_.end()) {
    // A property referenced a signal the testbench never registered. Under
    // NDEBUG an assert would vanish and the call below would be UB; fail
    // fast with the name instead, as ObservablesContext::value does.
    std::fprintf(stderr, "fatal: signal '%.*s' not registered in SignalBag\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return it->second();
}

bool SignalBag::has(std::string_view name) const {
  return getters_.find(name) != getters_.end();
}

std::shared_ptr<const tlm::Snapshot::Keys> SignalBag::keys() const {
  if (keys_cache_ == nullptr) {
    auto keys = std::make_shared<tlm::Snapshot::Keys>();
    keys->reserve(getters_.size());
    for (const auto& [name, getter] : getters_) keys->push_back(name);
    keys_cache_ = std::move(keys);
  }
  return keys_cache_;
}

void SignalBag::sample_into(tlm::Snapshot& snapshot) const {
  // The snapshot was built over keys() (map order), so index i is the i-th
  // getter: one pass, no name lookups.
  size_t i = 0;
  for (const auto& [name, getter] : getters_) snapshot.set_at(i++, getter());
}

void RtlAbvEnv::add_property(const psl::RtlProperty& property) {
  psl::ExprPtr formula = property.formula;
  psl::ExprPtr fold;
  if (prune_plan_ != nullptr) {
    if (const analysis::PruneDecision* d = prune_plan_->find(property.name)) {
      if (d->action != analysis::PruneAction::kLive) {
        if (!prune_audit_) {
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
  // Symbolic dead-node fold (see tlm_env.cc): program-level swap only.
  if (fold != nullptr) checkers_.back()->set_program_formula(fold);
  kinds_.push_back(property.context.kind);
  switch (property.context.kind) {
    case psl::ClockContext::Kind::kTrue:
    case psl::ClockContext::Kind::kClkPos:
      any_pos_ = true;
      break;
    case psl::ClockContext::Kind::kClkNeg:
      any_neg_ = true;
      break;
    case psl::ClockContext::Kind::kClk:
      any_pos_ = true;
      any_neg_ = true;
      break;
  }
}

void RtlAbvEnv::attach(sim::Clock& clock) {
  // One value vector reused for every sampled edge; the key table is shared
  // with the bag (single allocation for the whole run).
  sample_buffer_ = tlm::Snapshot(signals_.keys());
  // Sample after the design settles: edge callbacks run in the evaluate
  // phase; signal writes commit in the update phase; watcher cascades run in
  // the following deltas. Three nested deltas cover the register-style
  // single-stage processes of the bundled models.
  //
  // A record writer forces both edges: the log then carries the full edge
  // stream whatever the current property mix, and the extra samples are
  // invisible to checkers (on_sample filters by edge kind as always).
  if (any_pos_ || record_writer_ != nullptr) {
    clock.on_posedge([this] {
      kernel_.schedule_delta([this] {
        kernel_.schedule_delta([this] {
          kernel_.schedule_delta([this] { sample(/*rising=*/true); });
        });
      });
    });
  }
  if (any_neg_ || record_writer_ != nullptr) {
    clock.on_negedge([this] {
      kernel_.schedule_delta([this] {
        kernel_.schedule_delta([this] {
          kernel_.schedule_delta([this] { sample(/*rising=*/false); });
        });
      });
    });
  }
}

void RtlAbvEnv::sample(bool rising) {
  const psl::TimeNs now = kernel_.now();
  // Read the design once, share the snapshot with every checker selected at
  // this edge (was: each checker pulled every signal through the bag's
  // getters independently).
  signals_.sample_into(sample_buffer_);
  if (record_writer_ != nullptr) {
    // Each evaluation point becomes one record; replay feeds the same
    // (time, edge, snapshot) triples back through on_sample.
    tlm::TransactionRecord record;
    record.start = now;
    record.end = now;
    record.command = tlm::Command::kRead;
    record.address = rising ? 0 : 1;
    record.observables = sample_buffer_;
    record_writer_->append(record);
  }
  on_sample(now, rising, sample_buffer_);
}

void RtlAbvEnv::on_sample(psl::TimeNs now, bool rising,
                          const tlm::Snapshot& values) {
  const ObservablesContext ctx(values);
  for (size_t i = 0; i < checkers_.size(); ++i) {
    const psl::ClockContext::Kind kind = kinds_[i];
    const bool wants =
        kind == psl::ClockContext::Kind::kClk ||
        (rising && (kind == psl::ClockContext::Kind::kClkPos ||
                    kind == psl::ClockContext::Kind::kTrue)) ||
        (!rising && kind == psl::ClockContext::Kind::kClkNeg);
    if (wants) checkers_[i]->on_event(now, ctx);
  }
}

void RtlAbvEnv::finish() {
  for (auto& checker : checkers_) checker->finish();
}

bool RtlAbvEnv::live_ok(const std::string& name, bool& found) const {
  for (const auto& checker : checkers_) {
    if (checker->name() == name) {
      found = true;
      return checker->ok();
    }
  }
  found = false;
  return true;
}

Report RtlAbvEnv::report() const {
  Report report;
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

std::vector<analysis::Diagnostic> RtlAbvEnv::prune_cross_check() const {
  std::vector<analysis::Diagnostic> out;
  for (const auto& d : audited_) {
    uint64_t activations = 0;
    uint64_t failures = 0;
    bool have = false;
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

std::string RtlAbvEnv::binding_error() const {
  for (const auto& checker : checkers_) {
    if (!checker->binding_error().empty()) return checker->binding_error();
  }
  return {};
}

bool RtlAbvEnv::all_ok() const {
  for (const auto& checker : checkers_) {
    if (!checker->ok()) return false;
  }
  for (const auto& d : pruned_) {
    if (d.action == analysis::PruneAction::kElide && !d.static_verdict) {
      return false;
    }
  }
  return true;
}

}  // namespace repro::abv
