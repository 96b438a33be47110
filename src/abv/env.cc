#include "abv/env.h"

namespace repro::abv {
namespace {

// Runtime side of the prune plan (analysis/prune.h). The verdict contract
// the two helpers implement (DESIGN.md §14):
//   - an elided-true property reports zero failures (it can never fail);
//   - an elided-false property (aggressive mode) reports one derived
//     failure — it fails at every activation;
//   - a subsumed property inherits "ok" from its subsumer; when the
//     subsumer failed the row is reported as derived-inconclusive
//     (uncompleted = 1), never as a pass masking a failure — the overall
//     run verdict is already false through the subsumer.

// The derived report row of a pruned (never spawned) property.
// `subsumer_found` / `subsumer_ok` describe the subsuming property's live
// verdict; both are ignored for elided rows.
PropertyReport derived_report_row(const analysis::PruneDecision& decision,
                                  bool subsumer_found, bool subsumer_ok) {
  PropertyReport row;
  row.name = decision.name;
  if (decision.action == analysis::PruneAction::kElide) {
    row.prune = "elide";
    row.derived_from = "static";
    // Elided-true: zero failures matches any run of a never-failing
    // checker. Elided-false: one derived failure stands for "fails at
    // every activation" (aggressive mode assumes at least one activation).
    if (!decision.static_verdict) row.failures = 1;
  } else {
    row.prune = "subsumed";
    row.derived_from = decision.subsumed_by;
    // Contrapositive of the subsumption proof: a subsumed failure implies a
    // subsumer failure. Subsumer ok => subsumed ok; subsumer failed => this
    // row is inconclusive (the run verdict is already false through the
    // subsumer, so no failure is ever masked).
    if (!subsumer_found || !subsumer_ok) row.uncompleted = 1;
  }
  return row;
}

// Compares one derived verdict against the checker that actually ran
// (cross-check mode) and appends a PRN003 error per mismatch.
void cross_check_decision(const analysis::PruneDecision& decision,
                          uint64_t activations, uint64_t failures,
                          bool subsumer_ok,
                          std::vector<analysis::Diagnostic>& out) {
  auto mismatch = [&](const std::string& message) {
    analysis::Diagnostic d;
    d.code = "PRN003";
    d.severity = analysis::Severity::kError;
    d.property = decision.name;
    d.check = "prune";
    d.message = message;
    out.push_back(std::move(d));
  };
  switch (decision.action) {
    case analysis::PruneAction::kElide:
      if (decision.static_verdict && failures > 0) {
        mismatch("derived verdict 'holds' contradicted by " +
                 std::to_string(failures) + " audit-run failure(s)");
      }
      if (!decision.static_verdict && activations > 0 && failures == 0) {
        mismatch("derived verdict 'fails' contradicted by an audit run with " +
                 std::to_string(activations) + " activation(s) and no failure");
      }
      break;
    case analysis::PruneAction::kSubsumed:
      if (failures > 0 && subsumer_ok) {
        mismatch("subsumed property failed in the audit run while subsumer '" +
                 decision.subsumed_by + "' held");
      }
      break;
    case analysis::PruneAction::kLive:
      break;
  }
}

}  // namespace

bool AbvEnv::admit(const std::string& name, psl::ExprPtr& formula) {
  if (prune_plan_ == nullptr) return true;
  const analysis::PruneDecision* d = prune_plan_->find(name);
  if (d == nullptr) return true;
  if (d->action != analysis::PruneAction::kLive) {
    if (!prune_audit_) {
      coverage_.annotate(name, analysis::to_string(d->action));
      pruned_.push_back(*d);
      return false;
    }
    audited_.push_back(*d);
    return true;
  }
  if (d->specialized != nullptr) formula = d->specialized;
  return true;
}

checker::PropertyChecker* AbvEnv::add_checker(const psl::RtlProperty& property) {
  psl::ExprPtr formula = property.formula;
  if (!admit(property.name, formula)) return nullptr;
  return checkers_
      .emplace_back(std::make_unique<checker::PropertyChecker>(
          property.name, formula, property.context.guard, checker_options_))
      .get();
}

checker::PropertyChecker* AbvEnv::add_checker(const psl::TlmProperty& property,
                                              psl::TimeNs clock_period_ns) {
  psl::TlmProperty effective = property;
  if (!admit(property.name, effective.formula)) return nullptr;
  return checkers_
      .emplace_back(std::make_unique<checker::PropertyChecker>(
          effective, clock_period_ns, checker_options_))
      .get();
}

void AbvEnv::finish() {
  for (auto& checker : checkers_) checker->finish();
}

support::MetricsSnapshot AbvEnv::metrics_snapshot() const {
  return metrics_ != nullptr ? metrics_->snapshot() : support::MetricsSnapshot{};
}

const checker::PropertyChecker* AbvEnv::live(const std::string& name) const {
  for (const auto& checker : checkers_) {
    if (checker->name() == name) return checker.get();
  }
  return nullptr;
}

Report AbvEnv::report() const {
  Report report;
  for (const auto& checker : checkers_) report.add(*checker);
  for (const auto& d : pruned_) {
    const checker::PropertyChecker* subsumer =
        d.action == analysis::PruneAction::kSubsumed ? live(d.subsumed_by)
                                                     : nullptr;
    report.add_derived(derived_report_row(d, subsumer != nullptr,
                                          subsumer == nullptr || subsumer->ok()));
  }
  return report;
}

std::vector<analysis::Diagnostic> AbvEnv::prune_cross_check() const {
  std::vector<analysis::Diagnostic> out;
  for (const auto& d : audited_) {
    const checker::PropertyChecker* audited = live(d.name);
    if (audited == nullptr) continue;
    const checker::PropertyChecker* subsumer =
        d.action == analysis::PruneAction::kSubsumed ? live(d.subsumed_by)
                                                     : nullptr;
    cross_check_decision(d, audited->stats().activations,
                         audited->stats().failures,
                         subsumer == nullptr || subsumer->ok(), out);
  }
  return out;
}

std::string AbvEnv::binding_error() const {
  for (const auto& checker : checkers_) {
    if (!checker->binding_error().empty()) return checker->binding_error();
  }
  return {};
}

bool AbvEnv::all_ok() const {
  for (const auto& checker : checkers_) {
    if (!checker->ok()) return false;
  }
  // Derived verdicts: an elided-false property fails by construction; a
  // subsumed property follows its subsumer, which the loop above covered.
  for (const auto& d : pruned_) {
    if (d.action == analysis::PruneAction::kElide && !d.static_verdict) {
      return false;
    }
  }
  return true;
}

}  // namespace repro::abv
