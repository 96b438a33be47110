// The static-analysis passes run by analysis::Driver over one property.
//
// Each check is its own pass over the interned IR (psl::ExprTable ids from
// the shared rewrite::PassManager) and appends Diagnostics to the property's
// record:
//
//   check_simple_subset   PSL001..PSL005  simple-subset conformance
//   check_bool_semantics  SEM001..SEM005  tautology / contradiction /
//                                         static vacuity (BDD, atom-capped)
//   check_consequence     AUD001..AUD004  the Thm. III.2 consequence audit:
//                                         is the abstracted formula really a
//                                         logical consequence of the
//                                         original? Cross-validates the
//                                         syntactic AbstractionClass.
//   check_env_binding     ENV001..ENV002  every atom (and context guard)
//                                         resolved against the target
//                                         environment's observable set
//   check_sizing          SIZ001..SIZ003  next_e window set, predicted
//                                         wrapper lifetime / pool capacity
//   check_symbolic        SYM001..SYM005  symbolic bounded trajectory
//                                         evaluation (symbolic.h): never
//                                         fails / dead program nodes /
//                                         temporal static vacuity /
//                                         reachable failure with witness /
//                                         analysis skipped. Opt-in via
//                                         AnalysisOptions::symbolic_budget.
#ifndef REPRO_ANALYSIS_CHECKS_H_
#define REPRO_ANALYSIS_CHECKS_H_

#include <string>
#include <vector>

#include "analysis/bool_logic.h"
#include "analysis/diagnostic.h"
#include "checker/checker.h"
#include "rewrite/methodology.h"
#include "rewrite/pass_manager.h"

namespace repro::analysis {

struct AnalysisOptions {
  // Clock period, abstracted signals and push mode of the target flow; the
  // driver runs the Methodology III.1 pipeline with exactly these options.
  rewrite::AbstractionOptions abstraction;
  // Observables exposed by the RTL environment; empty skips RTL binding.
  std::vector<std::string> rtl_observables;
  // Observables exposed by the TLM environment; empty skips TLM binding.
  std::vector<std::string> tlm_observables;
  // Boolean-layer analysis cap: formulas with more distinct atoms get an
  // explicit "analysis skipped" diagnostic instead of a BDD.
  size_t atom_cap = 20;
  // Step/instant budget of the symbolic bounded trajectory evaluation
  // (check_symbolic). 0 disables the pass entirely.
  size_t symbolic_budget = 0;
};

// Outcome of the consequence audit for one property.
enum class AuditStatus {
  kConfirmed,  // audit agrees with the syntactic classification
  kMismatch,   // classified consequence/unchanged, but p |= q not provable
  kSkipped,    // atom cap exceeded; audit explicitly skipped
};
const char* to_string(AuditStatus s);

// Per-property analysis record; filled by Driver::analyze.
struct PropertyAnalysis {
  std::string name;
  std::string rtl;  // printed RTL property
  std::string tlm;  // printed TLM property, "(deleted)" when erased
  rewrite::AbstractionClass classification = rewrite::AbstractionClass::kUnchanged;
  AuditStatus audit = AuditStatus::kConfirmed;
  checker::LifetimeInfo lifetime;
  std::vector<psl::TimeNs> windows_ns;  // distinct next_e windows, sorted
  std::vector<Diagnostic> diagnostics;

  bool ok() const;  // no error-severity diagnostics
};

// Shared state handed to every check of one property.
struct CheckContext {
  const psl::RtlProperty& property;
  const rewrite::AbstractionOutcome& outcome;
  rewrite::PassManager& pm;
  BoolAnalyzer& booleans;
  const AnalysisOptions& options;
  SourceSpan span;
  PropertyAnalysis& record;
};

void check_simple_subset(CheckContext& ctx);
void check_bool_semantics(CheckContext& ctx);
void check_consequence(CheckContext& ctx);
void check_env_binding(CheckContext& ctx);
void check_sizing(CheckContext& ctx);
// Implemented in symbolic.cc; no-op when options.symbolic_budget is 0.
void check_symbolic(CheckContext& ctx);

// Core of the consequence audit, exposed for tests: tries to prove
// table[p] |= table[q] (LTL consequence) by structural monotonicity rules
// with propositional discharge at the boolean layer (sound, incomplete).
enum class Entailment { kProved, kUnknown, kCapped };
Entailment prove_consequence(const psl::ExprTable& table, psl::ExprId p,
                             psl::ExprId q, BoolAnalyzer& booleans);

}  // namespace repro::analysis

#endif  // REPRO_ANALYSIS_CHECKS_H_
