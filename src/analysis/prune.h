// Analysis-guided runtime pruning: fold static verdicts into the live
// checker set before the simulation spawns it.
//
// The planner classifies each property of a suite against the others:
//
//   kElide     the verdict is statically known — the formula can never
//              produce a failure (safe and aggressive modes), or it fails at
//              every activation (aggressive mode only). No checker is
//              spawned; the report row carries the derived verdict.
//   kSubsumed  another *live* property of the same evaluation context
//              entails it (prove_consequence on the formulas, BDD guard
//              containment on the activation guards). The checker is not
//              spawned either; the verdict is derived from the subsuming
//              property's instance at report time.
//   kLive      everything else, including every property whose analysis hit
//              the BDD atom cap — an inconclusive analysis never prunes.
//
// Soundness contract (see DESIGN.md §14): pruning preserves *verdicts*
// (per-property ok() and the overall run verdict), not activity counters.
// An elided-true property reports zero failures, which matches any run of a
// never-failing checker. A subsumed property inherits "ok" from its
// subsumer: guard containment makes every evaluation point of the subsumed
// property an evaluation point of the subsumer, where the subsumer's
// formula entails it pointwise; contrapositively a subsumed failure implies
// a subsumer failure, so the overall run verdict is identical. When the
// subsumer fails, the subsumed row is reported as derived-inconclusive
// (never as a pass masking a failure). Aggressive mode additionally elides
// statically-false formulas with a derived *fail* — exact whenever the
// property would have been activated at least once, which is why it is not
// the safe default.
//
// With analysis=error the runtime keeps spawning pruned checkers and
// cross-checks every derived verdict against the real one (PRN003).
#ifndef REPRO_ANALYSIS_PRUNE_H_
#define REPRO_ANALYSIS_PRUNE_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/bool_logic.h"
#include "analysis/diagnostic.h"
#include "psl/ast.h"
#include "rewrite/pass_manager.h"

namespace repro::analysis {

enum class PruneMode { kOff, kSafe, kAggressive };
enum class PruneAction { kLive, kElide, kSubsumed };

const char* to_string(PruneMode m);
const char* to_string(PruneAction a);
// Parses "off" / "safe" / "aggressive"; false on anything else.
bool parse_prune_mode(std::string_view text, PruneMode& out);

// One property handed to the planner: the formula the runtime will actually
// check at this abstraction level, plus its activation guard. Properties
// are only comparable for subsumption when their context keys match (clock
// edge kind at RTL, the basic transaction context at TLM).
struct PruneInput {
  std::string name;
  psl::ExprPtr formula;
  psl::ExprPtr guard;       // nullptr = every event is an evaluation point
  std::string context_key;  // e.g. "posedge", "negedge", "edge", "tb"
};

PruneInput make_prune_input(const psl::RtlProperty& p);
PruneInput make_prune_input(const psl::TlmProperty& p);

struct PruneDecision {
  std::string name;
  PruneAction action = PruneAction::kLive;
  // kElide: the statically derived verdict (true = can never fail; false =
  // fails at every activation, aggressive mode only).
  bool static_verdict = true;
  // kSubsumed: the live property whose instance derives this verdict.
  std::string subsumed_by;
  // The analysis hit the BDD atom cap somewhere while looking at this
  // property; it stays kLive and the skip is reported (PRN004).
  bool capped = false;
  std::string reason;  // human-readable justification
  // kLive only: the formula with guard-implied atoms constant-folded at the
  // instance anchor (the rewrite-layer specialization stage); nullptr when
  // no fold applied — check the original formula unchanged.
  psl::ExprPtr specialized;
};

struct PrunePlan {
  PruneMode mode = PruneMode::kOff;
  std::vector<PruneDecision> decisions;  // input order

  const PruneDecision* find(std::string_view name) const;
  size_t live() const;
  size_t elided() const;
  size_t subsumed() const;

  // PRN001 (elided) / PRN002 (subsumed) / PRN004 (capped, kept live) notes,
  // one per non-trivial decision.
  std::vector<Diagnostic> diagnostics() const;

  // Machine-readable plan (stable schema, schema_version 1).
  void write_json(std::ostream& os) const;
};

// Builds the plan over `pm`'s table: formulas and guards are interned
// there, specialization runs through pm.specialize, and entailment queries
// go through `booleans`, which must have been built over the same table.
PrunePlan build_prune_plan(rewrite::PassManager& pm, BoolAnalyzer& booleans,
                           const std::vector<PruneInput>& inputs,
                           PruneMode mode);

// Convenience: same, through a throwaway PassManager/BoolAnalyzer.
PrunePlan build_prune_plan(const std::vector<PruneInput>& inputs,
                           PruneMode mode, size_t atom_cap = 20);

}  // namespace repro::analysis

#endif  // REPRO_ANALYSIS_PRUNE_H_
