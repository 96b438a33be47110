#include "analysis/prune.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "analysis/checks.h"
#include "support/json.h"

namespace repro::analysis {

const char* to_string(PruneMode m) {
  switch (m) {
    case PruneMode::kOff:
      return "off";
    case PruneMode::kSafe:
      return "safe";
    case PruneMode::kAggressive:
      return "aggressive";
  }
  return "off";
}

const char* to_string(PruneAction a) {
  switch (a) {
    case PruneAction::kLive:
      return "live";
    case PruneAction::kElide:
      return "elide";
    case PruneAction::kSubsumed:
      return "subsumed";
  }
  return "live";
}

bool parse_prune_mode(std::string_view text, PruneMode& out) {
  if (text == "off") {
    out = PruneMode::kOff;
  } else if (text == "safe") {
    out = PruneMode::kSafe;
  } else if (text == "aggressive") {
    out = PruneMode::kAggressive;
  } else {
    return false;
  }
  return true;
}

PruneInput make_prune_input(const psl::RtlProperty& p) {
  PruneInput in;
  in.name = p.name;
  in.formula = p.formula;
  in.guard = p.context.guard;
  switch (p.context.kind) {
    case psl::ClockContext::Kind::kTrue:
      in.context_key = "event";
      break;
    case psl::ClockContext::Kind::kClk:
      in.context_key = "edge";
      break;
    case psl::ClockContext::Kind::kClkPos:
      in.context_key = "posedge";
      break;
    case psl::ClockContext::Kind::kClkNeg:
      in.context_key = "negedge";
      break;
  }
  return in;
}

PruneInput make_prune_input(const psl::TlmProperty& p) {
  PruneInput in;
  in.name = p.name;
  in.formula = p.formula;
  in.guard = p.context.guard;
  in.context_key = "tb";  // the basic transaction context Tb (Def. III.2)
  return in;
}

namespace {

// Static-verdict recursion over the NNF'd interned formula. Every rule is
// checked against the instance semantics of checker/instance.cc:
//
//   never_fails       the formula can never resolve Verdict::kFalse, on any
//                     trace including truncation (weak next truncates to
//                     true; strong until/eventually truncate to FALSE, so
//                     eventualities need a guaranteed witness; next_eps
//                     fails on a missed deadline regardless of its operand,
//                     so it is never assumed safe).
//   guaranteed_holds  the formula resolves kTrue at any evaluation position
//                     it is anchored on (position-uniform, so it can feed
//                     the until/eventually witness rules).
//   always_fails      the formula is guaranteed to resolve kFalse at any
//                     anchor (aggressive elide only; conservative — boolean
//                     contradictions threaded through and/or/always).
//
// Any BDD query that hits the atom cap flips `capped`; the caller then
// refuses to prune on the inconclusive analysis (PRN004).
struct StaticProver {
  const psl::ExprTable& table;
  BoolAnalyzer& booleans;
  bool capped = false;

  bool taut(psl::ExprId id) {
    switch (booleans.tautology(id)) {
      case BoolAnalyzer::Answer::kYes:
        return true;
      case BoolAnalyzer::Answer::kCapped:
        capped = true;
        return false;
      case BoolAnalyzer::Answer::kNo:
        return false;
    }
    return false;
  }

  bool contra(psl::ExprId id) {
    switch (booleans.contradiction(id)) {
      case BoolAnalyzer::Answer::kYes:
        return true;
      case BoolAnalyzer::Answer::kCapped:
        capped = true;
        return false;
      case BoolAnalyzer::Answer::kNo:
        return false;
    }
    return false;
  }

  bool guaranteed_holds(psl::ExprId id) {
    if (table.facts(id).is_boolean) return taut(id);
    const psl::ExprTable::Node& n = table.node(id);
    switch (n.kind) {
      case psl::ExprKind::kAnd:
        return guaranteed_holds(n.lhs) && guaranteed_holds(n.rhs);
      case psl::ExprKind::kOr:
        return guaranteed_holds(n.lhs) || guaranteed_holds(n.rhs);
      case psl::ExprKind::kUntil:
        // rhs true at the anchor resolves the until immediately.
        return guaranteed_holds(n.rhs);
      case psl::ExprKind::kRelease:
        // lhs && rhs at the anchor is the release condition.
        return guaranteed_holds(n.lhs) && guaranteed_holds(n.rhs);
      case psl::ExprKind::kEventually:
        return guaranteed_holds(n.lhs);
      case psl::ExprKind::kAbort:
        // Weak abort resolves true at the latest when the condition fires;
        // an immediately-true operand resolves it before that matters.
        return !n.strong && guaranteed_holds(n.lhs);
      default:
        // always/next/next_eps never resolve kTrue at their own anchor.
        return false;
    }
  }

  bool never_fails(psl::ExprId id) {
    if (table.facts(id).is_boolean) return taut(id);
    const psl::ExprTable::Node& n = table.node(id);
    switch (n.kind) {
      case psl::ExprKind::kAnd:
        return never_fails(n.lhs) && never_fails(n.rhs);
      case psl::ExprKind::kOr:
        // An or resolves kFalse only when both operands do.
        return never_fails(n.lhs) || never_fails(n.rhs);
      case psl::ExprKind::kAlways:
      case psl::ExprKind::kNext:  // weak: truncation resolves kTrue
        return never_fails(n.lhs);
      case psl::ExprKind::kNextEps:
        // A missed deadline fails regardless of the operand (Def. III.3).
        return false;
      case psl::ExprKind::kEventually:
        return guaranteed_holds(n.lhs);
      case psl::ExprKind::kUntil:
        return n.strong ? guaranteed_holds(n.rhs)
                        : guaranteed_holds(n.lhs) || guaranteed_holds(n.rhs);
      case psl::ExprKind::kRelease:
        return guaranteed_holds(n.rhs);
      case psl::ExprKind::kAbort:
        // Strong abort resolves kFalse when the condition fires.
        return !n.strong && never_fails(n.lhs);
      default:
        return false;
    }
  }

  bool always_fails(psl::ExprId id) {
    if (table.facts(id).is_boolean) return contra(id);
    const psl::ExprTable::Node& n = table.node(id);
    switch (n.kind) {
      case psl::ExprKind::kAlways:
        return always_fails(n.lhs);
      case psl::ExprKind::kAnd:
        return always_fails(n.lhs) || always_fails(n.rhs);
      case psl::ExprKind::kOr:
        return always_fails(n.lhs) && always_fails(n.rhs);
      default:
        return false;
    }
  }
};

void collect_atom_ids(const psl::ExprTable& table, psl::ExprId id,
                      std::vector<psl::ExprId>& out) {
  if (id == psl::kNoExpr) return;
  const psl::ExprTable::Node& n = table.node(id);
  if (n.kind == psl::ExprKind::kAtom) {
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
    return;
  }
  collect_atom_ids(table, n.lhs, out);
  collect_atom_ids(table, n.rhs, out);
}


}  // namespace

const PruneDecision* PrunePlan::find(std::string_view name) const {
  for (const PruneDecision& d : decisions) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

size_t PrunePlan::live() const {
  return static_cast<size_t>(
      std::count_if(decisions.begin(), decisions.end(), [](const auto& d) {
        return d.action == PruneAction::kLive;
      }));
}

size_t PrunePlan::elided() const {
  return static_cast<size_t>(
      std::count_if(decisions.begin(), decisions.end(), [](const auto& d) {
        return d.action == PruneAction::kElide;
      }));
}

size_t PrunePlan::subsumed() const {
  return static_cast<size_t>(
      std::count_if(decisions.begin(), decisions.end(), [](const auto& d) {
        return d.action == PruneAction::kSubsumed;
      }));
}

std::vector<Diagnostic> PrunePlan::diagnostics() const {
  std::vector<Diagnostic> out;
  for (const PruneDecision& d : decisions) {
    Diagnostic g;
    g.severity = Severity::kNote;
    g.property = d.name;
    g.check = "prune";
    switch (d.action) {
      case PruneAction::kElide:
        g.code = "PRN001";
        g.message = "elided (derived verdict: " +
                    std::string(d.static_verdict ? "holds" : "fails") +
                    "): " + d.reason;
        break;
      case PruneAction::kSubsumed:
        g.code = "PRN002";
        g.message = "subsumed by '" + d.subsumed_by +
                    "': verdict derived from its instance";
        break;
      case PruneAction::kLive:
        if (!d.capped) continue;
        g.code = "PRN004";
        g.message =
            "prune analysis hit the BDD atom cap; property stays live";
        break;
    }
    out.push_back(std::move(g));
  }
  return out;
}

void PrunePlan::write_json(std::ostream& os) const {
  os << "{\n  \"schema_version\": 1,\n  \"mode\": ";
  support::json::write_string(os, to_string(mode));
  os << ",\n  \"live\": " << live() << ",\n  \"elided\": " << elided()
     << ",\n  \"subsumed\": " << subsumed() << ",\n  \"properties\": [";
  bool first = true;
  for (const PruneDecision& d : decisions) {
    os << (first ? "\n" : ",\n") << "    {\"name\": ";
    first = false;
    support::json::write_string(os, d.name);
    os << ", \"action\": ";
    support::json::write_string(os, to_string(d.action));
    if (d.action == PruneAction::kElide) {
      os << ", \"static_verdict\": " << (d.static_verdict ? "true" : "false");
    }
    if (d.action == PruneAction::kSubsumed) {
      os << ", \"subsumed_by\": ";
      support::json::write_string(os, d.subsumed_by);
    }
    if (d.capped) os << ", \"capped\": true";
    if (!d.reason.empty()) {
      os << ", \"reason\": ";
      support::json::write_string(os, d.reason);
    }
    if (d.specialized != nullptr) {
      os << ", \"specialized\": ";
      support::json::write_string(os, psl::to_string(d.specialized));
    }
    os << "}";
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
}

PrunePlan build_prune_plan(rewrite::PassManager& pm, BoolAnalyzer& booleans,
                           const std::vector<PruneInput>& inputs,
                           PruneMode mode) {
  PrunePlan plan;
  plan.mode = mode;
  const size_t n = inputs.size();
  plan.decisions.resize(n);
  for (size_t i = 0; i < n; ++i) plan.decisions[i].name = inputs[i].name;
  if (mode == PruneMode::kOff || n == 0) return plan;

  psl::ExprTable& table = pm.table();
  std::vector<psl::ExprId> raw(n), nnf(n), guard(n);
  for (size_t i = 0; i < n; ++i) {
    raw[i] = table.intern(inputs[i].formula);
    nnf[i] = pm.nnf(raw[i]);
    guard[i] =
        inputs[i].guard != nullptr ? table.intern(inputs[i].guard) : table.mk_true();
  }

  // Pass 1: static verdicts. An inconclusive (capped) analysis never elides.
  std::vector<char> capped(n, 0);
  for (size_t i = 0; i < n; ++i) {
    PruneDecision& d = plan.decisions[i];
    StaticProver prover{table, booleans};
    if (prover.never_fails(nnf[i])) {
      d.action = PruneAction::kElide;
      d.static_verdict = true;
      d.reason = "statically proved: cannot fail on any trace";
    } else if (mode == PruneMode::kAggressive && prover.always_fails(nnf[i])) {
      d.action = PruneAction::kElide;
      d.static_verdict = false;
      d.reason = "statically contradictory: fails at every activation";
    } else if (prover.capped) {
      capped[i] = 1;
    }
  }

  // Pass 2: subsumption among the non-elided properties. An edge i -> j
  // means property i entails property j at every evaluation point of j:
  // same evaluation context, guard[j] => guard[i] (every activation of j is
  // one of i), and formula[i] |= formula[j] (Thm. III.2 consequence rules).
  std::vector<char> cand(n, 0);
  for (size_t i = 0; i < n; ++i) {
    cand[i] = plan.decisions[i].action != PruneAction::kElide;
  }
  std::vector<std::vector<char>> closure(n, std::vector<char>(n, 0));
  for (size_t i = 0; i < n; ++i) {
    if (!cand[i]) continue;
    closure[i][i] = 1;
    for (size_t j = 0; j < n; ++j) {
      if (i == j || !cand[j]) continue;
      if (inputs[i].context_key != inputs[j].context_key) continue;
      bool guard_ok = guard[j] == guard[i];
      if (!guard_ok && table.facts(guard[i]).is_boolean &&
          table.facts(guard[j]).is_boolean) {
        switch (booleans.implies(guard[j], guard[i])) {
          case BoolAnalyzer::Answer::kYes:
            guard_ok = true;
            break;
          case BoolAnalyzer::Answer::kCapped:
            capped[j] = 1;
            break;
          case BoolAnalyzer::Answer::kNo:
            break;
        }
      }
      if (!guard_ok) continue;
      switch (prove_consequence(table, nnf[i], nnf[j], booleans)) {
        case Entailment::kProved:
          closure[i][j] = 1;
          break;
        case Entailment::kCapped:
          capped[j] = 1;
          break;
        case Entailment::kUnknown:
          break;
      }
    }
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (!closure[i][k]) continue;
      for (size_t j = 0; j < n; ++j) {
        if (closure[k][j]) closure[i][j] = 1;
      }
    }
  }

  // Survivor selection: the min-index representative of each mutual-
  // implication class stays live unless something strictly entails it; a
  // capped property is always forced live (PRN004). Every pruned property
  // then names the min-index live entailer as its witness — such an
  // entailer always exists (the representative of a source class of the
  // condensation DAG above it).
  std::vector<char> is_live(n, 0);
  for (size_t j = 0; j < n; ++j) {
    if (!cand[j]) continue;
    bool rep = true;
    bool strictly_entailed = false;
    for (size_t i = 0; i < n && rep; ++i) {
      if (i == j || !cand[i] || !closure[i][j]) continue;
      if (closure[j][i]) {
        if (i < j) rep = false;  // mutual class has a smaller member
      } else {
        strictly_entailed = true;
      }
    }
    is_live[j] = (rep && !strictly_entailed) || capped[j];
  }
  for (size_t j = 0; j < n; ++j) {
    if (!cand[j]) continue;
    PruneDecision& d = plan.decisions[j];
    if (capped[j]) {
      d.capped = true;
      d.reason = "analysis hit the BDD atom cap; kept live";
      continue;
    }
    if (is_live[j]) continue;
    for (size_t i = 0; i < n; ++i) {
      if (i != j && cand[i] && is_live[i] && closure[i][j]) {
        d.action = PruneAction::kSubsumed;
        d.subsumed_by = inputs[i].name;
        d.reason = "entailed by '" + inputs[i].name +
                   "' (guard containment + consequence proof)";
        break;
      }
    }
  }

  // Pass 3: anchor-time specialization of the surviving live set. Atoms the
  // activation guard entails (the guard holds at every instance anchor) are
  // constant-folded on the boolean spine; the checker then compiles the
  // slimmer formula with an identical verdict stream.
  std::vector<psl::ExprId> atoms;
  for (size_t i = 0; i < n; ++i) {
    PruneDecision& d = plan.decisions[i];
    if (d.action != PruneAction::kLive) continue;
    if (guard[i] == table.mk_true() || !table.facts(guard[i]).is_boolean) {
      continue;
    }
    atoms.clear();
    collect_atom_ids(table, raw[i], atoms);
    rewrite::SpecializationFacts facts;
    for (const psl::ExprId a : atoms) {
      if (booleans.implies(guard[i], a) == BoolAnalyzer::Answer::kYes) {
        facts.add(a, true);
      } else if (booleans.implies(guard[i], table.mk_not(a)) ==
                 BoolAnalyzer::Answer::kYes) {
        facts.add(a, false);
      }
    }
    if (facts.empty()) continue;
    const psl::ExprId specialized = pm.specialize(raw[i], facts);
    if (specialized != raw[i]) {
      d.specialized = table.expr(specialized);
      if (d.reason.empty()) {
        d.reason = "guard-implied atoms folded at the instance anchor";
      }
    }
  }
  return plan;
}

PrunePlan build_prune_plan(const std::vector<PruneInput>& inputs,
                           PruneMode mode, size_t atom_cap) {
  rewrite::PassManager pm{rewrite::AbstractionOptions{}};
  BoolAnalyzer booleans(pm.table(), atom_cap);
  return build_prune_plan(pm, booleans, inputs, mode);
}

}  // namespace repro::analysis
