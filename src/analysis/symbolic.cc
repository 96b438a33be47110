#include "analysis/symbolic.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "analysis/checks.h"
#include "checker/program.h"

namespace repro::analysis {

namespace {

using checker::Program;
using psl::ExprKind;

const char* opcode_name(ExprKind k) {
  switch (k) {
    case ExprKind::kConstTrue: return "true";
    case ExprKind::kConstFalse: return "false";
    case ExprKind::kAtom: return "atom";
    case ExprKind::kNot: return "not";
    case ExprKind::kAnd: return "and";
    case ExprKind::kOr: return "or";
    case ExprKind::kImplies: return "implies";
    case ExprKind::kNext: return "next";
    case ExprKind::kNextEps: return "next_e";
    case ExprKind::kUntil: return "until";
    case ExprKind::kRelease: return "release";
    case ExprKind::kAlways: return "always";
    case ExprKind::kEventually: return "eventually";
    case ExprKind::kAbort: return "abort";
  }
  return "?";
}

bool is_fixpoint(ExprKind k) {
  return k == ExprKind::kUntil || k == ExprKind::kRelease ||
         k == ExprKind::kAlways || k == ExprKind::kEventually;
}

// Signals an atom references.
void atom_signals(const psl::Atom& a, std::vector<std::string>& out) {
  out.push_back(a.lhs);
  if (a.rhs_is_signal) out.push_back(a.rhs_signal);
}

}  // namespace

SymbolicEval::SymbolicEval(const psl::ExprPtr& formula, Options options)
    : options_(options) {
  body_ = formula;
  while (body_ != nullptr && body_->kind == ExprKind::kAlways) {
    body_ = body_->lhs;
  }
  if (body_ == nullptr) {
    status_ = Status::kUnsupported;
    skip_reason_ = "empty formula";
    return;
  }
  classify(body_);
  if (status_ != Status::kOk) return;
  program_ = Program::compile(body_);
  if (program_->atoms().size() > options_.atom_cap) {
    status_ = Status::kOverBudget;
    skip_reason_ = "formula references " +
                   std::to_string(program_->atoms().size()) +
                   " distinct atoms (cap " + std::to_string(options_.atom_cap) +
                   ")";
    return;
  }
  if (scheduled_) {
    build_schedule();
    return;
  }
  // Event-stepped horizon: bounded programs resolve within their maximum
  // nested-next distance D, so lengths 1..D+1 cover every trace exactly
  // (longer traces never hit a boundary and depend only on steps <= D).
  // Fixpoint programs unroll to the budget; exhaustive() reports whether
  // every trajectory still resolved within it.
  const auto& nodes = program_->nodes();
  std::vector<size_t> depth(nodes.size(), 0);
  for (uint32_t i = 0; i < nodes.size(); ++i) {
    const auto& n = nodes[i];
    const size_t dl = n.lhs == Program::kNoNode ? 0 : depth[n.lhs];
    const size_t dr = n.rhs == Program::kNoNode ? 0 : depth[n.rhs];
    depth[i] = std::max(dl, dr);
    if (n.op == ExprKind::kNext) depth[i] = n.next_count + dl;
  }
  const size_t want = bounded_ ? depth[program_->root()] + 1
                               : options_.step_budget;
  horizon_ = std::min(std::max<size_t>(want, 1), options_.step_budget);
  if (horizon_ < want) {
    // A clamped bounded program can no longer claim exhaustiveness; keep
    // going (witness search within the clamp stays sound) but flag it.
    exhaustive_cache_ = false;
  }
  if (horizon_ == 0) {
    status_ = Status::kOverBudget;
    skip_reason_ = "step budget is 0";
    return;
  }
  const size_t atoms = program_->atoms().size();
  var_of_atom_.resize(horizon_ * atoms);
  uint32_t next_var = 0;
  for (size_t s = 0; s < horizon_; ++s) {
    for (size_t a = 0; a < atoms; ++a) {
      var_of_atom_[s * atoms + a] = next_var++;
    }
  }
}

void SymbolicEval::classify(const psl::ExprPtr& body) {
  bool has_abort = false;
  bool has_next = false;
  bool has_eps = false;
  bool has_fix = false;
  bool has_zero_eps = false;
  std::vector<const psl::Expr*> work{body.get()};
  while (!work.empty()) {
    const psl::Expr* e = work.back();
    work.pop_back();
    switch (e->kind) {
      case ExprKind::kAbort: has_abort = true; break;
      case ExprKind::kNext: has_next = true; break;
      case ExprKind::kNextEps:
        has_eps = true;
        if (e->eps == 0) has_zero_eps = true;
        break;
      default:
        if (is_fixpoint(e->kind)) has_fix = true;
        break;
    }
    if (e->lhs) work.push_back(e->lhs.get());
    if (e->rhs) work.push_back(e->rhs.get());
  }
  if (has_abort) {
    status_ = Status::kUnsupported;
    skip_reason_ = "abort obligations depend on resolution times";
    return;
  }
  if (has_eps && (has_next || has_fix)) {
    status_ = Status::kUnsupported;
    skip_reason_ = "mixes timed (next_e) and event-counted obligations";
    return;
  }
  if (has_zero_eps) {
    status_ = Status::kUnsupported;
    skip_reason_ = "zero-width next_e window";
    return;
  }
  scheduled_ = has_eps;
  bounded_ = !has_fix;
}

void SymbolicEval::build_schedule() {
  // Each node of a next_e/boolean program is evaluated at exactly one
  // cumulative time offset from the anchor (the tree has no fixpoints, so
  // every node sits on a unique root path). Children are visited after
  // their parent in descending index order.
  const auto& nodes = program_->nodes();
  std::vector<psl::TimeNs> off(nodes.size(), 0);
  for (uint32_t i = static_cast<uint32_t>(nodes.size()); i-- > 0;) {
    const auto& n = nodes[i];
    const psl::TimeNs child_off =
        n.op == ExprKind::kNextEps ? off[i] + n.eps : off[i];
    if (n.lhs != Program::kNoNode) off[n.lhs] = child_off;
    if (n.rhs != Program::kNoNode) off[n.rhs] = child_off;
  }
  offsets_.assign(1, 0);
  for (uint32_t i = 0; i < nodes.size(); ++i) {
    // The instant a next_e node *targets* (its operand's anchor).
    if (nodes[i].op == ExprKind::kNextEps) {
      offsets_.push_back(off[i] + nodes[i].eps);
    }
  }
  std::sort(offsets_.begin(), offsets_.end());
  offsets_.erase(std::unique(offsets_.begin(), offsets_.end()),
                 offsets_.end());
  horizon_ = offsets_.size();
  if (horizon_ > options_.step_budget) {
    status_ = Status::kOverBudget;
    skip_reason_ = "needs " + std::to_string(horizon_) +
                   " scheduled instants (budget " +
                   std::to_string(options_.step_budget) + ")";
    return;
  }
  node_instant_.resize(nodes.size());
  for (uint32_t i = 0; i < nodes.size(); ++i) {
    const auto it = std::lower_bound(offsets_.begin(), offsets_.end(), off[i]);
    assert(it != offsets_.end() && *it == off[i]);
    node_instant_[i] = static_cast<uint32_t>(it - offsets_.begin());
  }
  // Instant-major variable order: [event?, gap?, atoms...] per instant. The
  // anchor (instant 0) always carries an event. gap_var_[j] stands for "an
  // event exists strictly inside (offsets_[j], offsets_[j+1])" (the last
  // gap is unbounded); a gap with no integer-time room is constant false.
  const size_t atoms = program_->atoms().size();
  var_of_atom_.resize(horizon_ * atoms);
  event_var_.assign(horizon_, 0);
  gap_var_.assign(horizon_, ~0u);
  uint32_t next_var = 0;
  for (size_t j = 0; j < horizon_; ++j) {
    if (j > 0) {
      event_var_[j] = next_var++;
      const bool last = j + 1 == horizon_;
      if (last || offsets_[j + 1] > offsets_[j] + 1) gap_var_[j] = next_var++;
    }
    for (size_t a = 0; a < atoms; ++a) {
      var_of_atom_[j * atoms + a] = next_var++;
    }
  }
  // past_[j]: some event strictly after offsets_[j] — the "deadline missed"
  // trigger of Def. III.3. Suffix-or over later event/gap variables.
  past_.assign(horizon_, Bdd::kFalse);
  for (size_t j = horizon_; j-- > 1;) {
    Bdd::Ref r = gap_var_[j] == ~0u ? Bdd::kFalse : bdd_.var(gap_var_[j]);
    if (j + 1 < horizon_) {
      r = bdd_.or_(r, bdd_.or_(bdd_.var(event_var_[j + 1]), past_[j + 1]));
    }
    past_[j] = r;
  }
}

void SymbolicEval::begin_eval(const std::vector<uint8_t>* force) {
  memo_.clear();
  cur_force_ = force;
}

Bdd::Ref SymbolicEval::atom_ref(uint32_t atom, size_t step) {
  return bdd_.var(var_of_atom_[step * program_->atoms().size() + atom]);
}

SymbolicEval::SymVerdict SymbolicEval::boundary(bool complete, bool weak) {
  if (!complete) return {Bdd::kFalse, Bdd::kFalse};
  return weak ? SymVerdict{Bdd::kTrue, Bdd::kFalse}
              : SymVerdict{Bdd::kFalse, Bdd::kTrue};
}

// Transcription of reference_eval's three-valued recursion into verdict
// sets: and3 becomes (t1 & t2, f1 | f2), or3 its dual, not3 the swap. The
// fixpoint recurrences run front-to-back with memoized suffixes:
//   U(s) = q(s) | (p(s) & U(s+1)),   R(s) = q(s) & (p(s) | R(s+1)).
SymbolicEval::SymVerdict SymbolicEval::eval_event(uint32_t node, size_t step,
                                                  size_t len, bool complete) {
  assert(step < len);
  if (cur_force_ != nullptr) {
    const uint8_t f = (*cur_force_)[node];
    if (f == 1) return {Bdd::kTrue, Bdd::kFalse};
    if (f == 2) return {Bdd::kFalse, Bdd::kTrue};
  }
  const uint64_t key =
      ((((uint64_t{node} << 10) | step) << 10 | len) << 1) | (complete ? 1 : 0);
  if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
  const auto& n = program_->nodes()[node];
  SymVerdict r;
  switch (n.op) {
    case ExprKind::kConstTrue:
      r = {Bdd::kTrue, Bdd::kFalse};
      break;
    case ExprKind::kConstFalse:
      r = {Bdd::kFalse, Bdd::kTrue};
      break;
    case ExprKind::kAtom: {
      const Bdd::Ref v = atom_ref(n.atom, step);
      r = {v, bdd_.not_(v)};
      break;
    }
    case ExprKind::kNot: {
      const SymVerdict a = eval_event(n.lhs, step, len, complete);
      r = {a.f, a.t};
      break;
    }
    case ExprKind::kAnd: {
      const SymVerdict a = eval_event(n.lhs, step, len, complete);
      const SymVerdict b = eval_event(n.rhs, step, len, complete);
      r = {bdd_.and_(a.t, b.t), bdd_.or_(a.f, b.f)};
      break;
    }
    case ExprKind::kOr: {
      const SymVerdict a = eval_event(n.lhs, step, len, complete);
      const SymVerdict b = eval_event(n.rhs, step, len, complete);
      r = {bdd_.or_(a.t, b.t), bdd_.and_(a.f, b.f)};
      break;
    }
    case ExprKind::kImplies: {
      const SymVerdict a = eval_event(n.lhs, step, len, complete);
      const SymVerdict b = eval_event(n.rhs, step, len, complete);
      r = {bdd_.or_(a.f, b.t), bdd_.and_(a.t, b.f)};
      break;
    }
    case ExprKind::kNext: {
      const size_t target = step + n.next_count;
      r = target >= len ? boundary(complete, /*weak=*/true)
                        : eval_event(n.lhs, target, len, complete);
      break;
    }
    case ExprKind::kUntil: {
      const SymVerdict q = eval_event(n.rhs, step, len, complete);
      const SymVerdict p = eval_event(n.lhs, step, len, complete);
      const SymVerdict rest = step + 1 < len
                                  ? eval_event(node, step + 1, len, complete)
                                  : boundary(complete, /*weak=*/!n.strong);
      const SymVerdict pr = {bdd_.and_(p.t, rest.t), bdd_.or_(p.f, rest.f)};
      r = {bdd_.or_(q.t, pr.t), bdd_.and_(q.f, pr.f)};
      break;
    }
    case ExprKind::kRelease: {
      const SymVerdict q = eval_event(n.rhs, step, len, complete);
      const SymVerdict p = eval_event(n.lhs, step, len, complete);
      const SymVerdict rest = step + 1 < len
                                  ? eval_event(node, step + 1, len, complete)
                                  : boundary(complete, /*weak=*/true);
      const SymVerdict pr = {bdd_.or_(p.t, rest.t), bdd_.and_(p.f, rest.f)};
      r = {bdd_.and_(q.t, pr.t), bdd_.or_(q.f, pr.f)};
      break;
    }
    case ExprKind::kAlways: {
      const SymVerdict p = eval_event(n.lhs, step, len, complete);
      const SymVerdict rest = step + 1 < len
                                  ? eval_event(node, step + 1, len, complete)
                                  : boundary(complete, /*weak=*/true);
      r = {bdd_.and_(p.t, rest.t), bdd_.or_(p.f, rest.f)};
      break;
    }
    case ExprKind::kEventually: {
      const SymVerdict p = eval_event(n.lhs, step, len, complete);
      const SymVerdict rest = step + 1 < len
                                  ? eval_event(node, step + 1, len, complete)
                                  : boundary(complete, /*weak=*/false);
      r = {bdd_.or_(p.t, rest.t), bdd_.and_(p.f, rest.f)};
      break;
    }
    case ExprKind::kNextEps:
    case ExprKind::kAbort:
      assert(false && "gated by classify()");
      break;
  }
  if (bdd_.node_count() > options_.bdd_node_cap && status_ == Status::kOk) {
    status_ = Status::kOverBudget;
    skip_reason_ = "BDD node cap exceeded";
  }
  memo_.emplace(key, r);
  return r;
}

// Scheduled semantics of Def. III.3 over arbitrary event streams: a next_e
// targeting instant j resolves through three disjoint outcomes — met (an
// event exists exactly at the target time: the operand's verdict), missed
// (no event there but some event past it: false), truncated (the stream
// ends first: weak/complete boundary, i.e. true).
SymbolicEval::SymVerdict SymbolicEval::eval_scheduled(uint32_t node) {
  if (cur_force_ != nullptr) {
    const uint8_t f = (*cur_force_)[node];
    if (f == 1) return {Bdd::kTrue, Bdd::kFalse};
    if (f == 2) return {Bdd::kFalse, Bdd::kTrue};
  }
  if (const auto it = memo_.find(node); it != memo_.end()) return it->second;
  const auto& n = program_->nodes()[node];
  SymVerdict r;
  switch (n.op) {
    case ExprKind::kConstTrue:
      r = {Bdd::kTrue, Bdd::kFalse};
      break;
    case ExprKind::kConstFalse:
      r = {Bdd::kFalse, Bdd::kTrue};
      break;
    case ExprKind::kAtom: {
      const Bdd::Ref v = atom_ref(n.atom, node_instant_[node]);
      r = {v, bdd_.not_(v)};
      break;
    }
    case ExprKind::kNot: {
      const SymVerdict a = eval_scheduled(n.lhs);
      r = {a.f, a.t};
      break;
    }
    case ExprKind::kAnd: {
      const SymVerdict a = eval_scheduled(n.lhs);
      const SymVerdict b = eval_scheduled(n.rhs);
      r = {bdd_.and_(a.t, b.t), bdd_.or_(a.f, b.f)};
      break;
    }
    case ExprKind::kOr: {
      const SymVerdict a = eval_scheduled(n.lhs);
      const SymVerdict b = eval_scheduled(n.rhs);
      r = {bdd_.or_(a.t, b.t), bdd_.and_(a.f, b.f)};
      break;
    }
    case ExprKind::kImplies: {
      const SymVerdict a = eval_scheduled(n.lhs);
      const SymVerdict b = eval_scheduled(n.rhs);
      r = {bdd_.or_(a.f, b.t), bdd_.and_(a.t, b.f)};
      break;
    }
    case ExprKind::kNextEps: {
      const uint32_t j = node_instant_[n.lhs];
      assert(j > 0);
      const SymVerdict a = eval_scheduled(n.lhs);
      const Bdd::Ref met = bdd_.var(event_var_[j]);
      const Bdd::Ref unmet = bdd_.not_(met);
      r = {bdd_.or_(bdd_.and_(met, a.t), bdd_.and_(unmet, bdd_.not_(past_[j]))),
           bdd_.or_(bdd_.and_(met, a.f), bdd_.and_(unmet, past_[j]))};
      break;
    }
    default:
      assert(false && "gated by classify()");
      break;
  }
  if (bdd_.node_count() > options_.bdd_node_cap && status_ == Status::kOk) {
    status_ = Status::kOverBudget;
    skip_reason_ = "BDD node cap exceeded";
  }
  memo_.emplace(node, r);
  return r;
}

SymbolicEval::Profile SymbolicEval::profile(
    const std::vector<uint8_t>* force) {
  begin_eval(force);
  Profile out;
  if (scheduled_) {
    out.push_back(eval_scheduled(program_->root()));
    return out;
  }
  // Every prefix length, complete and incomplete: equality of two profiles
  // means the runtime verdict stream is identical event for event.
  for (size_t len = 1; len <= horizon_; ++len) {
    out.push_back(eval_event(program_->root(), 0, len, /*complete=*/true));
    out.push_back(eval_event(program_->root(), 0, len, /*complete=*/false));
  }
  return out;
}

bool SymbolicEval::exhaustive() {
  if (status_ != Status::kOk) return false;
  if (exhaustive_cache_.has_value()) return *exhaustive_cache_;
  if (scheduled_) {
    // The event/gap encoding quantifies over all stream lengths at once.
    exhaustive_cache_ = true;
    return true;
  }
  // Exhaustive iff every trajectory is decided on the incomplete horizon
  // prefix: informative verdicts on incomplete prefixes are
  // extension-invariant, so longer traces add nothing.
  begin_eval(nullptr);
  const SymVerdict v =
      eval_event(program_->root(), 0, horizon_, /*complete=*/false);
  exhaustive_cache_ = status_ == Status::kOk && bdd_.or_(v.t, v.f) == Bdd::kTrue;
  return *exhaustive_cache_;
}

bool SymbolicEval::never_fails() {
  if (status_ != Status::kOk) return false;
  begin_eval(nullptr);
  if (scheduled_) {
    return eval_scheduled(program_->root()).f == Bdd::kFalse &&
           status_ == Status::kOk;
  }
  for (size_t len = 1; len <= horizon_; ++len) {
    if (eval_event(program_->root(), 0, len, /*complete=*/true).f !=
        Bdd::kFalse) {
      return false;
    }
  }
  return status_ == Status::kOk;
}

bool SymbolicEval::solve_step(
    const std::vector<std::optional<bool>>& required,
    std::vector<std::pair<std::string, uint64_t>>& values) const {
  // Concretization: the BDD treats atoms as independent, but comparisons
  // over shared signals are not — find integer signal values realizing the
  // required truth assignment by brute force over a small candidate grid
  // (0, 1 and every compared constant +/- 1 per signal).
  const auto& atoms = program_->atoms();
  std::vector<std::string> signals;
  for (const auto& a : atoms) atom_signals(a, signals);
  std::sort(signals.begin(), signals.end());
  signals.erase(std::unique(signals.begin(), signals.end()), signals.end());
  std::map<std::string, std::vector<uint64_t>> candidates;
  for (const auto& s : signals) candidates[s] = {0, 1};
  for (const auto& a : atoms) {
    if (a.rhs_is_signal) continue;
    auto& c = candidates[a.lhs];
    c.push_back(a.rhs_value);
    c.push_back(a.rhs_value + 1);
    if (a.rhs_value > 0) c.push_back(a.rhs_value - 1);
  }
  for (auto& [_, c] : candidates) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
  }
  // Odometer over the candidate grid, capped so pathological atom sets
  // cannot stall the lint pass.
  size_t combos = 1;
  for (const auto& s : signals) {
    combos *= candidates[s].size();
    if (combos > 20000) return false;
  }
  std::vector<size_t> pick(signals.size(), 0);
  for (size_t c = 0; c < combos; ++c) {
    checker::MapContext ctx;
    for (size_t i = 0; i < signals.size(); ++i) {
      ctx.set(signals[i], candidates[signals[i]][pick[i]]);
    }
    bool ok = true;
    for (size_t a = 0; a < atoms.size() && ok; ++a) {
      if (required[a].has_value() &&
          checker::eval_atom(atoms[a], ctx) != *required[a]) {
        ok = false;
      }
    }
    if (ok) {
      values.assign(ctx.entries().begin(), ctx.entries().end());
      return true;
    }
    for (size_t i = 0; i < pick.size(); ++i) {
      if (++pick[i] < candidates[signals[i]].size()) break;
      pick[i] = 0;
    }
  }
  return false;
}

std::optional<WitnessTrace> SymbolicEval::concretize_event(
    const Bdd::Assignment& a, size_t len) {
  const size_t natoms = program_->atoms().size();
  std::vector<std::vector<std::optional<bool>>> required(
      len, std::vector<std::optional<bool>>(natoms));
  for (const auto& [var, value] : a) {
    const size_t step = var / natoms;
    if (step >= len) continue;
    required[step][var % natoms] = value;
  }
  WitnessTrace trace;
  for (size_t s = 0; s < len; ++s) {
    TraceEvent ev;
    ev.time = (s + 1) * options_.clock_period_ns;
    if (!solve_step(required[s], ev.values)) return std::nullopt;
    trace.push_back(std::move(ev));
  }
  return trace;
}

std::optional<WitnessTrace> SymbolicEval::concretize_scheduled(
    const Bdd::Assignment& a) {
  const size_t natoms = program_->atoms().size();
  std::vector<bool> event_present(horizon_, false);
  std::vector<bool> gap_present(horizon_, false);
  event_present[0] = true;  // the anchor
  std::vector<std::vector<std::optional<bool>>> required(
      horizon_, std::vector<std::optional<bool>>(natoms));
  for (const auto& [var, value] : a) {
    bool matched = false;
    for (size_t j = 1; j < horizon_ && !matched; ++j) {
      if (event_var_[j] == var) {
        event_present[j] = value;
        matched = true;
      } else if (gap_var_[j] == var) {
        gap_present[j] = value;
        matched = true;
      }
    }
    if (matched) continue;
    // Atom variable: instant-major layout.
    for (size_t j = 0; j < horizon_ && !matched; ++j) {
      for (size_t k = 0; k < natoms && !matched; ++k) {
        if (var_of_atom_[j * natoms + k] == var) {
          required[j][k] = value;
          matched = true;
        }
      }
    }
  }
  WitnessTrace trace;
  for (size_t j = 0; j < horizon_; ++j) {
    if (event_present[j]) {
      TraceEvent ev;
      ev.time = offsets_[j];
      if (!solve_step(required[j], ev.values)) return std::nullopt;
      trace.push_back(std::move(ev));
    }
    if (gap_present[j]) {
      // A sentinel event strictly inside the gap: it carries no obligation
      // of its own, it only witnesses "the stream moved past the deadline".
      TraceEvent ev;
      ev.time = offsets_[j] + 1;
      std::vector<std::optional<bool>> free(natoms);
      if (!solve_step(free, ev.values)) return std::nullopt;
      trace.push_back(std::move(ev));
    }
  }
  return trace;
}

std::optional<SymbolicEval::FailWitness> SymbolicEval::fail_witness() {
  if (status_ != Status::kOk) return std::nullopt;
  begin_eval(nullptr);
  const size_t max_len = scheduled_ ? 1 : horizon_;
  for (size_t len = 1; len <= max_len; ++len) {
    const Bdd::Ref fail =
        scheduled_ ? eval_scheduled(program_->root()).f
                   : eval_event(program_->root(), 0, len, /*complete=*/true).f;
    if (status_ != Status::kOk) return std::nullopt;
    if (fail == Bdd::kFalse) continue;
    for (const Bdd::Assignment& a : bdd_.sat_some(fail, 64)) {
      std::optional<WitnessTrace> trace =
          scheduled_ ? concretize_scheduled(a) : concretize_event(a, len);
      if (!trace.has_value()) continue;
      // The witness only ships once the concrete interpreter agrees: replay
      // through the real Program evaluator must reproduce the failure.
      if (replay_witness(body_, *trace) != checker::Verdict::kFalse) continue;
      const size_t events = trace->size();
      return FailWitness{std::move(*trace), events};
    }
  }
  return std::nullopt;
}

std::vector<uint32_t> SymbolicEval::dead_nodes() {
  std::vector<uint32_t> dead;
  if (status_ != Status::kOk) return dead;
  if (program_->size() > 128 || program_->size() < 2) return dead;
  const Profile base = profile(nullptr);
  if (status_ != Status::kOk) return dead;
  for (uint32_t n = 0; n + 1 < program_->size(); ++n) {
    const auto op = program_->nodes()[n].op;
    if (op == ExprKind::kConstTrue || op == ExprKind::kConstFalse) continue;
    std::vector<uint8_t> force(program_->size(), 0);
    force[n] = 1;
    if (profile(&force) != base) continue;
    force[n] = 2;
    if (profile(&force) != base) continue;
    if (status_ != Status::kOk) break;
    dead.push_back(n);
  }
  return dead;
}

std::optional<Bdd::Ref> SymbolicEval::build_boolean(const psl::ExprPtr& e) {
  switch (e->kind) {
    case ExprKind::kConstTrue:
      return Bdd::kTrue;
    case ExprKind::kConstFalse:
      return Bdd::kFalse;
    case ExprKind::kAtom: {
      // Map onto the anchor-instant variable of the matching program atom;
      // atoms the program does not mention get fresh variables.
      for (uint32_t k = 0; k < program_->atoms().size(); ++k) {
        if (program_->atoms()[k] == e->atom) return atom_ref(k, 0);
      }
      // Fresh variables sort after every trajectory variable, keyed by a
      // stable hash-free scan: reuse one extra variable per distinct atom.
      extra_atoms_.push_back(e->atom);
      for (size_t k = 0; k + 1 < extra_atoms_.size(); ++k) {
        if (extra_atoms_[k] == e->atom) {
          extra_atoms_.pop_back();
          return bdd_.var(static_cast<uint32_t>(1u << 24) +
                          static_cast<uint32_t>(k));
        }
      }
      return bdd_.var(static_cast<uint32_t>(1u << 24) +
                      static_cast<uint32_t>(extra_atoms_.size() - 1));
    }
    case ExprKind::kNot: {
      const auto a = build_boolean(e->lhs);
      if (!a) return std::nullopt;
      return bdd_.not_(*a);
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kImplies: {
      const auto a = build_boolean(e->lhs);
      const auto b = build_boolean(e->rhs);
      if (!a || !b) return std::nullopt;
      if (e->kind == ExprKind::kAnd) return bdd_.and_(*a, *b);
      if (e->kind == ExprKind::kOr) return bdd_.or_(*a, *b);
      return bdd_.implies(*a, *b);
    }
    default:
      return std::nullopt;
  }
}

bool SymbolicEval::antecedent_unsat(const psl::ExprPtr& guard) {
  if (status_ != Status::kOk) return false;
  const psl::ExprPtr antecedent = checker::derive_antecedent(body_);
  if (antecedent == nullptr) return false;
  begin_eval(nullptr);
  const auto a = build_boolean(antecedent);
  if (!a) return false;
  Bdd::Ref cond = *a;
  if (guard != nullptr) {
    const auto g = build_boolean(guard);
    if (!g) return false;
    cond = bdd_.and_(cond, *g);
  }
  return cond == Bdd::kFalse;
}

namespace {

void emit_sym(CheckContext& ctx, std::string code, Severity severity,
              std::string message, std::string hint = {},
              WitnessTrace witness = {}) {
  Diagnostic d;
  d.code = std::move(code);
  d.severity = severity;
  d.property = ctx.property.name;
  d.check = "symbolic-eval";
  d.message = std::move(message);
  d.hint = std::move(hint);
  d.span = ctx.span;
  d.witness = std::move(witness);
  ctx.record.diagnostics.push_back(std::move(d));
}

void run_symbolic_level(CheckContext& ctx, const std::string& level,
                        const psl::ExprPtr& formula,
                        const psl::ExprPtr& guard) {
  SymbolicEval::Options opt;
  opt.clock_period_ns = ctx.options.abstraction.clock_period_ns;
  opt.step_budget = ctx.options.symbolic_budget;
  opt.atom_cap = ctx.options.atom_cap;
  SymbolicEval sym(formula, opt);
  if (sym.status() != SymbolicEval::Status::kOk) {
    emit_sym(ctx, "SYM005", Severity::kNote,
             level + ": symbolic analysis skipped: " + sym.skip_reason());
    return;
  }
  const std::string scope =
      (sym.time_scheduled() ? std::string("all event streams over ")
                            : std::string("all traces up to ")) +
      std::to_string(sym.horizon()) +
      (sym.time_scheduled() ? " scheduled instants" : " steps");
  if (sym.never_fails()) {
    if (sym.exhaustive()) {
      emit_sym(ctx, "SYM001", Severity::kNote,
               level + ": no trajectory can fail (" + scope +
                   ", exhaustive)",
               "elide-grade evidence: the checker can never report a "
               "failure for this property");
    }
  } else if (auto w = sym.fail_witness()) {
    std::string hint = "witness trace:\n" + format_witness(w->trace);
    emit_sym(ctx, "SYM004", Severity::kNote,
             level + ": a failing trace of " + std::to_string(w->length) +
                 " event(s) is reachable (replay-verified)",
             std::move(hint), std::move(w->trace));
  }
  const std::vector<uint32_t> dead =
      sym.exhaustive() ? sym.dead_nodes() : std::vector<uint32_t>{};
  if (!dead.empty()) {
    std::string names;
    for (const uint32_t n : dead) {
      if (!names.empty()) names += ", ";
      names += "#" + std::to_string(n) + ":" +
               opcode_name(sym.program()->nodes()[n].op);
    }
    emit_sym(ctx, "SYM002", Severity::kNote,
             level + ": " + std::to_string(dead.size()) +
                 " program node(s) never influence the verdict (" + scope +
                 "): " + names,
             "dead subtrees are constant-foldable without changing the "
             "verdict stream");
  }
  if (sym.antecedent_unsat(guard)) {
    emit_sym(ctx, "SYM003", Severity::kWarning,
             level + ": antecedent is unsatisfiable under the activation "
                     "guard on every reachable trajectory",
             "every pass would be vacuous; cf. COV001 runtime vacuity");
  }
}

}  // namespace

void check_symbolic(CheckContext& ctx) {
  if (ctx.options.symbolic_budget == 0) return;
  run_symbolic_level(ctx, "rtl", ctx.property.formula,
                     ctx.property.context.guard);
  if (!ctx.outcome.deleted()) {
    const psl::TlmProperty& tlm = *ctx.outcome.property;
    if (psl::to_string(tlm.formula) != psl::to_string(ctx.property.formula)) {
      run_symbolic_level(ctx, "tlm", tlm.formula, tlm.context.guard);
    }
  }
}

checker::Verdict replay_witness(const psl::ExprPtr& formula,
                                const WitnessTrace& witness) {
  psl::ExprPtr body = formula;
  while (body != nullptr && body->kind == ExprKind::kAlways) body = body->lhs;
  if (body == nullptr || witness.empty()) return checker::Verdict::kPending;
  checker::ProgramState state(Program::compile(body));
  for (const TraceEvent& te : witness) {
    checker::MapContext ctx;
    for (const auto& [name, value] : te.values) ctx.set(name, value);
    const checker::Event ev{te.time, &ctx};
    const checker::Verdict v = state.step(ev);
    // The concrete engine retires an instance at its first informative
    // verdict; later events no longer matter.
    if (v != checker::Verdict::kPending) return v;
  }
  return state.finish();
}

}  // namespace repro::analysis
