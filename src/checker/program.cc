#include "checker/program.h"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <ostream>

#include "psl/intern.h"

namespace repro::checker {

namespace {

// Verdict encoding with kPending == 0, so fresh state is all-zeroes.
constexpr uint8_t kVPend = 0;
constexpr uint8_t kVTrue = 1;
constexpr uint8_t kVFalse = 2;

Verdict decode(uint8_t v) {
  switch (v) {
    case kVTrue: return Verdict::kTrue;
    case kVFalse: return Verdict::kFalse;
    default: return Verdict::kPending;
  }
}

uint8_t not3(uint8_t v) {
  if (v == kVTrue) return kVFalse;
  if (v == kVFalse) return kVTrue;
  return kVPend;
}

uint8_t and3(uint8_t a, uint8_t b) {
  if (a == kVFalse || b == kVFalse) return kVFalse;
  if (a == kVPend || b == kVPend) return kVPend;
  return kVTrue;
}

uint8_t or3(uint8_t a, uint8_t b) {
  if (a == kVTrue || b == kVTrue) return kVTrue;
  if (a == kVPend || b == kVPend) return kVPend;
  return kVFalse;
}

bool is_dynamic(Program::Opcode op) {
  switch (op) {
    case Program::Opcode::kUntil:
    case Program::Opcode::kRelease:
    case Program::Opcode::kAlways:
    case Program::Opcode::kEventually:
      return true;
    default:
      return false;
  }
}

bool is_fixpoint(Program::Opcode op) {
  return op == Program::Opcode::kUntil || op == Program::Opcode::kRelease;
}

const char* op_name(Program::Opcode op) {
  switch (op) {
    case Program::Opcode::kConstTrue: return "true";
    case Program::Opcode::kConstFalse: return "false";
    case Program::Opcode::kAtom: return "atom";
    case Program::Opcode::kNot: return "not";
    case Program::Opcode::kAnd: return "and";
    case Program::Opcode::kOr: return "or";
    case Program::Opcode::kImplies: return "implies";
    case Program::Opcode::kNext: return "next";
    case Program::Opcode::kNextEps: return "next_e";
    case Program::Opcode::kUntil: return "until";
    case Program::Opcode::kRelease: return "release";
    case Program::Opcode::kAlways: return "always";
    case Program::Opcode::kEventually: return "eventually";
    case Program::Opcode::kAbort: return "abort";
  }
  return "?";
}

}  // namespace

uint32_t Program::emit(const psl::ExprPtr& e) {
  const uint32_t lo = static_cast<uint32_t>(nodes_.size());
  const uint32_t lhs = e->lhs ? emit(e->lhs) : kNoNode;
  const uint32_t rhs = e->rhs ? emit(e->rhs) : kNoNode;
  ProgNode n;
  n.op = e->kind;
  n.strong = e->strong;
  n.lhs = lhs;
  n.rhs = rhs;
  n.subtree_lo = lo;
  n.next_count = e->next_count;
  n.eps = e->eps;
  switch (e->kind) {
    case Opcode::kConstTrue:
    case Opcode::kConstFalse:
    case Opcode::kAtom:
      n.pure_bool = true;
      break;
    case Opcode::kNot:
      n.pure_bool = nodes_[lhs].pure_bool;
      break;
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kImplies:
      n.pure_bool = nodes_[lhs].pure_bool && nodes_[rhs].pure_bool;
      break;
    default:
      break;
  }
  if (e->kind == Opcode::kAtom) {
    // Programs are small; a linear atom dedup keeps the table compact.
    uint32_t found = static_cast<uint32_t>(atoms_.size());
    for (uint32_t i = 0; i < atoms_.size(); ++i) {
      if (atoms_[i] == e->atom) {
        found = i;
        break;
      }
    }
    if (found == atoms_.size()) atoms_.push_back(e->atom);
    n.atom = found;
  }
  nodes_.push_back(n);
  return static_cast<uint32_t>(nodes_.size()) - 1;
}

void Program::finalize() {
  dyn_prefix_.resize(nodes_.size() + 1);
  uint32_t count = 0;
  for (uint32_t i = 0; i < nodes_.size(); ++i) {
    dyn_prefix_[i] = count;
    if (is_dynamic(nodes_[i].op)) {
      dyn_nodes_.push_back(i);
      ++count;
    }
  }
  dyn_prefix_[nodes_.size()] = count;

  // Collect the guard subtrees of the implication shapes derive_antecedent()
  // recognizes, walking from the root through nested guards. The walk is the
  // node-table mirror of the AST walk: kImplies with a pure-boolean lhs
  // contributes the lhs subtree, a disjunction of one pure-boolean and one
  // temporal operand contributes the boolean subtree.
  uint32_t at = root();
  while (true) {
    const ProgNode& n = nodes_[at];
    uint32_t guard = kNoNode;
    uint32_t cont = kNoNode;
    if (n.op == Opcode::kImplies && nodes_[n.lhs].pure_bool) {
      guard = n.lhs;
      cont = n.rhs;
    } else if (n.op == Opcode::kOr &&
               nodes_[n.lhs].pure_bool != nodes_[n.rhs].pure_bool) {
      guard = nodes_[n.lhs].pure_bool ? n.lhs : n.rhs;
      cont = nodes_[n.lhs].pure_bool ? n.rhs : n.lhs;
    }
    if (guard == kNoNode) break;
    for (uint32_t i = nodes_[guard].subtree_lo; i <= guard; ++i) {
      antecedent_nodes_.push_back(i);
    }
    at = cont;
  }
}

std::shared_ptr<const Program> Program::compile(const psl::ExprPtr& formula) {
  assert(formula);
  auto program = std::make_shared<Program>();
  program->emit(formula);
  program->finalize();
  return program;
}

std::shared_ptr<const Program> Program::compile(const psl::ExprTable& table,
                                                uint32_t id) {
  return compile(table.expr(id));
}

psl::ExprPtr derive_antecedent(const psl::ExprPtr& body) {
  if (!body) return nullptr;
  psl::ExprPtr guard;
  psl::ExprPtr cont;
  if (body->kind == psl::ExprKind::kImplies && psl::is_boolean(body->lhs)) {
    guard = body->lhs;
    cont = body->rhs;
  } else if (body->kind == psl::ExprKind::kOr) {
    const bool lhs_bool = psl::is_boolean(body->lhs);
    if (lhs_bool != psl::is_boolean(body->rhs)) {
      // The pass is vacuous exactly when the boolean disjunct alone decided
      // it, so the antecedent is that disjunct's negation.
      guard = psl::not_(lhs_bool ? body->lhs : body->rhs);
      cont = lhs_bool ? body->rhs : body->lhs;
    }
  }
  if (!guard) return nullptr;
  if (psl::ExprPtr inner = derive_antecedent(cont)) {
    return psl::and_(std::move(guard), std::move(inner));
  }
  return guard;
}

void Program::dump(std::ostream& os) const {
  os << "program: " << nodes_.size() << " node(s), " << dyn_nodes_.size()
     << " dynamic, " << atoms_.size() << " atom(s), root @" << root() << "\n";
  for (uint32_t i = 0; i < nodes_.size(); ++i) {
    const ProgNode& n = nodes_[i];
    os << std::setw(4) << i << ": " << std::left << std::setw(10)
       << op_name(n.op) << std::right;
    switch (n.op) {
      case Opcode::kAtom:
        os << psl::to_string(psl::atom(atoms_[n.atom]));
        break;
      case Opcode::kNext:
        os << "[" << n.next_count << "] @" << n.lhs;
        break;
      case Opcode::kNextEps:
        os << "eps=" << n.eps << "ns @" << n.lhs;
        break;
      case Opcode::kNot:
      case Opcode::kAlways:
        os << "@" << n.lhs;
        break;
      case Opcode::kEventually:
        os << (n.strong ? "! " : " ") << "@" << n.lhs;
        break;
      case Opcode::kUntil:
        os << (n.strong ? "! " : " ") << "@" << n.lhs << ", @" << n.rhs;
        break;
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kImplies:
      case Opcode::kRelease:
        os << "@" << n.lhs << ", @" << n.rhs;
        break;
      case Opcode::kAbort:
        os << (n.strong ? "! " : " ") << "@" << n.lhs << " on @" << n.rhs;
        break;
      default:
        break;
    }
    if (n.subtree_lo != i) os << "   | subtree [" << n.subtree_lo << ".." << i << "]";
    if (is_dynamic(n.op)) os << "   | dyn#" << dyn_prefix_[i];
    if (std::find(antecedent_nodes_.begin(), antecedent_nodes_.end(), i) !=
        antecedent_nodes_.end()) {
      os << "   | ant";
    }
    os << "\n";
  }
}

// ---- Evaluation -------------------------------------------------------------

namespace {

using Frame = ProgramState::Frame;
using Slot = ProgramState::Slot;

// One step()/finish() dispatch over the flat node table. The recursion
// mirrors the obligation tree exactly (depth = formula height); all state
// updates go into the frame's slot array and the per-frame kid lists.
class Evaluator {
 public:
  Evaluator(const Program& prog, std::vector<std::vector<Frame>>* spare,
            const Event* ev, uint64_t stamp = 0,
            std::vector<uint64_t>* atom_stamp = nullptr,
            std::vector<uint8_t>* atom_val = nullptr)
      : prog_(prog),
        spare_(spare),
        ev_(ev),
        stamp_(stamp),
        atom_stamp_(atom_stamp),
        atom_val_(atom_val) {}

  uint8_t step(uint32_t n, Frame& f, uint32_t base) {
    Slot& s = f.slots[n - base];
    if (s.verdict != kVPend) return s.verdict;
    s.verdict = step_raw(n, f, base, s);
    return s.verdict;
  }

  uint8_t finish(uint32_t n, Frame& f, uint32_t base) {
    Slot& s = f.slots[n - base];
    if (s.verdict != kVPend) return s.verdict;
    s.verdict = finish_raw(n, f, base, s);
    return s.verdict;
  }

  // Moves every spawned sub-frame of `f` (whose base node is `base`) into
  // the free lists, leaving the kid vectors empty.
  void release_kids(Frame& f, uint32_t base) {
    for (size_t j = 0; j < f.kids.size(); ++j) {
      const uint32_t ord = prog_.dyn_before(base) + static_cast<uint32_t>(j);
      const bool fix = is_fixpoint(prog_.nodes()[prog_.dyn_node(ord)].op);
      std::vector<Frame>& vec = f.kids[j];
      for (size_t i = 0; i < vec.size(); ++i) {
        retire(ord * 2 + (fix ? static_cast<uint32_t>(i & 1) : 0),
               std::move(vec[i]));
      }
      vec.clear();
    }
  }

 private:
  // Shape of the frame with free-list key `key`: the operand subtree it
  // covers. side 1 is the rhs operand of a fixpoint.
  uint32_t frame_root(uint32_t key) const {
    const Program::ProgNode& dn = prog_.nodes()[prog_.dyn_node(key >> 1)];
    return (key & 1) ? dn.rhs : dn.lhs;
  }

  Frame acquire(uint32_t key) {
    // Purely boolean subtrees resolve at the anchor event and carry their
    // verdict in Frame::verdict alone: no slot or kid storage, nothing worth
    // recycling through the pool.
    if (prog_.nodes()[frame_root(key)].pure_bool) return Frame{};
    std::vector<Frame>& pool = (*spare_)[key];
    if (!pool.empty()) {
      Frame f = std::move(pool.back());
      pool.pop_back();
      std::fill(f.slots.begin(), f.slots.end(), Slot{});
      f.verdict = kVPend;
      return f;
    }
    const uint32_t r = frame_root(key);
    const uint32_t lo = prog_.nodes()[r].subtree_lo;
    Frame f;
    f.slots.resize(r - lo + 1);
    f.kids.resize(prog_.dyn_before(r + 1) - prog_.dyn_before(lo));
    return f;
  }

  void retire(uint32_t key, Frame&& f) {
    const uint32_t r = frame_root(key);
    if (prog_.nodes()[r].pure_bool) return;  // slotless, nothing to recycle
    release_kids(f, prog_.nodes()[r].subtree_lo);
    (*spare_)[key].push_back(std::move(f));
  }

  // Value of the deduplicated atom `k` at the current event: the owner's
  // slot-bound bit when it supplied one, else computed by name at most once
  // per step.
  bool atom_value(uint32_t k) {
    if (ev_->atoms != nullptr) return ev_->atoms[k] != 0;
    if (atom_stamp_ == nullptr) {
      return eval_atom(prog_.atoms()[k], *ev_->values);
    }
    uint64_t& st = (*atom_stamp_)[k];
    if (st != stamp_) {
      st = stamp_;
      (*atom_val_)[k] = eval_atom(prog_.atoms()[k], *ev_->values) ? 1 : 0;
    }
    return (*atom_val_)[k] != 0;
  }

  bool eval_bool(uint32_t n) {
    const Program::ProgNode& node = prog_.nodes()[n];
    switch (node.op) {
      case Program::Opcode::kConstTrue: return true;
      case Program::Opcode::kConstFalse: return false;
      case Program::Opcode::kAtom:
        return atom_value(node.atom);
      case Program::Opcode::kNot: return !eval_bool(node.lhs);
      case Program::Opcode::kAnd:
        return eval_bool(node.lhs) && eval_bool(node.rhs);
      case Program::Opcode::kOr:
        return eval_bool(node.lhs) || eval_bool(node.rhs);
      case Program::Opcode::kImplies:
        return !eval_bool(node.lhs) || eval_bool(node.rhs);
      default:
        assert(false && "abort condition must be boolean");
        return false;
    }
  }

  // Tries to resolve a fresh obligation at its anchor event using only the
  // purely boolean parts of the subtree, without any frame state. Returns
  // kVPend when the verdict genuinely needs a stateful frame; the caller
  // then falls back to a full step (atom evaluation is memoized per event,
  // so the partial work is not repeated). Writes no state, so the fallback
  // starts clean.
  uint8_t anchor_shortcut(uint32_t n) {
    const Program::ProgNode& node = prog_.nodes()[n];
    if (node.pure_bool) return eval_bool(n) ? kVTrue : kVFalse;
    switch (node.op) {
      case Program::Opcode::kOr: {
        const uint8_t l = anchor_shortcut(node.lhs);
        if (l == kVTrue) return kVTrue;
        const uint8_t r = anchor_shortcut(node.rhs);
        if (r == kVTrue) return kVTrue;
        return l == kVFalse && r == kVFalse ? kVFalse : kVPend;
      }
      case Program::Opcode::kAnd: {
        const uint8_t l = anchor_shortcut(node.lhs);
        if (l == kVFalse) return kVFalse;
        const uint8_t r = anchor_shortcut(node.rhs);
        if (r == kVFalse) return kVFalse;
        return l == kVTrue && r == kVTrue ? kVTrue : kVPend;
      }
      case Program::Opcode::kImplies: {
        const uint8_t l = anchor_shortcut(node.lhs);
        if (l == kVFalse) return kVTrue;
        const uint8_t r = anchor_shortcut(node.rhs);
        if (r == kVTrue) return kVTrue;
        return l == kVTrue && r == kVFalse ? kVFalse : kVPend;
      }
      default:
        return kVPend;
    }
  }

  uint8_t step_raw(uint32_t n, Frame& f, uint32_t base, Slot& s) {
    const Program::ProgNode& node = prog_.nodes()[n];
    // A purely boolean subtree is decided by the anchor event alone: evaluate
    // it directly, skipping the per-node slot recursion. The short-circuit
    // order of eval_bool matches the slot path exactly.
    if (node.pure_bool) return eval_bool(n) ? kVTrue : kVFalse;
    switch (node.op) {
      case Program::Opcode::kConstTrue:
        return kVTrue;
      case Program::Opcode::kConstFalse:
        return kVFalse;
      case Program::Opcode::kAtom:
        return atom_value(node.atom) ? kVTrue : kVFalse;
      case Program::Opcode::kNot:
        return not3(step(node.lhs, f, base));
      case Program::Opcode::kAnd: {
        // Short-circuit exactly like the interpreter: when the left operand
        // alone decides, the right subtree is never anchored.
        const uint8_t l = step(node.lhs, f, base);
        if (l == kVFalse) return kVFalse;
        return and3(l, step(node.rhs, f, base));
      }
      case Program::Opcode::kOr: {
        const uint8_t l = step(node.lhs, f, base);
        if (l == kVTrue) return kVTrue;
        return or3(l, step(node.rhs, f, base));
      }
      case Program::Opcode::kImplies: {
        const uint8_t l = step(node.lhs, f, base);
        if (l == kVFalse) return kVTrue;
        return or3(not3(l), step(node.rhs, f, base));
      }
      case Program::Opcode::kNext: {
        if (!(s.flags & 1)) {
          if (s.count < node.next_count) {
            ++s.count;
            return kVPend;
          }
          s.flags |= 1;  // operand anchors at this event
        }
        return step(node.lhs, f, base);
      }
      case Program::Opcode::kNextEps: {
        if (!(s.flags & 1)) {
          s.flags |= 1;
          s.target = ev_->time + node.eps;
          return kVPend;
        }
        if (s.flags & 2) return step(node.lhs, f, base);
        if (ev_->time < s.target) return kVPend;
        if (ev_->time > s.target) return kVFalse;
        s.flags |= 2;
        return step(node.lhs, f, base);
      }
      case Program::Opcode::kAbort: {
        if (eval_bool(node.rhs)) return node.strong ? kVFalse : kVTrue;
        s.flags |= 2;  // operand observed at least one event
        return step(node.lhs, f, base);
      }
      case Program::Opcode::kUntil:
      case Program::Opcode::kRelease:
        return fixpoint_step(n, node, f, base);
      case Program::Opcode::kAlways:
      case Program::Opcode::kEventually:
        return spawn_step(n, node, f, base);
    }
    assert(false && "unreachable");
    return kVPend;
  }

  uint8_t fixpoint_fold(const Program::ProgNode& node,
                        const std::vector<Frame>& kids, uint8_t rest) const {
    for (size_t i = kids.size(); i >= 2; i -= 2) {
      const uint8_t pv = kids[i - 2].verdict;
      const uint8_t qv = kids[i - 1].verdict;
      if (node.op == Program::Opcode::kUntil) {
        rest = or3(qv, and3(pv, rest));
      } else {
        rest = and3(qv, or3(pv, rest));
      }
    }
    return rest;
  }

  uint8_t fixpoint_step(uint32_t n, const Program::ProgNode& node, Frame& f,
                        uint32_t base) {
    const uint32_t ord = prog_.dyn_before(n);
    std::vector<Frame>& kids = f.kids[ord - prog_.dyn_before(base)];
    const uint32_t p_lo = prog_.nodes()[node.lhs].subtree_lo;
    const uint32_t q_lo = prog_.nodes()[node.rhs].subtree_lo;
    // Purely boolean operands resolve at their anchor event: their position
    // verdicts need no frame state at all, just the byte in Frame::verdict.
    const bool pure_p = prog_.nodes()[node.lhs].pure_bool;
    const bool pure_q = prog_.nodes()[node.rhs].pure_bool;
    for (size_t i = 0; i < kids.size(); i += 2) {
      Frame& pf = kids[i];
      Frame& qf = kids[i + 1];
      if (pf.verdict == kVPend) pf.verdict = step(node.lhs, pf, p_lo);
      if (qf.verdict == kVPend) qf.verdict = step(node.rhs, qf, q_lo);
    }
    kids.push_back(acquire(ord * 2));
    kids.push_back(acquire(ord * 2 + 1));
    Frame& pf = kids[kids.size() - 2];
    Frame& qf = kids.back();
    pf.verdict = pure_p ? (eval_bool(node.lhs) ? kVTrue : kVFalse)
                        : step(node.lhs, pf, p_lo);
    qf.verdict = pure_q ? (eval_bool(node.rhs) ? kVTrue : kVFalse)
                        : step(node.rhs, qf, q_lo);
    const uint8_t v = fixpoint_fold(node, kids, kVPend);
    if (v != kVPend) {
      for (size_t i = 0; i < kids.size(); ++i) {
        retire(ord * 2 + static_cast<uint32_t>(i & 1), std::move(kids[i]));
      }
      kids.clear();
    }
    return v;
  }

  uint8_t spawn_step(uint32_t n, const Program::ProgNode& node, Frame& f,
                     uint32_t base) {
    const uint32_t ord = prog_.dyn_before(n);
    std::vector<Frame>& kids = f.kids[ord - prog_.dyn_before(base)];
    const uint32_t c_lo = prog_.nodes()[node.lhs].subtree_lo;
    const bool is_always = node.op == Program::Opcode::kAlways;
    // Evaluate the fresh obligation first: most anchor events resolve it via
    // the frameless boolean shortcut (handshake-shaped bodies), so the
    // common case touches no frame at all. Atom evaluation is pure per
    // event, so the order relative to the older kids is unobservable.
    Frame fresh;
    bool have_frame = false;
    uint8_t fv = anchor_shortcut(node.lhs);
    if (fv == kVPend) {
      fresh = acquire(ord * 2);
      have_frame = true;
      fv = step(node.lhs, fresh, c_lo);
    }
    if ((is_always && fv == kVFalse) || (!is_always && fv == kVTrue)) {
      if (have_frame) retire(ord * 2, std::move(fresh));
      drop_all(ord, kids);
      return is_always ? kVFalse : kVTrue;
    }
    size_t i = 0;
    while (i < kids.size()) {
      const uint8_t v = step(node.lhs, kids[i], c_lo);
      if (v == (is_always ? kVFalse : kVTrue)) {
        if (have_frame) retire(ord * 2, std::move(fresh));
        drop_all(ord, kids);
        return v;
      }
      if (v != kVPend) {  // discharged obligation
        retire(ord * 2, std::move(kids[i]));
        kids.erase(kids.begin() + static_cast<ptrdiff_t>(i));
        continue;
      }
      ++i;
    }
    if (fv == kVPend) {
      kids.push_back(std::move(fresh));
    } else if (have_frame) {
      retire(ord * 2, std::move(fresh));
    }
    return kVPend;
  }

  void drop_all(uint32_t ord, std::vector<Frame>& kids) {
    for (Frame& k : kids) retire(ord * 2, std::move(k));
    kids.clear();
  }

  uint8_t finish_raw(uint32_t n, Frame& f, uint32_t base, Slot& s) {
    const Program::ProgNode& node = prog_.nodes()[n];
    switch (node.op) {
      case Program::Opcode::kConstTrue:
        return kVTrue;
      case Program::Opcode::kConstFalse:
        return kVFalse;
      case Program::Opcode::kAtom:
        return kVPend;  // never anchored
      case Program::Opcode::kNot:
        return not3(finish(node.lhs, f, base));
      case Program::Opcode::kAnd:
        return and3(finish(node.lhs, f, base), finish(node.rhs, f, base));
      case Program::Opcode::kOr:
        return or3(finish(node.lhs, f, base), finish(node.rhs, f, base));
      case Program::Opcode::kImplies:
        return or3(not3(finish(node.lhs, f, base)),
                   finish(node.rhs, f, base));
      case Program::Opcode::kNext:
        // Trace ended before the operand anchored: weak next, no failure.
        if (!(s.flags & 1)) return kVTrue;
        return finish(node.lhs, f, base);
      case Program::Opcode::kNextEps:
        if (!(s.flags & 2)) return kVTrue;
        return finish(node.lhs, f, base);
      case Program::Opcode::kAbort:
        if (!(s.flags & 2)) return kVTrue;
        return finish(node.lhs, f, base);
      case Program::Opcode::kUntil:
      case Program::Opcode::kRelease: {
        const uint32_t ord = prog_.dyn_before(n);
        std::vector<Frame>& kids = f.kids[ord - prog_.dyn_before(base)];
        const uint32_t p_lo = prog_.nodes()[node.lhs].subtree_lo;
        const uint32_t q_lo = prog_.nodes()[node.rhs].subtree_lo;
        for (size_t i = 0; i < kids.size(); i += 2) {
          Frame& pf = kids[i];
          Frame& qf = kids[i + 1];
          if (pf.verdict == kVPend) pf.verdict = finish(node.lhs, pf, p_lo);
          if (qf.verdict == kVPend) qf.verdict = finish(node.rhs, qf, q_lo);
        }
        const bool weak = node.op == Program::Opcode::kRelease || !node.strong;
        return fixpoint_fold(node, kids, weak ? kVTrue : kVFalse);
      }
      case Program::Opcode::kAlways:
      case Program::Opcode::kEventually: {
        const uint32_t ord = prog_.dyn_before(n);
        std::vector<Frame>& kids = f.kids[ord - prog_.dyn_before(base)];
        const uint32_t c_lo = prog_.nodes()[node.lhs].subtree_lo;
        const bool is_always = node.op == Program::Opcode::kAlways;
        for (Frame& k : kids) {
          const uint8_t v = finish(node.lhs, k, c_lo);
          if (is_always && v == kVFalse) return kVFalse;
          if (!is_always && v == kVTrue) return kVTrue;
        }
        return is_always ? kVTrue : kVFalse;
      }
    }
    assert(false && "unreachable");
    return kVPend;
  }

  const Program& prog_;
  std::vector<std::vector<Frame>>* spare_;
  const Event* ev_;
  uint64_t stamp_;
  std::vector<uint64_t>* atom_stamp_;
  std::vector<uint8_t>* atom_val_;
};

// Deadline collection is read-only; mirrors Node::collect_deadlines.
bool collect_node(const Program& prog, uint32_t n, const Frame& f,
                  uint32_t base, std::vector<psl::TimeNs>& out) {
  const Slot& s = f.slots[n - base];
  if (s.verdict != kVPend) return true;
  const Program::ProgNode& node = prog.nodes()[n];
  switch (node.op) {
    case Program::Opcode::kConstTrue:
    case Program::Opcode::kConstFalse:
      return true;
    case Program::Opcode::kAtom:
      return false;
    case Program::Opcode::kNot:
      return collect_node(prog, node.lhs, f, base, out);
    case Program::Opcode::kAnd:
    case Program::Opcode::kOr:
    case Program::Opcode::kImplies: {
      const bool a = collect_node(prog, node.lhs, f, base, out);
      const bool b = collect_node(prog, node.rhs, f, base, out);
      return a && b;
    }
    case Program::Opcode::kNext:
      if (!(s.flags & 1)) return false;
      return collect_node(prog, node.lhs, f, base, out);
    case Program::Opcode::kNextEps:
      if (s.flags & 2) return collect_node(prog, node.lhs, f, base, out);
      if (!(s.flags & 1)) return false;
      out.push_back(s.target);
      return true;
    default:
      // until/release/always/eventually/abort must observe every event.
      return false;
  }
}

}  // namespace

ProgramState::ProgramState(std::shared_ptr<const Program> program)
    : program_(std::move(program)) {
  assert(program_ != nullptr && program_->size() > 0);
  root_.slots.resize(program_->size());
  root_.kids.resize(program_->dynamic_count());
  spare_.resize(program_->dynamic_count() * 2);
  atom_stamp_.resize(program_->atoms().size(), 0);
  atom_val_.resize(program_->atoms().size(), 0);
}

Verdict ProgramState::step(const Event& ev) {
  ++stamp_;
  Evaluator e(*program_, &spare_, &ev, stamp_, &atom_stamp_, &atom_val_);
  return decode(e.step(program_->root(), root_, 0));
}

Verdict ProgramState::finish() {
  Evaluator e(*program_, &spare_, nullptr);
  return decode(e.finish(program_->root(), root_, 0));
}

bool ProgramState::collect_deadlines(std::vector<psl::TimeNs>& out) const {
  if (root_.slots[program_->root()].verdict != kVPend) return true;
  return collect_node(*program_, program_->root(), root_, 0, out);
}

void ProgramState::reset() {
  std::fill(root_.slots.begin(), root_.slots.end(), Slot{});
  Evaluator e(*program_, &spare_, nullptr);
  e.release_kids(root_, 0);
}

}  // namespace repro::checker
