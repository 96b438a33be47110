#include "checker/instance.h"

#include <cassert>

namespace repro::checker {
namespace detail {
namespace {

using psl::ExprKind;
using psl::ExprPtr;

Verdict not3(Verdict v) {
  switch (v) {
    case Verdict::kTrue: return Verdict::kFalse;
    case Verdict::kFalse: return Verdict::kTrue;
    case Verdict::kPending: return Verdict::kPending;
  }
  return Verdict::kPending;
}

Verdict and3(Verdict a, Verdict b) {
  if (a == Verdict::kFalse || b == Verdict::kFalse) return Verdict::kFalse;
  if (a == Verdict::kPending || b == Verdict::kPending) return Verdict::kPending;
  return Verdict::kTrue;
}

Verdict or3(Verdict a, Verdict b) {
  if (a == Verdict::kTrue || b == Verdict::kTrue) return Verdict::kTrue;
  if (a == Verdict::kPending || b == Verdict::kPending) return Verdict::kPending;
  return Verdict::kFalse;
}

// Common resolved-verdict bookkeeping.
class NodeBase : public Node {
 public:
  Verdict step(const Event& ev) final {
    if (verdict_ == Verdict::kPending) verdict_ = on_step(ev);
    return verdict_;
  }
  Verdict finish() final {
    if (verdict_ == Verdict::kPending) verdict_ = on_finish();
    return verdict_;
  }
  bool collect_deadlines(std::vector<psl::TimeNs>& out) const final {
    if (verdict_ != Verdict::kPending) return true;
    return on_collect(out);
  }
  void reset() final {
    verdict_ = Verdict::kPending;
    on_reset();
  }

 protected:
  virtual Verdict on_step(const Event& ev) = 0;
  virtual Verdict on_finish() = 0;
  virtual bool on_collect(std::vector<psl::TimeNs>& out) const = 0;
  virtual void on_reset() = 0;

  Verdict verdict_ = Verdict::kPending;
};

class ConstNode : public NodeBase {
 public:
  explicit ConstNode(bool value) : value_(value) {}

 protected:
  Verdict on_step(const Event&) override {
    return value_ ? Verdict::kTrue : Verdict::kFalse;
  }
  Verdict on_finish() override {
    return value_ ? Verdict::kTrue : Verdict::kFalse;
  }
  bool on_collect(std::vector<psl::TimeNs>&) const override { return true; }
  void on_reset() override {}

 private:
  bool value_;
};

class AtomNode : public NodeBase {
 public:
  explicit AtomNode(const psl::Atom& atom) : atom_(atom) {}

 protected:
  Verdict on_step(const Event& ev) override {
    return eval_atom(atom_, *ev.values) ? Verdict::kTrue : Verdict::kFalse;
  }
  Verdict on_finish() override { return Verdict::kPending; }  // never anchored
  bool on_collect(std::vector<psl::TimeNs>&) const override { return false; }
  void on_reset() override {}

 private:
  const psl::Atom& atom_;
};

class NotNode : public NodeBase {
 public:
  explicit NotNode(const ExprPtr& operand) : child_(make_node(operand)) {}

 protected:
  Verdict on_step(const Event& ev) override { return not3(child_->step(ev)); }
  Verdict on_finish() override { return not3(child_->finish()); }
  bool on_collect(std::vector<psl::TimeNs>& out) const override {
    return child_->collect_deadlines(out);
  }
  void on_reset() override { child_->reset(); }

 private:
  std::unique_ptr<Node> child_;
};

// And / Or / Implies share the event-forwarding structure and differ only in
// the combination function.
class BinaryBoolNode : public NodeBase {
 public:
  BinaryBoolNode(ExprKind kind, const ExprPtr& lhs, const ExprPtr& rhs)
      : kind_(kind), lhs_(make_node(lhs)), rhs_(make_node(rhs)) {}

 protected:
  Verdict on_step(const Event& ev) override {
    // Short-circuit: when the left operand alone decides the verdict, the
    // right subtree is never anchored — its (fresh) state is irrelevant
    // because the whole node is resolved. This makes the dominant case of a
    // property whose antecedent is false at activation nearly free.
    const Verdict lhs = lhs_->step(ev);
    if (kind_ == ExprKind::kAnd && lhs == Verdict::kFalse) return Verdict::kFalse;
    if (kind_ == ExprKind::kOr && lhs == Verdict::kTrue) return Verdict::kTrue;
    if (kind_ == ExprKind::kImplies && lhs == Verdict::kFalse) return Verdict::kTrue;
    return combine(lhs, rhs_->step(ev));
  }
  Verdict on_finish() override {
    return combine(lhs_->finish(), rhs_->finish());
  }
  bool on_collect(std::vector<psl::TimeNs>& out) const override {
    const bool a = lhs_->collect_deadlines(out);
    const bool b = rhs_->collect_deadlines(out);
    return a && b;
  }
  void on_reset() override {
    lhs_->reset();
    rhs_->reset();
  }

 private:
  Verdict combine(Verdict a, Verdict b) const {
    switch (kind_) {
      case ExprKind::kAnd: return and3(a, b);
      case ExprKind::kOr: return or3(a, b);
      case ExprKind::kImplies: return or3(not3(a), b);
      default: break;
    }
    assert(false);
    return Verdict::kPending;
  }

  ExprKind kind_;
  std::unique_ptr<Node> lhs_;
  std::unique_ptr<Node> rhs_;
};

// next[n](p): skip n events after the anchor, then run p anchored there.
class NextNode : public NodeBase {
 public:
  NextNode(uint32_t n, const ExprPtr& operand) : n_(n), operand_(operand) {}

 protected:
  Verdict on_step(const Event& ev) override {
    if (!armed_child_) {
      if (skipped_ < n_) {
        ++skipped_;
        return Verdict::kPending;
      }
      if (!child_) child_ = make_node(operand_);
      armed_child_ = true;
    }
    return child_->step(ev);
  }
  Verdict on_finish() override {
    // Trace ended before the operand anchored: weak next, no failure.
    if (!armed_child_) return Verdict::kTrue;
    return child_->finish();
  }
  bool on_collect(std::vector<psl::TimeNs>& out) const override {
    // Counting events: the node must observe every event until the child is
    // anchored; afterwards the child decides.
    if (!armed_child_) return false;
    return child_->collect_deadlines(out);
  }
  void on_reset() override {
    skipped_ = 0;
    if (child_) child_->reset();
    armed_child_ = false;
  }

 private:
  uint32_t n_;
  const ExprPtr& operand_;
  uint32_t skipped_ = 0;
  std::unique_ptr<Node> child_;  // lazily built once, then reset in place
  bool armed_child_ = false;
};

// next_e[tau,eps](p): Def. III.3 / Sec. IV wrapper semantics. The operand
// must be evaluated at an event occurring exactly eps ns after the anchor;
// earlier events are ignored, and an event past the target without the
// target having been observed resolves to kFalse.
class NextEpsNode : public NodeBase {
 public:
  NextEpsNode(psl::TimeNs eps, const ExprPtr& operand)
      : eps_(eps), operand_(operand) {}

 protected:
  Verdict on_step(const Event& ev) override {
    if (!anchored_) {
      anchored_ = true;
      target_ = ev.time + eps_;
      return Verdict::kPending;
    }
    if (armed_child_) return child_->step(ev);
    if (ev.time < target_) return Verdict::kPending;
    if (ev.time > target_) return Verdict::kFalse;
    if (!child_) child_ = make_node(operand_);
    armed_child_ = true;
    return child_->step(ev);
  }
  Verdict on_finish() override {
    // Never evaluable before the end of the trace: weak, no failure.
    if (!armed_child_) return Verdict::kTrue;
    return child_->finish();
  }
  bool on_collect(std::vector<psl::TimeNs>& out) const override {
    if (armed_child_) return child_->collect_deadlines(out);
    if (!anchored_) return false;
    out.push_back(target_);
    return true;
  }
  void on_reset() override {
    anchored_ = false;
    target_ = 0;
    if (child_) child_->reset();
    armed_child_ = false;
  }

 private:
  psl::TimeNs eps_;
  const ExprPtr& operand_;
  bool anchored_ = false;
  psl::TimeNs target_ = 0;
  std::unique_ptr<Node> child_;  // lazily built once, then reset in place
  bool armed_child_ = false;
};

// until / release: one (p, q) child pair is spawned per position; the
// verdict is the Kleene fold matching reference_eval:
//   until:   q0 || (p0 && (q1 || (p1 && ...rest)))
//   release: q0 && (p0 || (q1 && (p1 || ...rest)))
// with rest = kPending while the trace is ongoing and the boundary verdict
// at finish().
class FixpointNode : public NodeBase {
 public:
  FixpointNode(ExprKind kind, bool strong, const ExprPtr& lhs, const ExprPtr& rhs)
      : kind_(kind), strong_(strong), lhs_(lhs), rhs_(rhs) {}

 protected:
  Verdict on_step(const Event& ev) override {
    for (auto& pos : positions_) {
      if (pos.p_v == Verdict::kPending) pos.p_v = pos.p->step(ev);
      if (pos.q_v == Verdict::kPending) pos.q_v = pos.q->step(ev);
    }
    positions_.emplace_back(lhs_, rhs_);
    Position& fresh = positions_.back();
    fresh.p_v = fresh.p->step(ev);
    fresh.q_v = fresh.q->step(ev);
    Verdict v = fold(Verdict::kPending);
    if (v != Verdict::kPending) positions_.clear();
    return v;
  }
  Verdict on_finish() override {
    for (auto& pos : positions_) {
      if (pos.p_v == Verdict::kPending) pos.p_v = pos.p->finish();
      if (pos.q_v == Verdict::kPending) pos.q_v = pos.q->finish();
    }
    const bool weak = kind_ == ExprKind::kRelease || !strong_;
    return fold(weak ? Verdict::kTrue : Verdict::kFalse);
  }
  bool on_collect(std::vector<psl::TimeNs>&) const override { return false; }
  void on_reset() override { positions_.clear(); }

 private:
  struct Position {
    Position(const ExprPtr& lhs, const ExprPtr& rhs)
        : p(make_node(lhs)), q(make_node(rhs)) {}
    std::unique_ptr<Node> p;
    std::unique_ptr<Node> q;
    Verdict p_v = Verdict::kPending;
    Verdict q_v = Verdict::kPending;
  };

  Verdict fold(Verdict rest) const {
    for (size_t i = positions_.size(); i-- > 0;) {
      const Position& pos = positions_[i];
      if (kind_ == ExprKind::kUntil) {
        rest = or3(pos.q_v, and3(pos.p_v, rest));
      } else {
        rest = and3(pos.q_v, or3(pos.p_v, rest));
      }
    }
    return rest;
  }

  ExprKind kind_;
  bool strong_;
  const ExprPtr& lhs_;
  const ExprPtr& rhs_;
  std::vector<Position> positions_;
};

// p abort b: the operand runs until the first event where the (boolean)
// abort condition holds; a still-pending obligation is then discharged as
// true (PSL async-reset semantics). The condition is checked before the
// operand consumes the event.
class AbortNode : public NodeBase {
 public:
  AbortNode(const ExprPtr& operand, const ExprPtr& condition, bool strong)
      : operand_(operand), condition_(condition),
        on_reset_(strong ? Verdict::kFalse : Verdict::kTrue) {}

 protected:
  Verdict on_step(const Event& ev) override {
    if (eval_boolean(condition_, *ev.values)) return on_reset_;
    if (!child_) child_ = make_node(operand_);
    return child_->step(ev);
  }
  Verdict on_finish() override {
    if (!child_) return Verdict::kTrue;
    return child_->finish();
  }
  bool on_collect(std::vector<psl::TimeNs>&) const override {
    // The abort condition must be sampled at every event.
    return false;
  }
  void on_reset() override {
    if (child_) child_->reset();
  }

 private:
  const ExprPtr& operand_;
  const ExprPtr& condition_;
  const Verdict on_reset_;
  std::unique_ptr<Node> child_;  // lazily built once, then reset in place
};

// always p / eventually! p: one child per position.
class SpawnNode : public NodeBase {
 public:
  SpawnNode(ExprKind kind, const ExprPtr& operand)
      : kind_(kind), operand_(operand) {}

 protected:
  Verdict on_step(const Event& ev) override {
    children_.push_back(make_node(operand_));
    Verdict worst = Verdict::kTrue;
    for (auto it = children_.begin(); it != children_.end();) {
      const Verdict v = (*it)->step(ev);
      if (kind_ == ExprKind::kAlways) {
        if (v == Verdict::kFalse) return Verdict::kFalse;
        if (v == Verdict::kTrue) {
          it = children_.erase(it);  // discharged obligation
          continue;
        }
      } else {  // eventually!
        if (v == Verdict::kTrue) return Verdict::kTrue;
        if (v == Verdict::kFalse) {
          it = children_.erase(it);
          continue;
        }
      }
      worst = Verdict::kPending;
      ++it;
    }
    (void)worst;
    return Verdict::kPending;  // never resolves positively while ongoing
  }
  Verdict on_finish() override {
    for (auto& child : children_) {
      const Verdict v = child->finish();
      if (kind_ == ExprKind::kAlways && v == Verdict::kFalse) return Verdict::kFalse;
      if (kind_ == ExprKind::kEventually && v == Verdict::kTrue) return Verdict::kTrue;
    }
    return kind_ == ExprKind::kAlways ? Verdict::kTrue : Verdict::kFalse;
  }
  bool on_collect(std::vector<psl::TimeNs>&) const override { return false; }
  void on_reset() override { children_.clear(); }

 private:
  ExprKind kind_;
  const ExprPtr& operand_;
  std::vector<std::unique_ptr<Node>> children_;
};

}  // namespace

std::unique_ptr<Node> make_node(const ExprPtr& e) {
  assert(e);
  switch (e->kind) {
    case ExprKind::kConstTrue:
      return std::make_unique<ConstNode>(true);
    case ExprKind::kConstFalse:
      return std::make_unique<ConstNode>(false);
    case ExprKind::kAtom:
      return std::make_unique<AtomNode>(e->atom);
    case ExprKind::kNot:
      return std::make_unique<NotNode>(e->lhs);
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kImplies:
      return std::make_unique<BinaryBoolNode>(e->kind, e->lhs, e->rhs);
    case ExprKind::kNext:
      return std::make_unique<NextNode>(e->next_count, e->lhs);
    case ExprKind::kNextEps:
      return std::make_unique<NextEpsNode>(e->eps, e->lhs);
    case ExprKind::kUntil:
      return std::make_unique<FixpointNode>(e->kind, e->strong, e->lhs, e->rhs);
    case ExprKind::kRelease:
      return std::make_unique<FixpointNode>(e->kind, /*strong=*/false, e->lhs,
                                            e->rhs);
    case ExprKind::kAlways:
    case ExprKind::kEventually:
      return std::make_unique<SpawnNode>(e->kind, e->lhs);
    case ExprKind::kAbort:
      return std::make_unique<AbortNode>(e->lhs, e->rhs, e->strong);
  }
  assert(false && "unreachable");
  return nullptr;
}

}  // namespace detail

Instance::Instance(psl::ExprPtr formula) : formula_(std::move(formula)) {
  assert(formula_);
  root_ = detail::make_node(formula_);
}

Instance::Instance(std::shared_ptr<const Program> program)
    : state_(std::in_place, std::move(program)) {}

Instance::Instance(std::shared_ptr<BatchState> block, uint32_t lane)
    : block_(std::move(block)), lane_(lane) {
  assert(block_ != nullptr);
  assert(block_->allocated() & (uint64_t{1} << lane_));
}

Instance::~Instance() {
  if (block_ != nullptr) block_->release_lane(lane_);
}

Verdict Instance::step(const Event& ev) {
  if (verdict_ != Verdict::kPending) return verdict_;
  verdict_ = block_   ? block_->step_lane(ev, lane_)
             : state_ ? state_->step(ev)
                      : root_->step(ev);
  return verdict_;
}

Verdict Instance::finish() {
  if (verdict_ != Verdict::kPending) return verdict_;
  verdict_ = block_   ? block_->finish_lane(lane_)
             : state_ ? state_->finish()
                      : root_->finish();
  return verdict_;
}

std::optional<psl::TimeNs> Instance::next_deadline(
    std::vector<psl::TimeNs>& deadlines) const {
  if (verdict_ != Verdict::kPending) return std::nullopt;
  deadlines.clear();
  const bool scheduled = block_   ? block_->collect_deadlines(lane_, deadlines)
                         : state_ ? state_->collect_deadlines(deadlines)
                                  : root_->collect_deadlines(deadlines);
  if (!scheduled || deadlines.empty()) {
    return std::nullopt;
  }
  psl::TimeNs best = deadlines.front();
  for (psl::TimeNs t : deadlines) best = std::min(best, t);
  return best;
}

void Instance::reset() {
  if (block_) {
    block_->reset_lane(lane_);
  } else if (state_) {
    state_->reset();
  } else {
    root_->reset();
  }
  verdict_ = Verdict::kPending;
  exercised_ = false;
}

}  // namespace repro::checker
