#include "checker/slot_binding.h"

#include <algorithm>
#include <cassert>

namespace repro::checker {

bool BoolCode::eval(const uint8_t* bits) {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    uint8_t v = 0;
    switch (n.op) {
      case psl::ExprKind::kConstTrue: v = 1; break;
      case psl::ExprKind::kConstFalse: v = 0; break;
      case psl::ExprKind::kAtom: v = bits[n.lhs]; break;
      case psl::ExprKind::kNot: v = values_[n.lhs] ^ 1; break;
      case psl::ExprKind::kAnd: v = values_[n.lhs] & values_[n.rhs]; break;
      case psl::ExprKind::kOr: v = values_[n.lhs] | values_[n.rhs]; break;
      case psl::ExprKind::kImplies:
        v = (values_[n.lhs] ^ 1) | values_[n.rhs];
        break;
      default:
        assert(false && "BoolCode over a temporal expression");
        break;
    }
    values_[i] = v;
  }
  return values_.back() != 0;
}

void AtomSlots::reset(std::string property, const Program* program) {
  property_ = std::move(property);
  atoms_.clear();
  if (program != nullptr) atoms_ = program->atoms();
  bound_.clear();
  dictionary_.reset();
  is_bound_ = false;
  error_.clear();
}

uint32_t AtomSlots::intern(const psl::Atom& atom) {
  auto it = std::find(atoms_.begin(), atoms_.end(), atom);
  if (it == atoms_.end()) it = atoms_.insert(atoms_.end(), atom);
  is_bound_ = false;  // the new atom has no slot yet
  return static_cast<uint32_t>(it - atoms_.begin());
}

void AtomSlots::add_atoms(const psl::ExprPtr& e) {
  if (e == nullptr) return;
  if (e->kind == psl::ExprKind::kAtom) intern(e->atom);
  add_atoms(e->lhs);
  add_atoms(e->rhs);
}

uint32_t AtomSlots::emit(BoolCode& code, const psl::ExprPtr& e) {
  assert(psl::is_boolean(e));
  BoolCode::Node n{e->kind, 0, 0};
  if (e->kind == psl::ExprKind::kAtom) {
    n.lhs = intern(e->atom);
  } else {
    if (e->lhs) n.lhs = emit(code, e->lhs);
    if (e->rhs) n.rhs = emit(code, e->rhs);
  }
  code.nodes_.push_back(n);
  return static_cast<uint32_t>(code.nodes_.size()) - 1;
}

BoolCode AtomSlots::compile(const psl::ExprPtr& e) {
  BoolCode code;
  emit(code, e);
  code.values_.resize(code.nodes_.size());
  return code;
}

bool AtomSlots::bind(const std::shared_ptr<const Dictionary>& dictionary) {
  static const Dictionary kEmpty;
  const Dictionary& names = dictionary != nullptr ? *dictionary : kEmpty;
  const auto slot_of = [&](const std::string& name, uint32_t& slot) {
    // First match, like tlm::Snapshot::get.
    auto it = std::find(names.begin(), names.end(), name);
    if (it == names.end()) {
      error_ = "property '" + property_ + "': observable '" + name +
               "' missing from the record dictionary";
      return false;
    }
    slot = static_cast<uint32_t>(it - names.begin());
    return true;
  };
  bound_.assign(atoms_.size(), Bound{});
  for (size_t k = 0; k < atoms_.size(); ++k) {
    const psl::Atom& atom = atoms_[k];
    Bound& b = bound_[k];
    if (!slot_of(atom.lhs, b.lhs)) return false;
    if (atom.op == psl::CmpOp::kTruthy) continue;  // lhs != 0
    b.op = atom.op;
    b.rhs_is_slot = atom.rhs_is_signal;
    b.rhs_value = atom.rhs_value;
    if (atom.rhs_is_signal && !slot_of(atom.rhs_signal, b.rhs)) return false;
  }
  bits_.assign(std::max<size_t>(1, atoms_.size()), 0);
  dictionary_ = dictionary;
  is_bound_ = true;
  return true;
}

const uint8_t* AtomSlots::load(const ValueContext& ctx) {
  const ValueContext::Positional& view = ctx.positional();
  if (view.dictionary == nullptr || failed()) return nullptr;
  if (!is_bound_ || dictionary_.get() != view.dictionary->get()) {
    if (!bind(*view.dictionary)) return nullptr;
  }
  const uint64_t* values = view.values;
  for (size_t k = 0; k < bound_.size(); ++k) {
    const Bound& b = bound_[k];
    const uint64_t rhs = b.rhs_is_slot ? values[b.rhs] : b.rhs_value;
    bits_[k] = compare(b.op, values[b.lhs], rhs) ? 1 : 0;
  }
  return bits_.data();
}

void ActivationLogic::reset(std::string property, const Program* program,
                            const psl::ExprPtr& body, const psl::ExprPtr& guard,
                            const psl::ExprPtr& antecedent) {
  slots_.reset(std::move(property), program);
  if (program == nullptr) slots_.add_atoms(body);
  guard_ = guard;
  antecedent_ = antecedent;
  boolean_body_ = psl::is_boolean(body) ? body : nullptr;
  guard_code_ = guard_ ? slots_.compile(guard_) : BoolCode{};
  antecedent_code_ = antecedent_ ? slots_.compile(antecedent_) : BoolCode{};
  body_code_ = boolean_body_ ? slots_.compile(boolean_body_) : BoolCode{};
}

bool ActivationLogic::eval(const psl::ExprPtr& e, BoolCode& code,
                           const uint8_t* bits, const ValueContext& values) {
  if (e == nullptr) return true;
  return bits != nullptr ? code.eval(bits) : eval_boolean(e, values);
}

Verdict ActivationLogic::anchor_verdict(bool exercised, const uint8_t* bits,
                                        const ValueContext& values) {
  // Every guard shape derive_antecedent() recognizes resolves kTrue at the
  // anchor when its guard is false there.
  if (!exercised) return Verdict::kTrue;
  if (boolean_body_ == nullptr) return Verdict::kPending;
  return eval(boolean_body_, body_code_, bits, values) ? Verdict::kTrue
                                                      : Verdict::kFalse;
}

}  // namespace repro::checker
