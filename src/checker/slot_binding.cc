#include "checker/slot_binding.h"

#include <algorithm>
#include <cassert>

namespace repro::checker {

uint32_t AtomTable::intern(const Cell& cell) {
  auto it = std::find(cells_.begin(), cells_.end(), cell);
  if (it != cells_.end()) return static_cast<uint32_t>(it - cells_.begin());
  cells_.push_back(cell);
  is_bound_ = false;  // the new slot has no value yet
  return static_cast<uint32_t>(cells_.size()) - 1;
}

uint32_t AtomTable::atom(const psl::Atom& atom) {
  auto it = std::find(atoms_.begin(), atoms_.end(), atom);
  if (it == atoms_.end()) it = atoms_.insert(atoms_.end(), atom);
  return intern({psl::ExprKind::kAtom,
                 static_cast<uint32_t>(it - atoms_.begin()), 0});
}

uint32_t AtomTable::boolean(const psl::ExprPtr& e) {
  assert(psl::is_boolean(e));
  if (e->kind == psl::ExprKind::kAtom) return atom(e->atom);
  Cell cell{e->kind, 0, 0};
  if (e->lhs) cell.lhs = boolean(e->lhs);
  if (e->rhs) cell.rhs = boolean(e->rhs);
  return intern(cell);
}

void AtomTable::bind(const std::shared_ptr<const Dictionary>& dictionary) {
  static const Dictionary kEmpty;
  const Dictionary& names = dictionary != nullptr ? *dictionary : kEmpty;
  // First match, like tlm::Snapshot::get.
  const auto slot_of = [&](const std::string& name, uint32_t& slot) {
    auto it = std::find(names.begin(), names.end(), name);
    if (it == names.end()) return false;
    slot = static_cast<uint32_t>(it - names.begin());
    return true;
  };
  bound_.assign(atoms_.size(), Bound{});
  for (size_t k = 0; k < atoms_.size(); ++k) {
    const psl::Atom& atom = atoms_[k];
    Bound& b = bound_[k];
    if (!slot_of(atom.lhs, b.lhs)) {
      b.missing = Bound::Missing::kLhs;
      continue;
    }
    if (atom.op == psl::CmpOp::kTruthy) continue;  // lhs != 0
    b.op = atom.op;
    b.rhs_is_slot = atom.rhs_is_signal;
    b.rhs_value = atom.rhs_value;
    if (atom.rhs_is_signal && !slot_of(atom.rhs_signal, b.rhs)) {
      b.missing = Bound::Missing::kRhs;
    }
  }
  bits_.assign(std::max<size_t>(1, cells_.size()), 0);
  dictionary_ = dictionary;
  is_bound_ = true;
  ++generation_;
}

const std::string* AtomTable::missing(uint32_t slot) const {
  const Cell& cell = cells_[slot];
  assert(is_bound_ && cell.op == psl::ExprKind::kAtom);
  const psl::Atom& atom = atoms_[cell.lhs];
  switch (bound_[cell.lhs].missing) {
    case Bound::Missing::kNone: return nullptr;
    case Bound::Missing::kLhs: return &atom.lhs;
    case Bound::Missing::kRhs: return &atom.rhs_signal;
  }
  return nullptr;
}

const uint8_t* AtomTable::load(const ValueContext& ctx) {
  const ValueContext::Positional& view = ctx.positional();
  if (view.dictionary == nullptr) return current_ = nullptr;
  if (!is_bound_ || dictionary_.get() != view.dictionary->get()) {
    bind(*view.dictionary);
  }
  const uint64_t* values = view.values;
  uint8_t* bits = bits_.data();
  for (size_t i = 0; i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    uint8_t v = 0;
    switch (c.op) {
      case psl::ExprKind::kAtom: {
        // An atom over a missing signal reads nothing; no bound property
        // reads its bit.
        const Bound& b = bound_[c.lhs];
        if (b.missing != Bound::Missing::kNone) break;
        const uint64_t rhs = b.rhs_is_slot ? values[b.rhs] : b.rhs_value;
        v = compare(b.op, values[b.lhs], rhs) ? 1 : 0;
        break;
      }
      case psl::ExprKind::kConstTrue: v = 1; break;
      case psl::ExprKind::kConstFalse: v = 0; break;
      case psl::ExprKind::kNot: v = bits[c.lhs] ^ 1; break;
      case psl::ExprKind::kAnd: v = bits[c.lhs] & bits[c.rhs]; break;
      case psl::ExprKind::kOr: v = bits[c.lhs] | bits[c.rhs]; break;
      case psl::ExprKind::kImplies: v = (bits[c.lhs] ^ 1) | bits[c.rhs]; break;
      default:
        assert(false && "AtomTable over a temporal expression");
        break;
    }
    bits[i] = v;
  }
  return current_ = bits;
}

void ActivationLogic::add_atoms(const psl::ExprPtr& e) {
  if (e == nullptr) return;
  if (e->kind == psl::ExprKind::kAtom) {
    const uint32_t slot = table_->atom(e->atom);
    if (std::find(atoms_.begin(), atoms_.end(), slot) == atoms_.end()) {
      atoms_.push_back(slot);
    }
  }
  add_atoms(e->lhs);
  add_atoms(e->rhs);
}

void ActivationLogic::reset(AtomTable& table, std::string property,
                            const Program& program, const psl::ExprPtr& body,
                            const psl::ExprPtr& guard,
                            const psl::ExprPtr& antecedent) {
  table_ = &table;
  property_ = std::move(property);
  program_atoms_.clear();
  for (const psl::Atom& atom : program.atoms()) {
    program_atoms_.push_back(table.atom(atom));
  }
  atoms_ = program_atoms_;
  gathered_.assign(std::max<size_t>(1, program_atoms_.size()), 0);
  guard_ = guard;
  antecedent_ = antecedent;
  boolean_body_ = psl::is_boolean(body) ? body : nullptr;
  for (const psl::ExprPtr* e : {&guard_, &antecedent_, &boolean_body_}) {
    add_atoms(*e);
  }
  guard_slot_ = guard_ ? table.boolean(guard_) : 0;
  antecedent_slot_ = antecedent_ ? table.boolean(antecedent_) : 0;
  body_slot_ = boolean_body_ ? table.boolean(boolean_body_) : 0;
  checked_generation_ = 0;
  error_.clear();
}

bool ActivationLogic::check_binding() {
  checked_generation_ = table_->generation();
  for (uint32_t slot : atoms_) {
    if (const std::string* name = table_->missing(slot)) {
      error_ = "property '" + property_ + "': observable '" + *name +
               "' missing from the record dictionary";
      return false;
    }
  }
  return true;
}

const uint8_t* ActivationLogic::program_bits(const uint8_t* bits) {
  if (bits == nullptr) return nullptr;
  for (size_t k = 0; k < program_atoms_.size(); ++k) {
    gathered_[k] = bits[program_atoms_[k]];
  }
  return gathered_.data();
}

}  // namespace repro::checker
