#include "checker/trace.h"

#include <cassert>

namespace repro::checker {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kTrue: return "true";
    case Verdict::kFalse: return "false";
    case Verdict::kPending: return "pending";
  }
  return "?";
}

uint64_t MapContext::value(std::string_view name) const {
  auto it = values_.find(std::string(name));
  assert(it != values_.end() && "signal not present in evaluation context");
  return it->second;
}

bool MapContext::has(std::string_view name) const {
  return values_.count(std::string(name)) != 0;
}

std::shared_ptr<const WitnessValues> MapContext::witness_values() const {
  auto values = std::make_shared<WitnessValues>();
  values->reserve(values_.size());
  for (const auto& [name, value] : values_) values->emplace_back(name, value);
  return values;
}

bool eval_atom(const psl::Atom& atom, const ValueContext& ctx) {
  const uint64_t lhs = ctx.value(atom.lhs);
  if (atom.op == psl::CmpOp::kTruthy) return lhs != 0;
  const uint64_t rhs =
      atom.rhs_is_signal ? ctx.value(atom.rhs_signal) : atom.rhs_value;
  return compare(atom.op, lhs, rhs);
}

bool eval_boolean(const psl::ExprPtr& e, const ValueContext& ctx) {
  assert(e && psl::is_boolean(e));
  switch (e->kind) {
    case psl::ExprKind::kConstTrue: return true;
    case psl::ExprKind::kConstFalse: return false;
    case psl::ExprKind::kAtom: return eval_atom(e->atom, ctx);
    case psl::ExprKind::kNot: return !eval_boolean(e->lhs, ctx);
    case psl::ExprKind::kAnd: return eval_boolean(e->lhs, ctx) && eval_boolean(e->rhs, ctx);
    case psl::ExprKind::kOr: return eval_boolean(e->lhs, ctx) || eval_boolean(e->rhs, ctx);
    case psl::ExprKind::kImplies:
      return !eval_boolean(e->lhs, ctx) || eval_boolean(e->rhs, ctx);
    default:
      assert(false && "eval_boolean applied to a temporal expression");
      return false;
  }
}

}  // namespace repro::checker
