#include "checker/batch.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace repro::checker {

namespace {

// Same verdict encoding as program.cc: kPending == 0, fresh planes are
// all-zeroes.
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

}  // namespace

ProgramBatch::ProgramBatch(std::shared_ptr<const Program> program)
    : program_(std::move(program)) {
  assert(program_ != nullptr);
  assert(supported(*program_));
  scratch_.resize(program_->size(), 0);
  for (uint32_t n = 0; n < program_->size(); ++n) {
    switch (program_->nodes()[n].op) {
      case Program::Opcode::kNext:
        scratch_[n] = count_words_++;
        break;
      case Program::Opcode::kNextEps:
        scratch_[n] = target_words_++;
        break;
      default:
        break;
    }
  }
}

BatchState::BatchState(std::shared_ptr<const ProgramBatch> layout)
    : layout_(std::move(layout)), prog_(&layout_->program()) {
  const size_t n = prog_->size();
  val_t_.resize(n, 0);
  val_f_.resize(n, 0);
  armed_.resize(n, 0);
  observed_.resize(n, 0);
  counts_.resize(size_t{layout_->count_words()} * kLanes, 0);
  targets_.resize(size_t{layout_->target_words()} * kLanes, 0);
  atom_stamp_.resize(prog_->atoms().size(), 0);
  atom_val_.resize(prog_->atoms().size(), 0);
}

uint32_t BatchState::allocate_lane() {
  assert(has_free_lane());
  const uint32_t lane = static_cast<uint32_t>(std::countr_one(allocated_));
  allocated_ |= uint64_t{1} << lane;
  return lane;
}

void BatchState::release_lane(uint32_t lane) {
  assert(lane < kLanes);
  assert(allocated_ & (uint64_t{1} << lane));
  reset_lane(lane);
  allocated_ &= ~(uint64_t{1} << lane);
}

void BatchState::reset_lane(uint32_t lane) {
  assert(lane < kLanes);
  const uint64_t keep = ~(uint64_t{1} << lane);
  for (size_t n = 0; n < val_t_.size(); ++n) {
    val_t_[n] &= keep;
    val_f_[n] &= keep;
    armed_[n] &= keep;
    observed_[n] &= keep;
  }
  for (size_t w = 0; w < layout_->count_words(); ++w) {
    counts_[w * kLanes + lane] = 0;
  }
  for (size_t w = 0; w < layout_->target_words(); ++w) {
    targets_[w * kLanes + lane] = 0;
  }
  primed_ &= keep;
  exercised_ &= keep;
}

bool BatchState::atom_value(uint32_t k) {
  if (ev_->atoms != nullptr) return ev_->atoms[k] != 0;  // slot-bound bit
  // Lane-uniform: every lane of a prime call shares the event, so the memo
  // is one value per atom per prime (the 64-wide analogue of ProgramState's
  // per-step atom memo).
  if (atom_stamp_[k] != stamp_) {
    atom_stamp_[k] = stamp_;
    atom_val_[k] = eval_atom(prog_->atoms()[k], *ev_->values) ? 1 : 0;
  }
  return atom_val_[k] != 0;
}

bool BatchState::eval_bool(uint32_t n) {
  const Program::ProgNode& node = prog_->nodes()[n];
  switch (node.op) {
    case Program::Opcode::kConstTrue: return true;
    case Program::Opcode::kConstFalse: return false;
    case Program::Opcode::kAtom: return atom_value(node.atom);
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

// The masked transcription of Evaluator::step/step_raw. `need` is the set of
// lanes whose parent steps this node at the current event; `todo` drops the
// lanes already resolved at an earlier event (the Slot::verdict memo). The
// rhs_need masks reproduce the scalar short-circuit order bit for bit — a
// lane whose left operand decides never anchors the right subtree.
void BatchState::step_node(uint32_t n, uint64_t need) {
  const uint64_t todo = need & ~(val_t_[n] | val_f_[n]);
  if (todo == 0) return;
  const Program::ProgNode& node = prog_->nodes()[n];
  if (node.pure_bool) {
    // Decided by the anchor event alone and identical across lanes: one
    // broadcast evaluation replaces up to 64 scalar eval_bool walks.
    if (eval_bool(n)) {
      val_t_[n] |= todo;
    } else {
      val_f_[n] |= todo;
    }
    return;
  }
  switch (node.op) {
    case Program::Opcode::kNot: {
      step_node(node.lhs, todo);
      val_t_[n] |= val_f_[node.lhs] & todo;
      val_f_[n] |= val_t_[node.lhs] & todo;
      return;
    }
    case Program::Opcode::kAnd: {
      step_node(node.lhs, todo);
      const uint64_t lt = val_t_[node.lhs] & todo;
      const uint64_t lf = val_f_[node.lhs] & todo;
      const uint64_t rhs_need = todo & ~lf;
      step_node(node.rhs, rhs_need);
      val_t_[n] |= lt & val_t_[node.rhs];
      val_f_[n] |= lf | (val_f_[node.rhs] & rhs_need);
      return;
    }
    case Program::Opcode::kOr: {
      step_node(node.lhs, todo);
      const uint64_t lt = val_t_[node.lhs] & todo;
      const uint64_t lf = val_f_[node.lhs] & todo;
      const uint64_t rhs_need = todo & ~lt;
      step_node(node.rhs, rhs_need);
      val_t_[n] |= lt | (val_t_[node.rhs] & rhs_need);
      val_f_[n] |= lf & val_f_[node.rhs];
      return;
    }
    case Program::Opcode::kImplies: {
      step_node(node.lhs, todo);
      const uint64_t lt = val_t_[node.lhs] & todo;
      const uint64_t lf = val_f_[node.lhs] & todo;
      const uint64_t rhs_need = todo & ~lf;
      step_node(node.rhs, rhs_need);
      val_t_[n] |= lf | (val_t_[node.rhs] & rhs_need);
      val_f_[n] |= lt & val_f_[node.rhs];
      return;
    }
    case Program::Opcode::kNext: {
      uint64_t child_need = todo & armed_[n];
      uint64_t counting = todo & ~armed_[n];
      while (counting != 0) {
        const uint32_t lane =
            static_cast<uint32_t>(std::countr_zero(counting));
        counting &= counting - 1;
        uint32_t& count = counts_[size_t{layout_->scratch(n)} * kLanes + lane];
        if (count < node.next_count) {
          ++count;  // still skipping: the lane stays pending this event
        } else {
          armed_[n] |= uint64_t{1} << lane;  // operand anchors here
          child_need |= uint64_t{1} << lane;
        }
      }
      step_node(node.lhs, child_need);
      val_t_[n] |= val_t_[node.lhs] & child_need;
      val_f_[n] |= val_f_[node.lhs] & child_need;
      return;
    }
    case Program::Opcode::kNextEps: {
      uint64_t child_need = 0;
      uint64_t pending = todo;
      while (pending != 0) {
        const uint32_t lane = static_cast<uint32_t>(std::countr_zero(pending));
        pending &= pending - 1;
        const uint64_t bit = uint64_t{1} << lane;
        if (!(armed_[n] & bit)) {  // anchor: schedule the required instant
          armed_[n] |= bit;
          targets_[size_t{layout_->scratch(n)} * kLanes + lane] =
              ev_->time + node.eps;
          continue;
        }
        if (observed_[n] & bit) {  // operand already anchored
          child_need |= bit;
          continue;
        }
        const psl::TimeNs target =
            targets_[size_t{layout_->scratch(n)} * kLanes + lane];
        if (ev_->time < target) continue;  // not due yet
        if (ev_->time > target) {          // missed the evaluation point
          val_f_[n] |= bit;
          continue;
        }
        observed_[n] |= bit;  // due exactly now: anchor the operand
        child_need |= bit;
      }
      step_node(node.lhs, child_need);
      val_t_[n] |= val_t_[node.lhs] & child_need;
      val_f_[n] |= val_f_[node.lhs] & child_need;
      return;
    }
    case Program::Opcode::kAbort: {
      // The abort condition is purely boolean, hence lane-uniform: one
      // evaluation decides every lane of the cohort.
      if (eval_bool(node.rhs)) {
        if (node.strong) {
          val_f_[n] |= todo;
        } else {
          val_t_[n] |= todo;
        }
        return;
      }
      observed_[n] |= todo;  // operand observed at least one event
      step_node(node.lhs, todo);
      val_t_[n] |= val_t_[node.lhs] & todo;
      val_f_[n] |= val_f_[node.lhs] & todo;
      return;
    }
    default:
      // Consts/atoms are pure_bool; dynamic ops are rejected by supported().
      assert(false && "unreachable opcode in lockstep kernel");
      return;
  }
}

void BatchState::prime(const Event& ev, uint64_t mask) {
  assert((mask & ~allocated_) == 0);
  if (mask == 0) return;
  ++stamp_;
  ev_ = &ev;
  step_node(prog_->root(), mask);
  ev_ = nullptr;
  primed_ |= mask;
}

Verdict BatchState::step_lane(const Event& ev, uint32_t lane) {
  assert(lane < kLanes);
  const uint64_t bit = uint64_t{1} << lane;
  if (!(primed_ & bit)) prime(ev, bit);
  // Consume the primed bit: a second step at the same event (a re-dued
  // eps == 0 entry) must re-advance the lane exactly like the scalar path.
  primed_ &= ~bit;
  return root_verdict(lane);
}

Verdict BatchState::root_verdict(uint32_t lane) const {
  const uint64_t bit = uint64_t{1} << lane;
  const uint32_t root = prog_->root();
  if (val_t_[root] & bit) return Verdict::kTrue;
  if (val_f_[root] & bit) return Verdict::kFalse;
  return Verdict::kPending;
}

// End-of-trace resolution mirrors Evaluator::finish/finish_raw: no pure_bool
// shortcut (an unanchored atom finishes pending, not at some absent event).
uint8_t BatchState::finish_node(uint32_t n, uint64_t bit) {
  if (val_t_[n] & bit) return kVTrue;
  if (val_f_[n] & bit) return kVFalse;
  const uint8_t v = finish_raw(n, bit);
  if (v == kVTrue) val_t_[n] |= bit;
  if (v == kVFalse) val_f_[n] |= bit;
  return v;
}

uint8_t BatchState::finish_raw(uint32_t n, uint64_t bit) {
  const Program::ProgNode& node = prog_->nodes()[n];
  switch (node.op) {
    case Program::Opcode::kConstTrue:
      return kVTrue;
    case Program::Opcode::kConstFalse:
      return kVFalse;
    case Program::Opcode::kAtom:
      return kVPend;  // never anchored
    case Program::Opcode::kNot:
      return not3(finish_node(node.lhs, bit));
    case Program::Opcode::kAnd:
      return and3(finish_node(node.lhs, bit), finish_node(node.rhs, bit));
    case Program::Opcode::kOr:
      return or3(finish_node(node.lhs, bit), finish_node(node.rhs, bit));
    case Program::Opcode::kImplies:
      return or3(not3(finish_node(node.lhs, bit)),
                 finish_node(node.rhs, bit));
    case Program::Opcode::kNext:
      // Trace ended before the operand anchored: weak next, no failure.
      if (!(armed_[n] & bit)) return kVTrue;
      return finish_node(node.lhs, bit);
    case Program::Opcode::kNextEps:
      if (!(observed_[n] & bit)) return kVTrue;
      return finish_node(node.lhs, bit);
    case Program::Opcode::kAbort:
      if (!(observed_[n] & bit)) return kVTrue;
      return finish_node(node.lhs, bit);
    default:
      assert(false && "unreachable opcode in lockstep kernel");
      return kVPend;
  }
}

Verdict BatchState::finish_lane(uint32_t lane) {
  assert(lane < kLanes);
  return decode(finish_node(prog_->root(), uint64_t{1} << lane));
}

bool BatchState::collect_node(uint32_t n, uint32_t lane,
                              std::vector<psl::TimeNs>& out) const {
  const uint64_t bit = uint64_t{1} << lane;
  if ((val_t_[n] | val_f_[n]) & bit) return true;
  const Program::ProgNode& node = prog_->nodes()[n];
  switch (node.op) {
    case Program::Opcode::kConstTrue:
    case Program::Opcode::kConstFalse:
      return true;
    case Program::Opcode::kAtom:
      return false;
    case Program::Opcode::kNot:
      return collect_node(node.lhs, lane, out);
    case Program::Opcode::kAnd:
    case Program::Opcode::kOr:
    case Program::Opcode::kImplies: {
      const bool a = collect_node(node.lhs, lane, out);
      const bool b = collect_node(node.rhs, lane, out);
      return a && b;
    }
    case Program::Opcode::kNext:
      if (!(armed_[n] & bit)) return false;
      return collect_node(node.lhs, lane, out);
    case Program::Opcode::kNextEps:
      if (observed_[n] & bit) return collect_node(node.lhs, lane, out);
      if (!(armed_[n] & bit)) return false;
      out.push_back(targets_[size_t{layout_->scratch(n)} * kLanes + lane]);
      return true;
    default:
      // abort must sample its condition at every event.
      return false;
  }
}

bool BatchState::collect_deadlines(uint32_t lane,
                                   std::vector<psl::TimeNs>& out) const {
  assert(lane < kLanes);
  const uint32_t root = prog_->root();
  if ((val_t_[root] | val_f_[root]) & (uint64_t{1} << lane)) return true;
  return collect_node(root, lane, out);
}

}  // namespace repro::checker
