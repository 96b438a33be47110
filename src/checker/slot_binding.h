// Slot-bound atoms: a checker's per-event atom evaluation over a positional
// observable dictionary (the fast path behind Event::atoms).
//
// Contexts built over a tlm::Snapshot — live TLM records, replayed trace-log
// records, the RTL sample buffer — expose a positional view (dictionary plus
// value array, see ValueContext::Positional). A checker owns one AtomSlots
// holding every deduplicated atom it evaluates: its program's atoms first,
// in program order (so bit k is Program atom k), then the atoms of its guard
// and derived antecedent. The first event over a dictionary binds each
// atom's signals to slot indices; later events over the same dictionary
// only do indexed loads, one compare per atom, into a byte array that
// ProgramState and BatchState read through Event::atoms. A different
// dictionary rebinds. The binding keeps a reference to the dictionary it was
// built over, so the address it compares against cannot be reused by a
// different dictionary while bound.
//
// A dictionary that lacks one of the property's observables fails the
// binding with an error naming the property and the observable; the owner
// then stops evaluating and its environment reports the error (RunResult::
// ingest_error). Contexts without a positional view (MapContext traces,
// tests, symbolic witness replay) keep the name path: load() returns nullptr
// and atoms are looked up by name.
#ifndef REPRO_CHECKER_SLOT_BINDING_H_
#define REPRO_CHECKER_SLOT_BINDING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checker/program.h"
#include "checker/trace.h"
#include "psl/ast.h"

namespace repro::checker {

// A boolean expression flattened to a post-order node list over atom bits
// (children precede parents, the root is last). Atoms are pure per event,
// so evaluating every node without short-circuiting gives the same value
// as eval_boolean.
class BoolCode {
 public:
  bool empty() const { return nodes_.empty(); }
  // Value of the expression at the event whose atom bits are `bits`.
  bool eval(const uint8_t* bits);

 private:
  friend class AtomSlots;
  struct Node {
    psl::ExprKind op;
    uint32_t lhs;  // atom index for kAtom, else child node index
    uint32_t rhs;
  };
  std::vector<Node> nodes_;
  std::vector<uint8_t> values_;  // per-node scratch, sized with nodes_
};

class AtomSlots {
 public:
  // Empties the table and seeds it with `program`'s atoms (none when
  // `program` is null); drops any binding and error.
  void reset(std::string property, const Program* program);

  // Registers every atom of `e` (temporal operators included), so binding
  // checks its observables.
  void add_atoms(const psl::ExprPtr& e);

  // Flattens boolean `e` over this table, registering its atoms.
  BoolCode compile(const psl::ExprPtr& e);

  // Atom bits of the event `ctx` describes, binding first when its
  // dictionary is new. nullptr on the name path (no positional view) and
  // after a failed binding (failed() is then true).
  const uint8_t* load(const ValueContext& ctx);

  bool failed() const { return !error_.empty(); }
  // "property 'p': observable 'x' missing from the record dictionary".
  const std::string& error() const { return error_; }

 private:
  // One atom bound to slots: lhs <op> (rhs slot or constant). kTruthy is
  // stored as `lhs != 0`.
  struct Bound {
    uint32_t lhs = 0;
    uint32_t rhs = 0;
    bool rhs_is_slot = false;
    psl::CmpOp op = psl::CmpOp::kNe;
    uint64_t rhs_value = 0;
  };

  uint32_t intern(const psl::Atom& atom);
  uint32_t emit(BoolCode& code, const psl::ExprPtr& e);
  bool bind(const std::shared_ptr<const Dictionary>& dictionary);

  std::string property_;
  std::vector<psl::Atom> atoms_;
  std::vector<Bound> bound_;
  std::shared_ptr<const Dictionary> dictionary_;  // bound dictionary
  bool is_bound_ = false;
  std::vector<uint8_t> bits_;
  std::string error_;
};

// The per-event activation logic PropertyChecker and TlmCheckerWrapper
// share: the property's slot-bound atoms plus the flat forms of its context
// guard, its derived antecedent and (when purely boolean) its body. Every
// query takes the bits load() returned, or nullptr for the name path.
class ActivationLogic {
 public:
  // `program` is null on the interpreter backend; the body's atoms are then
  // still registered, so binding checks every observable the body reads.
  // `guard` and `antecedent` may be null.
  void reset(std::string property, const Program* program,
             const psl::ExprPtr& body, const psl::ExprPtr& guard,
             const psl::ExprPtr& antecedent);

  // See AtomSlots::load.
  const uint8_t* load(const ValueContext& ctx) { return slots_.load(ctx); }
  bool failed() const { return slots_.failed(); }
  const std::string& error() const { return slots_.error(); }

  // The context guard at this event (true when there is none).
  bool guard(const uint8_t* bits, const ValueContext& values) {
    return eval(guard_, guard_code_, bits, values);
  }
  // The derived antecedent at this event, i.e. whether an activation here
  // exercises the consequent (true when the body has no guard shape).
  bool exercised(const uint8_t* bits, const ValueContext& values) {
    return eval(antecedent_, antecedent_code_, bits, values);
  }
  // The verdict an activation at this event reaches at its anchor without
  // instance state, or kPending when it needs an instance: kTrue when the
  // antecedent is false (the anchor lemma, DESIGN.md §17), the body's value
  // when the body is purely boolean.
  Verdict anchor_verdict(bool exercised, const uint8_t* bits,
                         const ValueContext& values);

 private:
  // `e` at this event; true when `e` is absent.
  bool eval(const psl::ExprPtr& e, BoolCode& code, const uint8_t* bits,
            const ValueContext& values);

  AtomSlots slots_;
  psl::ExprPtr guard_;
  psl::ExprPtr antecedent_;
  psl::ExprPtr boolean_body_;  // null unless the body is purely boolean
  BoolCode guard_code_;
  BoolCode antecedent_code_;
  BoolCode body_code_;
};

}  // namespace repro::checker

#endif  // REPRO_CHECKER_SLOT_BINDING_H_
