// Slot-bound atoms: the per-record atom and boolean evaluation an
// environment does once for every property it checks (the fast path behind
// Event::atoms).
//
// Contexts built over a tlm::Snapshot — live TLM records, replayed trace-log
// records, the RTL sample buffer — expose a positional view (dictionary plus
// value array, see ValueContext::Positional). An AtomTable holds the union
// of the deduplicated atoms of every property registered with it, plus the
// flat boolean forms of their context guards, derived antecedents and purely
// boolean bodies, shared node by node. The first record over a dictionary
// binds each atom's signals to slot indices; later records over the same
// dictionary only do indexed loads, one compare per atom and one operation
// per boolean node, into one byte array. A different dictionary rebinds.
// The binding keeps a reference to the dictionary it was built over, so the
// address it compares against cannot be reused by a different dictionary
// while bound.
//
// Each property reads its own bits through an ActivationLogic over the
// table: its guard, antecedent and boolean body are single slots, and its
// program's atom bits are gathered into program order only at records where
// one of its instances steps. An environment (or each engine shard, or the
// RTL environment) owns one table; a checker used on its own owns a private
// one, with the same binding and evaluation code.
//
// A dictionary that lacks one of a property's observables fails that
// property's binding with an error naming the property and its first
// missing observable (program atoms in program order first, then guard,
// antecedent and body atoms; an atom's left signal before its right one).
// The owner then stops evaluating and its environment reports the error
// (RunResult::ingest_error). The table itself never fails: atoms over
// missing signals are not compared, and no property that reads them is
// bound. Contexts without a positional view (MapContext traces, tests,
// symbolic witness replay) keep the name path: load() returns nullptr and
// atoms are looked up by name.
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

class AtomTable {
 public:
  // Slot of `atom`'s bit, registering it on first use. Registering after a
  // load drops the binding; the next load rebinds.
  uint32_t atom(const psl::Atom& atom);
  // Slot of boolean `e`'s value, registering its atoms and every operator
  // node that is not already in the table.
  uint32_t boolean(const psl::ExprPtr& e);

  // Evaluates every registered atom and boolean node at the record `ctx`
  // describes, binding first when its dictionary is new. Returns the bits
  // (indexed by slot), or nullptr on the name path (no positional view).
  const uint8_t* load(const ValueContext& ctx);
  // The last load's result.
  const uint8_t* bits() const { return current_; }
  // Bumped by every binding, so a reader can tell a rebind happened.
  uint64_t generation() const { return generation_; }
  // First observable of the atom in `slot` that the bound dictionary lacks,
  // or nullptr when it has them all.
  const std::string* missing(uint32_t slot) const;

 private:
  // One slot: an atom (lhs indexes atoms_) or an operator over earlier
  // slots. Children are registered before their parents, so one pass in
  // slot order evaluates everything.
  struct Cell {
    psl::ExprKind op;
    uint32_t lhs = 0;
    uint32_t rhs = 0;
    bool operator==(const Cell&) const = default;
  };
  // One atom bound to slots: lhs <op> (rhs slot or constant). kTruthy is
  // stored as `lhs != 0`.
  struct Bound {
    uint32_t lhs = 0;
    uint32_t rhs = 0;
    bool rhs_is_slot = false;
    psl::CmpOp op = psl::CmpOp::kNe;
    uint64_t rhs_value = 0;
    enum class Missing : uint8_t { kNone, kLhs, kRhs } missing = Missing::kNone;
  };

  uint32_t intern(const Cell& cell);
  void bind(const std::shared_ptr<const Dictionary>& dictionary);

  std::vector<Cell> cells_;
  std::vector<psl::Atom> atoms_;
  std::vector<Bound> bound_;  // parallel to atoms_ while bound
  std::shared_ptr<const Dictionary> dictionary_;  // bound dictionary
  bool is_bound_ = false;
  uint64_t generation_ = 0;
  std::vector<uint8_t> bits_;
  const uint8_t* current_ = nullptr;
};

// One property's view of an AtomTable: the slots of its atoms, context
// guard, derived antecedent and (when purely boolean) body, and the queries
// PropertyChecker makes at each record. Every query takes the bits bits()
// returned, or nullptr for the name path.
class ActivationLogic {
 public:
  // Registers the property with `table`: `program` is the compiled `body`,
  // whose atoms binding checks first. `guard` and `antecedent` may be null.
  // The table must outlive this view.
  void reset(AtomTable& table, std::string property, const Program& program,
             const psl::ExprPtr& body, const psl::ExprPtr& guard,
             const psl::ExprPtr& antecedent);

  // The table's bits for its last loaded record once this property's atoms
  // are bound to its dictionary. nullptr on the name path and after a failed
  // binding (failed() is then true).
  const uint8_t* bits() {
    const uint8_t* bits = table_->bits();
    if (bits == nullptr || failed()) return nullptr;
    if (checked_generation_ != table_->generation() && !check_binding()) {
      return nullptr;
    }
    return bits;
  }
  bool failed() const { return !error_.empty(); }
  // "property 'p': observable 'x' missing from the record dictionary".
  const std::string& error() const { return error_; }

  // The context guard at this record (true when there is none).
  bool guard(const uint8_t* bits, const ValueContext& values) const {
    return eval(guard_, guard_slot_, bits, values);
  }
  // The derived antecedent at this record, i.e. whether an activation here
  // exercises the consequent (true when the body has no guard shape).
  bool exercised(const uint8_t* bits, const ValueContext& values) const {
    return eval(antecedent_, antecedent_slot_, bits, values);
  }
  // The verdict an activation at this record reaches at its anchor without
  // instance state, or kPending when it needs an instance: kTrue when the
  // antecedent is false (the anchor lemma, DESIGN.md §17), the body's value
  // when the body is purely boolean.
  Verdict anchor_verdict(bool exercised, const uint8_t* bits,
                         const ValueContext& values) const {
    // Every guard shape derive_antecedent() recognizes resolves kTrue at the
    // anchor when its guard is false there.
    if (!exercised) return Verdict::kTrue;
    if (boolean_body_ == nullptr) return Verdict::kPending;
    return eval(boolean_body_, body_slot_, bits, values) ? Verdict::kTrue
                                                        : Verdict::kFalse;
  }

  // The program's atom bits at this record, in program atom order (what
  // Event::atoms carries), gathered from `bits`; nullptr when `bits` is
  // (the name path).
  const uint8_t* program_bits(const uint8_t* bits);

 private:
  // `e` at this record; true when `e` is absent.
  static bool eval(const psl::ExprPtr& e, uint32_t slot, const uint8_t* bits,
                   const ValueContext& values) {
    if (e == nullptr) return true;
    return bits != nullptr ? bits[slot] != 0 : eval_boolean(e, values);
  }
  void add_atoms(const psl::ExprPtr& e);
  bool check_binding();

  AtomTable* table_ = nullptr;
  std::string property_;
  // Slots of the property's atoms in binding-check order (program atoms
  // first), and of the program's atoms in program order.
  std::vector<uint32_t> atoms_;
  std::vector<uint32_t> program_atoms_;
  std::vector<uint8_t> gathered_;  // program_bits() output
  psl::ExprPtr guard_;
  psl::ExprPtr antecedent_;
  psl::ExprPtr boolean_body_;  // null unless the body is purely boolean
  uint32_t guard_slot_ = 0;
  uint32_t antecedent_slot_ = 0;
  uint32_t body_slot_ = 0;
  uint64_t checked_generation_ = 0;  // table binding this property checked
  std::string error_;
};

}  // namespace repro::checker

#endif  // REPRO_CHECKER_SLOT_BINDING_H_
