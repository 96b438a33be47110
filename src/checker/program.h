// Compiled checker programs: the flat, allocation-light form of one
// property's obligation evaluation, and the only checker backend.
//
// Program::compile flattens a formula into a dense, topologically ordered
// node table (children precede parents; the root is the last node), one
// opcode per node. The program is immutable and shared: every checker
// instance of the property — across all wrapper pools and all evaluation
// engine shards — evaluates against the same table.
//
// Runtime state lives entirely in ProgramState: one flat Slot per program
// node (verdict cache + per-opcode scratch: skip counter, deadline, armed
// bits), so reset() is a memset-style fill. The four multi-instantiating
// operators (until/release spawn a (p, q) pair per position; always /
// eventually! spawn a child per event) keep per-activation sub-frames, each
// a flat slot vector over the operand's contiguous subtree range; retired
// sub-frames are recycled through per-shape free lists, so steady-state
// stepping allocates nothing. An until/release whose operands are both
// purely boolean spawns no frames at all: every earlier position left it
// pending and is neutral in the fixpoint, so the newest event alone decides
// it, and finish() folds its empty position list to the weak/strong default.
//
// Semantics are identical, event for event, to reference_eval (the
// declarative oracle); the ir test suite proves parity against it for the
// scalar form and the lockstep lanes of batch.h, and the ReportGolden suite
// pins whole-run JSON reports on the example designs.
#ifndef REPRO_CHECKER_PROGRAM_H_
#define REPRO_CHECKER_PROGRAM_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "checker/trace.h"
#include "psl/ast.h"

namespace repro::psl {
class ExprTable;
}

namespace repro::checker {

class Program {
 public:
  // Opcode = the expression kind; the compiled form keeps the operator
  // algebra and replaces the tree walk, not the semantics.
  using Opcode = psl::ExprKind;

  static constexpr uint32_t kNoNode = ~uint32_t{0};

  struct ProgNode {
    Opcode op = Opcode::kConstTrue;
    bool strong = false;       // until! / eventually! / abort!
    uint32_t lhs = kNoNode;    // child indices, always < own index
    uint32_t rhs = kNoNode;
    uint32_t subtree_lo = 0;   // this subtree occupies [subtree_lo, index]
    uint32_t next_count = 1;   // kNext
    psl::TimeNs eps = 0;       // kNextEps
    uint32_t atom = 0;         // index into atoms(), kAtom only
    // True when the subtree is purely boolean (no temporal operator): its
    // verdict is decided by its anchor event alone, so the evaluator can
    // compute it directly without per-node slot state or spawned frames.
    bool pure_bool = false;
  };

  // Compiles `formula` (shared subtrees are expanded: every occurrence has
  // its own runtime state).
  static std::shared_ptr<const Program> compile(const psl::ExprPtr& formula);
  // Same, from an interned id.
  static std::shared_ptr<const Program> compile(const psl::ExprTable& table,
                                                uint32_t id);

  const std::vector<ProgNode>& nodes() const { return nodes_; }
  const std::vector<psl::Atom>& atoms() const { return atoms_; }
  uint32_t root() const { return static_cast<uint32_t>(nodes_.size()) - 1; }
  size_t size() const { return nodes_.size(); }
  // Multi-instantiating (until/release/always/eventually) nodes.
  size_t dynamic_count() const { return dyn_nodes_.size(); }

  // Number of dynamic nodes with index < n (prefix count); the kid index of
  // a dynamic node inside a frame based at b is dyn_before(n) - dyn_before(b).
  uint32_t dyn_before(uint32_t n) const { return dyn_prefix_[n]; }
  // Node index of the dynamic node with the given ordinal.
  uint32_t dyn_node(uint32_t ordinal) const { return dyn_nodes_[ordinal]; }

  // Indices of every node inside an antecedent/guard subtree: for an
  // implication-shaped body (`a -> c`, or its NNF image `!a || c` with a
  // boolean disjunct guarding a temporal one) these are the nodes of the
  // boolean guard side, walked through nested guards on the consequent.
  // Empty when the body has no guard shape — every pass is real evidence.
  // Dual of psl-level derive_antecedent(); used for vacuity telemetry and
  // annotated in dump().
  const std::vector<uint32_t>& antecedent_nodes() const {
    return antecedent_nodes_;
  }

  // Human-readable program listing (one line per node, root last).
  void dump(std::ostream& os) const;

 private:
  friend class ProgramState;

  uint32_t emit(const psl::ExprPtr& e);
  void finalize();

  std::vector<ProgNode> nodes_;
  std::vector<psl::Atom> atoms_;
  std::vector<uint32_t> dyn_prefix_;  // size() + 1 entries
  std::vector<uint32_t> dyn_nodes_;
  std::vector<uint32_t> antecedent_nodes_;
};

// The boolean antecedent/guard of an implication-shaped body, or nullptr
// when the body has no such shape. Recognized shapes (NNF removes kImplies,
// so abstracted TLM bodies arrive as disjunctions):
//   a -> c          (boolean a)            guard a
//   !a || c, c || !a (boolean one side,
//                     temporal other)      guard = negation of the boolean
//                                          disjunct (the disjunct *failing*
//                                          is what forces c to be checked)
// Nested guards on the consequent conjoin: a -> (b -> c) yields a && b.
// The walk stops at the first temporal operator — guards buried under
// next/until are evaluated at later events and are out of scope (their
// passes count as real). A hold whose guard evaluated false at the anchor
// proves nothing (vacuous pass); see DESIGN.md §13.
psl::ExprPtr derive_antecedent(const psl::ExprPtr& body);

// Flat runtime state of one checker instance over a shared Program.
class ProgramState {
 public:
  explicit ProgramState(std::shared_ptr<const Program> program);

  Verdict step(const Event& ev);
  Verdict finish();
  bool collect_deadlines(std::vector<psl::TimeNs>& out) const;
  void reset();

  const Program& program() const { return *program_; }

  // One slot per program node. verdict encodes kPending as 0 so a fresh
  // frame is all-zeroes.
  struct Slot {
    uint8_t verdict = 0;  // 0 pending, 1 true, 2 false
    uint8_t flags = 0;    // bit 0: armed / anchored; bit 1: child armed
    uint32_t count = 0;   // kNext events skipped
    psl::TimeNs target = 0;  // kNextEps required evaluation instant
  };

  // A sub-instance: flat slots over one contiguous subtree range plus the
  // spawned sub-frames of any dynamic nodes inside that range. `verdict`
  // caches the sub-instance's resolved root verdict (the p_v/q_v of a
  // fixpoint position).
  struct Frame {
    uint8_t verdict = 0;
    std::vector<Slot> slots;
    std::vector<std::vector<Frame>> kids;
  };

 private:
  friend class ProgramEvaluator;

  std::shared_ptr<const Program> program_;
  Frame root_;
  // Recycled frames, keyed by shape: ordinal * 2 + side (side 1 = the rhs
  // operand frame of a fixpoint, side 0 otherwise).
  std::vector<std::vector<Frame>> spare_;
  // Per-event atom memo of the name path (events without Event::atoms): the
  // program dedups atoms, so each atom is evaluated at most once per step()
  // no matter how many frames reference it. An entry is valid when its
  // stamp equals the current step's stamp.
  std::vector<uint64_t> atom_stamp_;
  std::vector<uint8_t> atom_val_;
  uint64_t stamp_ = 0;
};

}  // namespace repro::checker

#endif  // REPRO_CHECKER_PROGRAM_H_
