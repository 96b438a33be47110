// Vectorized 64-wide lockstep evaluation over a shared checker Program.
//
// The compiled backend (program.h) advances one instance per step() call;
// under a wrapper a transaction typically makes *many* instances of the same
// property due at once (the deadline cohort of Sec. IV point 2). The batch
// backend packs the per-instance boolean node state into one 64-bit word per
// program node — bit i belongs to lane i — so a single masked pass over the
// post-order node table advances up to 64 pending instances in lockstep, and
// each atom / purely boolean subtree is evaluated once per event and
// broadcast to every lane instead of once per instance.
//
// Scope: only programs without dynamic (frame-spawning) nodes are supported
// — ProgramBatch::supported() is exactly `dynamic_count() == 0`. That covers
// the wrapper's abstracted next_e properties and the handshake-shaped RTL
// bodies; until/release/always/eventually bodies keep the scalar compiled
// backend (the wrapper falls back per property, not per instance).
//
// Semantics: the masked kernel mirrors program.cc's Evaluator *exactly*,
// including its short-circuit order — a subtree is only advanced for the
// lanes whose parent actually steps it, because short-circuiting controls
// when a subtree anchors, not just how much work is done. The need-mask
// recursion (todo / rhs_need) is therefore the bitwise transcription of the
// scalar control flow, and the ir/vector test suites prove three-way parity
// against the interpreter and the scalar compiled backend.
//
// Priming protocol: a caller that knows a cohort of lanes will all consume
// the same event calls prime(ev, mask) once; each lane's owner then calls
// step_lane(ev, lane), which consumes the lane's primed bit without
// re-evaluating. A step_lane() without a prior prime primes just that lane,
// so scalar bookkeeping loops need no special cases — re-dued instances
// (eps == 0 pathologies) self-prime and observe the same double-step the
// scalar path does.
#ifndef REPRO_CHECKER_BATCH_H_
#define REPRO_CHECKER_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "checker/program.h"
#include "checker/trace.h"
#include "psl/ast.h"

namespace repro::checker {

// Immutable per-Program layout shared by every BatchState of a property:
// maps each counter-carrying node (next / next_e) to a dense scratch ordinal
// so per-lane counters and deadline targets live in flat arrays.
class ProgramBatch {
 public:
  explicit ProgramBatch(std::shared_ptr<const Program> program);

  // A program is vectorizable iff it spawns no per-activation frames; every
  // remaining opcode keeps its whole state in one bit, one counter or one
  // deadline per lane. abort is supported: its condition is purely boolean
  // and lane-uniform, and its "observed" bit is plane state.
  static bool supported(const Program& program) {
    return program.dynamic_count() == 0;
  }

  const Program& program() const { return *program_; }
  const std::shared_ptr<const Program>& shared_program() const {
    return program_;
  }
  // Dense ordinal of node n's per-lane scratch (counts for kNext, targets
  // for kNextEps); only meaningful for those opcodes.
  uint32_t scratch(uint32_t n) const { return scratch_[n]; }
  uint32_t count_words() const { return count_words_; }
  uint32_t target_words() const { return target_words_; }

 private:
  std::shared_ptr<const Program> program_;
  std::vector<uint32_t> scratch_;  // one entry per node
  uint32_t count_words_ = 0;       // number of kNext nodes
  uint32_t target_words_ = 0;      // number of kNextEps nodes
};

// Runtime state of up to 64 checker instances (lanes) of one program.
// Four bit-planes per node replace ProgramState's Slot fields:
//   val_t_/val_f_  <-> Slot::verdict (neither bit set = pending)
//   armed_         <-> Slot::flags bit 0 (anchored / operand armed)
//   observed_      <-> Slot::flags bit 1 (child armed / event observed)
// plus per-lane scalar scratch for kNext counters and kNextEps targets.
class BatchState {
 public:
  static constexpr uint32_t kLanes = 64;

  explicit BatchState(std::shared_ptr<const ProgramBatch> layout);

  // --- lane management ------------------------------------------------------
  bool has_free_lane() const { return allocated_ != ~uint64_t{0}; }
  // Lowest free lane; must not be called when has_free_lane() is false.
  uint32_t allocate_lane();
  // Returns the lane to the block (fresh state, available for reallocation).
  void release_lane(uint32_t lane);
  uint64_t allocated() const { return allocated_; }

  // --- lockstep evaluation --------------------------------------------------
  // Advances every lane in `mask` by one event in a single masked pass and
  // marks them primed. All lanes of a prime call share the event, so atoms
  // and pure-boolean subtrees are evaluated once and broadcast.
  void prime(const Event& ev, uint64_t mask);
  // Verdict of `lane` after consuming `ev`: uses the primed result when the
  // lane was primed for this event, else primes the single lane first.
  Verdict step_lane(const Event& ev, uint32_t lane);
  // End-of-trace resolution for one lane (truncated semantics).
  Verdict finish_lane(uint32_t lane);
  // Mirrors ProgramState::collect_deadlines for one lane.
  bool collect_deadlines(uint32_t lane, std::vector<psl::TimeNs>& out) const;
  // Restores the lane's fresh (pre-anchor) state; the lane stays allocated.
  void reset_lane(uint32_t lane);

  Verdict root_verdict(uint32_t lane) const;
  uint64_t primed() const { return primed_; }
  const ProgramBatch& layout() const { return *layout_; }

  // --- vacuity telemetry ----------------------------------------------------
  // "Consequent exercised" bit plane, one bit per lane (see
  // Instance::set_exercised). The owner writes the bit at the lane's anchor
  // event; reset_lane clears it with the rest of the lane state so recycled
  // lanes start out not-exercised, exactly like a fresh scalar instance.
  void set_exercised(uint32_t lane, bool v) {
    const uint64_t bit = uint64_t{1} << lane;
    exercised_ = v ? (exercised_ | bit) : (exercised_ & ~bit);
  }
  bool exercised(uint32_t lane) const { return (exercised_ >> lane) & 1; }

 private:
  bool eval_bool(uint32_t n);
  bool atom_value(uint32_t k);
  void step_node(uint32_t n, uint64_t need);
  uint8_t finish_node(uint32_t n, uint64_t bit);
  uint8_t finish_raw(uint32_t n, uint64_t bit);
  bool collect_node(uint32_t n, uint32_t lane,
                    std::vector<psl::TimeNs>& out) const;

  std::shared_ptr<const ProgramBatch> layout_;
  const Program* prog_;  // borrowed from layout_, hot-path shortcut

  // One 64-bit plane per program node (lane i = bit i).
  std::vector<uint64_t> val_t_;
  std::vector<uint64_t> val_f_;
  std::vector<uint64_t> armed_;
  std::vector<uint64_t> observed_;
  // Per-lane scalar scratch, indexed scratch(n) * kLanes + lane.
  std::vector<uint32_t> counts_;       // kNext events skipped
  std::vector<psl::TimeNs> targets_;   // kNextEps required instants

  // Per-prime atom memo of the name path (lane-uniform: one value per atom
  // per event); events carrying Event::atoms read those bits instead.
  std::vector<uint64_t> atom_stamp_;
  std::vector<uint8_t> atom_val_;
  uint64_t stamp_ = 0;

  uint64_t allocated_ = 0;  // lanes handed out
  uint64_t primed_ = 0;     // lanes whose planes already reflect the event
  uint64_t exercised_ = 0;  // lanes whose antecedent fired at their anchor
  const Event* ev_ = nullptr;  // valid during prime() only
};

}  // namespace repro::checker

#endif  // REPRO_CHECKER_BATCH_H_
