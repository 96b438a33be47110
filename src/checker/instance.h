// Incremental checker instance: the synthesized form of one property
// evaluation session (Sec. IV).
//
// An Instance is anchored at one evaluation point (clock edge / transaction
// end). Its first step() call receives the anchor event; subsequent calls
// receive the following events of the stream. The instance maintains an
// obligation tree mirroring the formula and resolves to kTrue/kFalse as soon
// as the verdict is determined; finish() applies end-of-trace (truncated)
// semantics. The semantics implemented here is cross-validated against
// reference_eval in the test suite.
//
// Instances are reusable: reset() restores the fresh state so a wrapper can
// recycle completed instances (step 3 of the Sec. IV wrapper behaviour).
#ifndef REPRO_CHECKER_INSTANCE_H_
#define REPRO_CHECKER_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "checker/batch.h"
#include "checker/program.h"
#include "checker/trace.h"
#include "psl/ast.h"

namespace repro::checker {

namespace detail {

// Obligation-tree node. Nodes are created just before their anchor event is
// fed; step() is called with the anchor event first, then each later event.
class Node {
 public:
  virtual ~Node() = default;
  virtual Verdict step(const Event& ev) = 0;
  // End of trace: resolve weak obligations to kTrue, strong ones to kFalse.
  virtual Verdict finish() = 0;
  // Collects the wall-clock instants at which this subtree must next be
  // evaluated (targets of unresolved next_e nodes). Returns false if the
  // subtree needs to observe every event (until/release/always/...).
  virtual bool collect_deadlines(std::vector<psl::TimeNs>& out) const = 0;
  // Restores the fresh (pre-anchor) state in place, without reallocating
  // the obligation tree — this is what makes wrapper instance reuse
  // (Sec. IV point 3) cheap.
  virtual void reset() = 0;
};

std::unique_ptr<Node> make_node(const psl::ExprPtr& e);

}  // namespace detail

class Instance {
 public:
  // Interpreter backend: builds a virtual-dispatch obligation tree.
  explicit Instance(psl::ExprPtr formula);
  // Compiled backend: flat state over a shared immutable Program.
  explicit Instance(std::shared_ptr<const Program> program);
  // Vectorized backend: one lane of a shared 64-wide lockstep block. The
  // lane must already be allocated; the instance owns it and returns it to
  // the block on destruction.
  Instance(std::shared_ptr<BatchState> block, uint32_t lane);
  ~Instance();

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  // Feeds the next event; the first call anchors the instance. Returns the
  // verdict after consuming the event.
  Verdict step(const Event& ev);

  // Declares the trace complete and resolves the remaining obligations.
  Verdict finish();

  Verdict verdict() const { return verdict_; }
  bool resolved() const { return verdict_ != Verdict::kPending; }

  // Earliest wall-clock instant at which this instance must be evaluated
  // next, if the pending obligations are purely time-scheduled (next_e).
  // nullopt when the instance must see every event or is resolved.
  // `scratch` is caller-owned collection space, reused across calls so
  // steady-state scheduling does not allocate; its contents are clobbered.
  std::optional<psl::TimeNs> next_deadline(
      std::vector<psl::TimeNs>& scratch) const;

  // Restores the instance to its fresh (pre-anchor) state for reuse.
  void reset();

  // Activation bookkeeping for the wrapper's activation-to-verdict latency
  // metric: set by the owner at the anchor event, read at retirement.
  void set_activated_at(psl::TimeNs t) { activated_at_ = t; }
  psl::TimeNs activated_at() const { return activated_at_; }

  // "Consequent exercised" bit for vacuity telemetry: the owner evaluates
  // the property's derived antecedent at the anchor event and records the
  // outcome here; retirement counts a kTrue verdict as a real pass when the
  // bit is set and a vacuous pass otherwise. Lane-backed instances keep the
  // bit in the block's per-lane plane so lane recycling clears it with the
  // rest of the lane state.
  void set_exercised(bool v) {
    if (block_ != nullptr) {
      block_->set_exercised(lane_, v);
    } else {
      exercised_ = v;
    }
  }
  bool exercised() const {
    return block_ != nullptr ? block_->exercised(lane_) : exercised_;
  }

  // True when this instance runs on a compiled backend (flat program state
  // or a lockstep lane).
  bool compiled() const { return state_.has_value() || block_ != nullptr; }

  // Lockstep block backing this instance (nullptr on the scalar backends)
  // and the lane it occupies; the owner uses these to group instances into
  // prime() cohorts.
  BatchState* batch_block() const { return block_.get(); }
  uint32_t batch_lane() const { return lane_; }

 private:
  psl::ExprPtr formula_;
  std::unique_ptr<detail::Node> root_;   // interpreter backend
  std::optional<ProgramState> state_;    // compiled backend
  std::shared_ptr<BatchState> block_;    // vectorized backend
  uint32_t lane_ = 0;                    // lane within block_
  Verdict verdict_ = Verdict::kPending;
  psl::TimeNs activated_at_ = 0;
  bool exercised_ = false;  // scalar backends; lane-backed bit lives in block_
};

}  // namespace repro::checker

#endif  // REPRO_CHECKER_INSTANCE_H_
