// Incremental checker instance: the synthesized form of one property
// evaluation session (Sec. IV).
//
// An Instance is anchored at one evaluation point (clock edge / transaction
// end). Its first step() call receives the anchor event; subsequent calls
// receive the following events of the stream. The instance evaluates its
// property's compiled Program (program.h) and resolves to kTrue/kFalse as
// soon as the verdict is determined; finish() applies end-of-trace
// (truncated) semantics. The state lives either in a private ProgramState or
// in one lane of a shared 64-wide lockstep block (batch.h); the owner picks
// the lane form exactly when ProgramBatch::supported() accepts the program.
// Both are cross-validated against reference_eval in the test suite.
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

class Instance {
 public:
  // Scalar form: flat state over a shared immutable Program.
  explicit Instance(std::shared_ptr<const Program> program);
  // Lane form: one lane of a shared 64-wide lockstep block. The lane must
  // already be allocated; the instance owns it and returns it to the block
  // on destruction.
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
  // nullopt when the instance must see every event, is resolved or is
  // lane-backed (a lane's program has no next_e).
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

  // Lockstep block backing this instance (nullptr in the scalar form) and
  // the lane it occupies; the owner uses these to group instances into
  // prime() cohorts.
  BatchState* batch_block() const { return block_.get(); }
  uint32_t batch_lane() const { return lane_; }

 private:
  std::optional<ProgramState> state_;  // scalar form
  std::shared_ptr<BatchState> block_;  // lane form
  uint32_t lane_ = 0;                  // lane within block_
  Verdict verdict_ = Verdict::kPending;
  psl::TimeNs activated_at_ = 0;
  bool exercised_ = false;  // scalar form; a lane's bit lives in block_
};

}  // namespace repro::checker

#endif  // REPRO_CHECKER_INSTANCE_H_
