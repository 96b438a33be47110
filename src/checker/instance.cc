#include "checker/instance.h"

#include <algorithm>
#include <cassert>

namespace repro::checker {

Instance::Instance(std::shared_ptr<const Program> program)
    : state_(std::in_place, std::move(program)) {}

Instance::Instance(std::shared_ptr<BatchState> block, uint32_t lane)
    : block_(std::move(block)), lane_(lane) {
  assert(block_ != nullptr);
  assert(block_->allocated() & (uint64_t{1} << lane_));
}

Instance::~Instance() {
  if (block_ != nullptr) block_->release_lane(lane_);
}

Verdict Instance::step(const Event& ev) {
  if (verdict_ != Verdict::kPending) return verdict_;
  verdict_ = block_ ? block_->step_lane(ev, lane_) : state_->step(ev);
  return verdict_;
}

Verdict Instance::finish() {
  if (verdict_ != Verdict::kPending) return verdict_;
  verdict_ = block_ ? block_->finish_lane(lane_) : state_->finish();
  return verdict_;
}

std::optional<psl::TimeNs> Instance::next_deadline(
    std::vector<psl::TimeNs>& deadlines) const {
  // A lane's program has no next_e (ProgramBatch::supported), so a
  // lane-backed instance is never time-scheduled.
  if (verdict_ != Verdict::kPending || block_) return std::nullopt;
  deadlines.clear();
  if (!state_->collect_deadlines(deadlines) || deadlines.empty()) {
    return std::nullopt;
  }
  return *std::min_element(deadlines.begin(), deadlines.end());
}

void Instance::reset() {
  if (block_) {
    block_->reset_lane(lane_);
  } else {
    state_->reset();
  }
  verdict_ = Verdict::kPending;
  exercised_ = false;
}

}  // namespace repro::checker
