#include "sim/kernel.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace repro::sim {

void Kernel::schedule_at(Time t, std::function<void()> fn) {
  assert(t >= now_ || timed_.empty());  // allow pre-run setup at t < first run
  timed_.push_back(Timed{t, next_seq_++, std::move(fn)});
  std::push_heap(timed_.begin(), timed_.end(), later);
}

void Kernel::schedule_delta(std::function<void()> fn) {
  next_delta_.push_back(std::move(fn));
}

void Kernel::request_update(SignalBase* signal) {
  pending_updates_.push_back(signal);
}

void Kernel::execute_timestamp() {
  // Move all events at now_ into the runnable set, in insertion order.
  while (!timed_.empty() && timed_.front().time == now_) {
    std::pop_heap(timed_.begin(), timed_.end(), later);
    runnable_.push_back(std::move(timed_.back().fn));
    timed_.pop_back();
  }

  while (!runnable_.empty()) {
    ++delta_cycles_;
    // Evaluate phase. Callbacks may write signals (queued for the update
    // phase) and schedule further deltas. A stop drops the rest of the batch;
    // pending writes and next-delta callbacks stay queued.
    batch_.swap(runnable_);
    for (auto& fn : batch_) {
      ++events_executed_;
      fn();
      if (stop_requested_) {
        batch_.clear();
        return;
      }
    }
    batch_.clear();
    // Update phase: commit signal writes; changed signals wake their
    // sensitive callbacks in the next delta.
    updates_.swap(pending_updates_);
    for (SignalBase* signal : updates_) {
      if (signal->apply_update()) signal->notify_changed();
    }
    updates_.clear();
    runnable_.swap(next_delta_);
  }
}

void Kernel::run(Time until) {
  stop_requested_ = false;
  while (step(until)) {
  }
}

bool Kernel::step(Time until) {
  if (stop_requested_ || timed_.empty()) return false;
  const Time next = timed_.front().time;
  if (next > until) return false;
  now_ = next;
  execute_timestamp();
  return true;
}

void Kernel::run_all() {
  stop_requested_ = false;
  while (!stop_requested_ && !timed_.empty()) {
    now_ = timed_.front().time;
    execute_timestamp();
  }
}

}  // namespace repro::sim
