#include "tlm/recorder.h"

#include <utility>

namespace repro::tlm {

void TransactionRecorder::emit(TransactionRecord record) {
  ++transactions_;
  if (listeners_.empty()) return;
  size_t slot = slots_.size();
  if (free_slots_.empty()) {
    slots_.push_back(std::move(record));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(record);
  }
  kernel_.schedule_at(slots_[slot].end, [this, slot] { deliver(slot); });
}

void TransactionRecorder::deliver(size_t slot) {
  for (const auto& listener : listeners_) listener(slots_[slot]);
  free_slots_.push_back(slot);
}

}  // namespace repro::tlm
