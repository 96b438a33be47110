#include "tlm/record_source.h"

#include <utility>

namespace repro::tlm {

LiveRecordSource::LiveRecordSource(sim::Kernel& kernel,
                                   TransactionRecorder& recorder,
                                   RecordStreamMeta meta, sim::Time until)
    : kernel_(kernel), meta_(std::move(meta)), until_(until) {
  recorder.subscribe([this](const TransactionRecord& record) {
    if (size_ < buffer_.size()) {
      buffer_[size_] = record;
    } else {
      buffer_.push_back(record);
    }
    ++size_;
  });
}

RecordSpan LiveRecordSource::next() {
  // The records handed out last time die now; the consumer was told so.
  size_ = 0;
  // One timestamp can complete several transactions (a temporally-decoupled
  // burst, coinciding record deliveries); they form one span, preserving
  // the delivery order of the push path.
  while (size_ == 0 && kernel_.step(until_)) {
  }
  return {buffer_.data(), buffer_.data() + size_};
}

}  // namespace repro::tlm
