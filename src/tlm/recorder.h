// Transaction-end event stream.
//
// The recorder is the glue between the TLM model and the dynamic ABV
// environment: every transaction completion is delivered, at its completion
// time and in kernel time order, to the subscribed listeners. The end of
// every transaction is the basic transaction context Tb of Def. III.2.
#ifndef REPRO_TLM_RECORDER_H_
#define REPRO_TLM_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/kernel.h"
#include "tlm/transaction.h"

namespace repro::tlm {

class TransactionRecorder {
 public:
  using Listener = std::function<void(const TransactionRecord&)>;

  explicit TransactionRecorder(sim::Kernel& kernel) : kernel_(kernel) {}

  void subscribe(Listener listener) { listeners_.push_back(std::move(listener)); }

  // True when at least one listener is subscribed; when false, initiators
  // skip record materialization entirely and only count the transaction.
  bool active() const { return !listeners_.empty(); }

  // Schedules delivery of `record` to all listeners at record.end.
  // record.end must be >= the kernel's current time. The record waits in a
  // reusable slot; listeners see it by reference, valid only for the
  // duration of the call.
  void emit(TransactionRecord record);

  // Counts a transaction that was not materialized (unmonitored run).
  void count() { ++transactions_; }

  uint64_t transactions() const { return transactions_; }

 private:
  void deliver(size_t slot);

  sim::Kernel& kernel_;
  std::vector<Listener> listeners_;
  uint64_t transactions_ = 0;
  // Records awaiting delivery, one per scheduled kernel event. A deque so a
  // listener that emits while a slot is being delivered cannot move it; a
  // delivered slot goes back on the free list and is reused, so the kernel
  // event captures only [this, slot] and fits std::function's inline buffer.
  std::deque<TransactionRecord> slots_;
  std::vector<size_t> free_slots_;
};

}  // namespace repro::tlm

#endif  // REPRO_TLM_RECORDER_H_
