// Pull-based, span-oriented ingest surface for the verification runtime.
//
// A RecordSource produces the completed-transaction stream the evaluation
// engine checks, one contiguous span at a time — mirroring
// EvalEngine::on_records — without saying anything about who produced the
// records. The shipped implementations are the live simulation adapter
// below (LiveRecordSource, which steps the kernel and drains the recorder)
// and the offline replays of a recorded log in support/tracelog.h
// (TraceStreamSource, one frame at a time, and TraceReplaySource, over a
// log already in memory). Verdicts depend only on the record stream, so any
// source that produces the same stream produces byte-identical reports.
#ifndef REPRO_TLM_RECORD_SOURCE_H_
#define REPRO_TLM_RECORD_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel.h"
#include "tlm/recorder.h"
#include "tlm/transaction.h"

namespace repro::tlm {

// A contiguous slice of completed transactions, in completion-time order.
// The pointed-to records are owned by the source and stay valid only until
// the next call into it.
struct RecordSpan {
  const TransactionRecord* begin = nullptr;
  const TransactionRecord* end = nullptr;

  size_t size() const { return static_cast<size_t>(end - begin); }
  bool empty() const { return begin == end; }
};

// Identity of a record stream: which design/abstraction level produced it,
// the reference clock period the checker wrappers are sized with, and the
// observable dictionary (the model's snapshot key table, in key-table order
// — witness rings serialize observables in this order, so replay must
// preserve it verbatim).
struct RecordStreamMeta {
  std::string design;
  std::string level;
  uint64_t clock_period_ns = 0;
  std::vector<std::string> observables;
};

class RecordSource {
 public:
  virtual ~RecordSource() = default;

  virtual const RecordStreamMeta& meta() const = 0;

  // Next span of completed transactions; an empty span means the stream is
  // exhausted. The returned records are invalidated by the next call.
  virtual RecordSpan next() = 0;
};

// Live adapter: subscribes to the recorder and advances the simulation one
// timestamp at a time until records appear. Each next() call returns the
// records completed since the previous call; the stream ends when the
// kernel stops (or runs out of events) with no records pending.
class LiveRecordSource : public RecordSource {
 public:
  // Subscribing makes the recorder active, so initiators materialize
  // observables exactly as they would for a directly-subscribed
  // environment. `until` bounds simulation time like Kernel::run.
  LiveRecordSource(sim::Kernel& kernel, TransactionRecorder& recorder,
                   RecordStreamMeta meta, sim::Time until);

  const RecordStreamMeta& meta() const override { return meta_; }
  RecordSpan next() override;

 private:
  sim::Kernel& kernel_;
  RecordStreamMeta meta_;
  sim::Time until_;
  // The current span is buffer_[0, size_). Elements past it are kept from
  // earlier spans and copy-assigned over, reusing their heap buffers.
  std::vector<TransactionRecord> buffer_;
  size_t size_ = 0;
};

}  // namespace repro::tlm

#endif  // REPRO_TLM_RECORD_SOURCE_H_
