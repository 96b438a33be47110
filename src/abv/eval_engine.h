// Sharded, pipelined evaluation engine for the TLM ABV runtime.
//
// The serial runtime walks every checker at every transaction end, so
// checking time grows linearly with the property count. The engine
// partitions the checkers round-robin into per-worker shards, and one
// producer broadcasts the record stream to every shard through a ring of
// kSlots reused batch slots (DESIGN.md §11): it fills one slot while the
// shards read up to kMaxInflight sealed ones, and before refilling a slot
// it waits until every shard has finished the slot's previous batch.
//
// Correctness model:
//   - Each checker is owned by exactly one shard, and every shard reads
//     the batches in seal order, so every property observes the exact
//     event stream of the serial engine in arrival order; per-property
//     stats, verdicts and failure logs are therefore identical for any
//     `jobs` value.
//   - A shard counts a batch done, under the mutex, after its last read of
//     the slot, and the producer checks the counts under the same mutex
//     before refilling it, so no shard ever reads a record of a later batch.
//   - The per-record work that does not depend on the property runs once
//     per record in a checker::RecordPass: the serial path owns one, each
//     shard owns its own (thread-owned state), and every checker is
//     attached to the pass of the path or shard that evaluates it. The
//     pass evaluates the union of its properties' atoms, guards and
//     antecedents, and captures the record into one failure-witness ring;
//     each property then reads only its own bits.
//   - Failure witnesses copy the values they retain into the pass's flat
//     ring and hold the record dictionary (see checker::WitnessRing), so
//     they stay valid after the producer refills a slot; names are
//     materialized only when a failure is logged.
//   - Deferred bookkeeping (coverage rows, anchor-resolved latency samples)
//     is published at sync points: before each mid-run snapshot line on the
//     serial path, at the end of each shard batch, and at finish().
//   - `jobs = 1` bypasses the ring and threads entirely and dispatches
//     records synchronously, which is bit-identical to the historical
//     serial path.
//   - finish() seals the partial tail, lets every shard drain the sealed
//     batches and joins the workers, then retires properties serially in
//     registration order, so the merged Report is deterministic.
#ifndef REPRO_ABV_EVAL_ENGINE_H_
#define REPRO_ABV_EVAL_ENGINE_H_

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <thread>
#include <vector>

#include "abv/engine_config.h"
#include "checker/checker.h"
#include "support/coverage.h"
#include "support/metrics.h"
#include "support/trace_sink.h"
#include "tlm/transaction.h"

namespace repro::support::tracelog {
class TraceWriter;
}  // namespace repro::support::tracelog

namespace repro::abv {

class EvalEngine {
 public:
  struct Options {
    // Engine knobs; the same struct models::RunConfig::engine carries, so
    // callers pass their config group through unchanged.
    EngineConfig config;
    // Optional metrics registry (records, batches, backpressure
    // accounting, per-shard busy time, and at finish the wrapper.* pool and
    // latency metrics of the abstracted properties).
    // Lane 0 is the producer, lane s+1 backs shard s, so the registry must
    // have >= jobs + 1 lanes and outlive the engine. nullptr disables.
    support::MetricsRegistry* metrics = nullptr;
    // Optional Chrome-trace sink (batch_fill/shard_batch/retire spans,
    // per-failure instants). Must outlive the engine. nullptr disables.
    support::TraceSink* trace = nullptr;
    // Optional JSONL snapshot stream (--metrics-out): one compact object per
    // line every `metrics_interval` ingested records, plus one exact line
    // with "final":true at finish(). Each line carries the merged metrics
    // snapshot and the coverage table (schema in tools/validate_metrics.py).
    // Mid-run lines on the serial path are exact: every property publishes
    // its coverage row right before the line is written. Mid-run lines in
    // sharded mode are approximate — rows are published at the end of each
    // shard batch, and shards may not have drained up to the sampled record
    // yet (relaxed reads of the live coverage rows); the final line is taken
    // after every shard joined and is exact. Must outlive the engine.
    // nullptr disables.
    std::ostream* metrics_out = nullptr;
    // Records between two mid-run snapshot lines; 0 emits only the final
    // line (when metrics_out is set).
    size_t metrics_interval = 0;
    // Live per-property coverage table serialized into each snapshot line;
    // the caller attaches the table's rows to its checkers. Must
    // outlive the engine. nullptr serializes an empty coverage array.
    support::CoverageTable* coverage = nullptr;
    // Optional trace-log writer (--record-out): the ingested record stream
    // is appended record by record on the producer thread, in ingest order,
    // so the log is byte-identical for any `jobs`. Must outlive the engine.
    // nullptr disables.
    support::tracelog::TraceWriter* record_writer = nullptr;
  };

  // `options.config` with `jobs` below 1 raised to 1: the knob group the
  // engine runs with. The only clamp of the engine knobs.
  static EngineConfig clamped(EngineConfig config);

  explicit EvalEngine(Options options);
  ~EvalEngine();

  // Registration, in report order. Call before the first on_record. The
  // engine attaches each checker to the record pass of the path or shard
  // that evaluates it.
  void add(checker::PropertyChecker* checker);

  // One completed transaction. Serial mode evaluates immediately; sharded
  // mode copies the record into the ring's open slot (the one and only
  // copy) and seals the slot for the shard workers every kBatchRecords
  // records.
  void on_record(const tlm::TransactionRecord& record);

  // Narrow span-based bulk ingest: equivalent to calling on_record for
  // each element of [begin, end) in order. Callers holding a contiguous
  // slice of records feed it here instead of reaching into batching
  // internals.
  void on_records(const tlm::TransactionRecord* begin,
                  const tlm::TransactionRecord* end);

  // Seals the partial tail, drains every in-flight batch, joins the shard
  // workers and retires every property (end-of-trace semantics), serially
  // and in registration order.
  void finish();

  size_t jobs() const { return options_.config.jobs; }
  // Shards actually formed (0 before the first record in sharded mode).
  size_t shard_count() const { return shards_.size(); }

 private:
  // Records per sealed batch, and sealed batches the shards may still be
  // reading while the producer fills the next one. DESIGN.md §11 has the
  // sweep behind both values.
  static constexpr size_t kBatchRecords = 1024;
  static constexpr size_t kMaxInflight = 2;
  static constexpr size_t kSlots = kMaxInflight + 1;

  // One ring slot. Records are copy-assigned into place, so a refilled
  // slot reuses each record's buffers; [0, size) is the batch.
  struct Slot {
    std::vector<tlm::TransactionRecord> records;
    size_t size = 0;
    uint64_t seal_ns = 0;  // trace/mono clock at seal, for drain latency
  };

  // std::deque: a shard's address must stay fixed while its thread runs.
  struct Shard {
    std::vector<checker::PropertyChecker*> checkers;
    checker::RecordPass pass;  // owned by the shard's worker thread
    uint64_t done = 0;         // batches finished; guarded by mu_
    std::thread thread;
  };

  uint64_t tick() const;  // trace clock when tracing, else monotonic
  void ensure_sharded();
  void append_sharded(const tlm::TransactionRecord& record);
  void claim_slot();
  void seal();
  uint64_t min_done() const;  // requires mu_
  void shard_loop(size_t s);
  void process_batch(Shard& shard, size_t s, uint64_t seq);
  void stop_workers();
  void publish_metrics();
  // Bumps the ingest counter and emits a mid-run snapshot line every
  // metrics_interval records; called after each record is ingested.
  void count_record(uint64_t sim_time_ns);
  void write_sample(uint64_t sim_time_ns, bool final);

  Options options_;
  std::vector<checker::PropertyChecker*> checkers_;
  checker::RecordPass serial_pass_;  // jobs = 1

  std::array<Slot, kSlots> ring_;
  bool filling_ = false;        // producer: the open slot has been claimed
  uint64_t fill_start_ns_ = 0;  // first append into the open slot

  // Guards sealed_, every Shard::done, stop_ and the drain-latency
  // histogram (recorded by whichever shard finishes a batch last).
  std::mutex mu_;
  std::condition_variable sealed_cv_;  // shards: a seal, or stop
  std::condition_variable done_cv_;    // producer: a batch fully drained
  uint64_t sealed_ = 0;  // batches sealed; written only by the producer
  bool stop_ = false;    // workers drain every sealed batch, then exit
  // Seal-to-last-reader latency; merged into the registry at finish().
  support::Histogram batch_ns_;

  // Snapshot-sampler state (producer thread only).
  uint64_t records_seen_ = 0;
  uint64_t sample_seq_ = 0;
  uint64_t last_record_time_ = 0;  // sim time of the last ingested record

  // Metric handles (owned by options_.metrics), resolved once up front so
  // the hot path is a relaxed atomic add into the caller's lane.
  support::MetricsRegistry::Counter* m_records_ = nullptr;
  support::MetricsRegistry::Counter* m_batches_ = nullptr;
  support::MetricsRegistry::Counter* m_shard_records_ = nullptr;
  support::MetricsRegistry::Counter* m_shard_busy_ns_ = nullptr;
  support::MetricsRegistry::Counter* m_backpressure_ns_ = nullptr;
  support::MetricsRegistry::Gauge* m_queue_depth_ = nullptr;
  support::MetricsRegistry::Gauge* m_inflight_peak_ = nullptr;

  // Declared last, after every member the shard threads use. Empty until
  // the first sharded record forms the shards.
  std::deque<Shard> shards_;
};

}  // namespace repro::abv

#endif  // REPRO_ABV_EVAL_ENGINE_H_
