// Sharded, pipelined evaluation engine for the TLM ABV runtime.
//
// The serial runtime walks every checker at every transaction end, so
// checking time grows linearly with the property count. The engine removes
// that bottleneck for large suites: checkers are partitioned round-robin
// into per-worker shards, incoming transaction records are appended once
// into a shared support::BatchArena, and sealed batches are dispatched by
// span — every shard reads the same immutable slab, eliminating the
// O(jobs) per-record fan-out copy.
//
// Dispatch is pipelined: each shard owns a worker thread with a FIFO batch
// queue, so the producer seals a full segment and immediately starts
// filling the next one while the shards drain the sealed one. The
// `max_inflight_batches` knob bounds sealed-but-undrained batches; at the
// bound the producer blocks (backpressure) until a batch fully drains.
//
// Correctness model:
//   - Each checker is owned by exactly one shard, and shard queues are
//     FIFO, so every property observes the exact event stream of the
//     serial engine in arrival order; per-property stats, verdicts and
//     failure logs are therefore identical for any `jobs` or
//     `max_inflight_batches` value.
//   - Shard FIFOs also imply in-order drain completion per shard, so the
//     undrained batches always form a contiguous suffix of the sealed
//     sequence; recycled arena segments and batch tickets can never be
//     observed by a stale reader.
//   - The per-record work that does not depend on the property runs once
//     per record in a checker::RecordPass: the serial path owns one, each
//     shard owns its own (thread-owned state), and every checker is
//     attached to the pass of the path or shard that evaluates it. The
//     pass evaluates the union of its properties' atoms, guards and
//     antecedents, and captures the record into one failure-witness ring;
//     each property then reads only its own bits.
//   - Failure witnesses copy the values they retain into the pass's flat
//     ring and hold the record dictionary (see checker::WitnessRing), so
//     they stay valid after the arena recycles a segment; names are
//     materialized only when a failure is logged.
//   - Deferred bookkeeping (coverage rows, anchor-resolved latency samples)
//     is published at sync points: before each mid-run snapshot line on the
//     serial path, at the end of each shard batch, and at finish().
//   - `jobs = 1` bypasses the arena and threads entirely and dispatches
//     records synchronously, which is bit-identical to the historical
//     serial path.
//   - finish() seals the partial tail, waits for every batch to drain,
//     joins the workers, then retires properties serially in registration
//     order, so the merged Report is deterministic.
#ifndef REPRO_ABV_EVAL_ENGINE_H_
#define REPRO_ABV_EVAL_ENGINE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "abv/engine_config.h"
#include "checker/checker.h"
#include "support/batch_arena.h"
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
    // Optional metrics registry (records, batches, arena/backpressure
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
    // is serialized exactly as checked — per sealed arena segment in
    // sharded mode (one frame per segment, written on the producer thread
    // right after the seal), per record on the serial path. Must outlive
    // the engine. nullptr disables.
    support::tracelog::TraceWriter* record_writer = nullptr;
  };

  // `options.config` with every knob below 1 raised to 1: the knob group
  // the engine runs with. The only clamp of the engine knobs.
  static EngineConfig clamped(EngineConfig config);

  explicit EvalEngine(Options options);
  ~EvalEngine();

  // Registration, in report order. Call before the first on_record. The
  // engine attaches each checker to the record pass of the path or shard
  // that evaluates it.
  void add(checker::PropertyChecker* checker);

  // One completed transaction. Serial mode evaluates immediately; sharded
  // mode appends the record to the arena (the one and only copy) and seals
  // a batch for the shard workers whenever batch_size records accumulate.
  void on_record(const tlm::TransactionRecord& record);
  // Move-ingest overload: the arena takes the record without copying.
  void on_record(tlm::TransactionRecord&& record);

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
  using RecordArena = support::BatchArena<tlm::TransactionRecord>;

  // One sealed batch in flight: a ticket shared by all shard queues.
  // Tickets are pooled; a ticket is recycled only after its last reader
  // released the span, and in-order drain makes reuse safe (see above).
  struct Batch {
    RecordArena::Span span;
    uint64_t seq = 0;      // seal order, for trace causality
    uint64_t seal_ns = 0;  // trace/mono clock at seal, for drain latency
  };

  // std::deque: Shard holds a mutex and is neither movable nor copyable.
  struct Shard {
    std::vector<checker::PropertyChecker*> checkers;
    checker::RecordPass pass;  // owned by the shard's worker thread
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Batch*> queue;  // FIFO; guarded by mu
    bool stop = false;         // guarded by mu; workers drain, then exit
    std::thread thread;
  };

  uint64_t tick() const;  // trace clock when tracing, else monotonic
  void ensure_sharded();
  void append_sharded(tlm::TransactionRecord&& record);
  void seal_and_dispatch();
  void shard_loop(size_t s);
  void process_batch(Shard& shard, size_t s, Batch* batch);
  void stop_workers();
  void publish_metrics();
  // Bumps the ingest counter and emits a mid-run snapshot line every
  // metrics_interval records; called after each record is ingested.
  void count_record(uint64_t sim_time_ns);
  void write_sample(uint64_t sim_time_ns, bool final);

  Options options_;
  std::vector<checker::PropertyChecker*> checkers_;
  checker::RecordPass serial_pass_;  // jobs = 1

  RecordArena arena_;
  std::deque<Shard> shards_;
  bool sharded_ = false;
  bool workers_running_ = false;
  uint64_t fill_start_ns_ = 0;  // first append into the open segment

  // Producer/drain rendezvous: guards the ticket pool, in-flight count and
  // the drain-latency histogram (recorded by whichever shard releases a
  // batch last).
  std::mutex mu_;
  std::condition_variable drained_cv_;
  std::vector<std::unique_ptr<Batch>> tickets_;
  std::vector<Batch*> free_tickets_;
  size_t inflight_ = 0;
  size_t inflight_peak_ = 0;
  uint64_t next_seq_ = 0;
  // Seal-to-last-release latency; merged into the registry at finish().
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
};

}  // namespace repro::abv

#endif  // REPRO_ABV_EVAL_ENGINE_H_
