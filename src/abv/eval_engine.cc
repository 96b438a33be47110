#include "abv/eval_engine.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <string>
#include <utility>

#include "abv/snapshot_context.h"
#include "support/tracelog.h"

namespace repro::abv {

namespace {

// Monotonic wall clock for busy-time metrics; only differences are used.
uint64_t mono_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

EvalEngine::Options with_clamped_config(EvalEngine::Options options) {
  options.config = EvalEngine::clamped(options.config);
  return options;
}

}  // namespace

EngineConfig EvalEngine::clamped(EngineConfig config) {
  config.jobs = std::max<size_t>(1, config.jobs);
  config.batch_size = std::max<size_t>(1, config.batch_size);
  config.max_inflight_batches =
      std::max<size_t>(1, config.max_inflight_batches);
  return config;
}

EvalEngine::EvalEngine(Options options)
    : options_(with_clamped_config(options)),
      arena_(options_.config.batch_size),
      batch_ns_(support::exponential_bounds(1 << 10, 18))  // 1 us .. ~268 ms
{
  if (options_.metrics != nullptr) {
    m_records_ = &options_.metrics->counter("engine.records");
    m_batches_ = &options_.metrics->counter("engine.batches");
    m_shard_records_ = &options_.metrics->counter("engine.shard_records");
    m_shard_busy_ns_ = &options_.metrics->counter("engine.shard_busy_ns");
    m_backpressure_ns_ = &options_.metrics->counter("engine.backpressure_ns");
    m_queue_depth_ = &options_.metrics->gauge("engine.queue_depth");
    m_inflight_peak_ = &options_.metrics->gauge("engine.inflight_peak");
    // Arena and lockstep accounting are published at finish(); registering
    // the names up front keeps the snapshot key set identical across jobs
    // and properties.
    options_.metrics->counter("engine.arena_records");
    options_.metrics->counter("engine.arena_segments");
    options_.metrics->counter("engine.arena_recycled");
    options_.metrics->counter("engine.vector_batches");
    options_.metrics->counter("engine.vector_lanes_filled");
    options_.metrics->counter("engine.lane_blocks");
  }
  if (options_.trace != nullptr) {
    options_.trace->name_thread(0, "producer");
  }
}

EvalEngine::~EvalEngine() { stop_workers(); }

void EvalEngine::add(checker::PropertyChecker* checker) {
  // Serial mode evaluates on the dispatch lane; ensure_sharded() reassigns
  // the checker to its shard's lane.
  checker->set_trace(options_.trace, 0);
  if (options_.config.jobs == 1) checker->attach(serial_pass_);
  checkers_.push_back(checker);
}

uint64_t EvalEngine::tick() const {
  return options_.trace != nullptr ? options_.trace->now_ns() : mono_ns();
}

void EvalEngine::ensure_sharded() {
  if (sharded_) return;
  sharded_ = true;
  const size_t count =
      std::max<size_t>(1, std::min(options_.config.jobs, checkers_.size()));
  for (size_t s = 0; s < count; ++s) shards_.emplace_back();
  // Round-robin in registration order balances heterogeneous property costs
  // across shards and is deterministic.
  for (size_t i = 0; i < checkers_.size(); ++i) {
    Shard& shard = shards_[i % count];
    shard.checkers.push_back(checkers_[i]);
    checkers_[i]->set_trace(options_.trace,
                            static_cast<uint32_t>(i % count) + 1);
    checkers_[i]->attach(shard.pass);
  }
  for (size_t s = 0; s < count; ++s) {
    if (options_.trace != nullptr) {
      options_.trace->name_thread(static_cast<uint32_t>(s) + 1,
                                  "shard-" + std::to_string(s));
    }
    shards_[s].thread = std::thread([this, s] { shard_loop(s); });
  }
  workers_running_ = true;
}

void EvalEngine::shard_loop(size_t s) {
  Shard& shard = shards_[s];
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock, [&] { return shard.stop || !shard.queue.empty(); });
      if (shard.queue.empty()) return;  // stop requested and fully drained
      batch = shard.queue.front();
      shard.queue.pop_front();
    }
    process_batch(shard, s, batch);
  }
}

void EvalEngine::process_batch(Shard& shard, size_t s, Batch* batch) {
  const bool instrumented =
      options_.trace != nullptr || options_.metrics != nullptr;
  const uint64_t t0 = instrumented ? tick() : 0;
  for (const tlm::TransactionRecord& record : batch->span) {
    const ObservablesContext ctx(record.observables);
    shard.pass.run(record.end, ctx);
    for (checker::PropertyChecker* c : shard.checkers) {
      c->evaluate(record.end, ctx);
    }
  }
  // Sync point: this shard is the only writer of its properties' rows.
  for (checker::PropertyChecker* c : shard.checkers) c->publish();
  // Everything needed after release is copied out first: once this shard
  // releases (and some shard is the last), the ticket and the arena segment
  // may be recycled for a later batch.
  const size_t records = batch->span.size();
  const uint64_t seq = batch->seq;
  const uint64_t seal_ns = batch->seal_ns;
  if (instrumented) {
    const uint64_t t1 = tick();
    const uint64_t busy = t1 > t0 ? t1 - t0 : 0;
    const size_t lane = s + 1;
    if (m_shard_busy_ns_ != nullptr) m_shard_busy_ns_->add(lane, busy);
    if (m_shard_records_ != nullptr) m_shard_records_->add(lane, records);
    if (options_.trace != nullptr) {
      options_.trace->span(static_cast<uint32_t>(s) + 1, "shard_batch", t0,
                           busy, {{"records", records}, {"seq", seq}});
    }
  }
  if (arena_.release(batch->span)) {
    // Last reader: the batch is fully drained.
    const uint64_t drained = instrumented ? tick() : 0;
    std::lock_guard<std::mutex> lock(mu_);
    if (instrumented) batch_ns_.record(drained > seal_ns ? drained - seal_ns : 0);
    free_tickets_.push_back(batch);
    --inflight_;
    drained_cv_.notify_all();
  }
}

void EvalEngine::append_sharded(tlm::TransactionRecord&& record) {
  ensure_sharded();
  if (options_.trace != nullptr && arena_.pending() == 0) {
    fill_start_ns_ = options_.trace->now_ns();
  }
  arena_.append(std::move(record));
  if (arena_.pending() >= options_.config.batch_size) seal_and_dispatch();
}

void EvalEngine::seal_and_dispatch() {
  const size_t records = arena_.pending();
  if (records == 0) return;
  // Backpressure: bound sealed-but-undrained batches.
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (inflight_ >= options_.config.max_inflight_batches) {
      const uint64_t w0 = tick();
      drained_cv_.wait(lock, [&] {
        return inflight_ < options_.config.max_inflight_batches;
      });
      if (m_backpressure_ns_ != nullptr) {
        const uint64_t w1 = tick();
        m_backpressure_ns_->add(0, w1 > w0 ? w1 - w0 : 0);
      }
    }
  }
  const RecordArena::Span span = arena_.seal(
      static_cast<uint32_t>(shards_.size()));
  if (options_.record_writer != nullptr) {
    // Producer thread, right after the seal: the log's frames are exactly
    // the sealed segments, in seal (= ingest) order.
    options_.record_writer->write_span(span.begin(), span.end());
  }
  Batch* batch = nullptr;
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_tickets_.empty()) {
      batch = free_tickets_.back();
      free_tickets_.pop_back();
    } else {
      tickets_.push_back(std::make_unique<Batch>());
      batch = tickets_.back().get();
    }
    seq = next_seq_++;
    ++inflight_;
    inflight_peak_ = std::max(inflight_peak_, inflight_);
    if (m_inflight_peak_ != nullptr) m_inflight_peak_->set(0, inflight_);
  }
  const uint64_t now = tick();
  batch->span = span;
  batch->seq = seq;
  batch->seal_ns = now;
  if (m_batches_ != nullptr) m_batches_->add(0, 1);
  if (m_queue_depth_ != nullptr) m_queue_depth_->set(0, records);
  if (options_.trace != nullptr) {
    // One fill span per batch on the dispatch lane, first append -> seal.
    // Fill periods are sequential on the producer, so these never overlap;
    // a shard_batch span with the same seq always starts after the fill
    // span ends (causality checked by tools/validate_trace.py).
    options_.trace->span(0, "batch_fill", fill_start_ns_,
                         now > fill_start_ns_ ? now - fill_start_ns_ : 0,
                         {{"records", records},
                          {"seq", seq},
                          {"shards", shards_.size()}});
  }
  // The ticket fields written above happen-before every consumer via the
  // shard queue mutexes.
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.queue.push_back(batch);
    shard.cv.notify_one();
  }
}

void EvalEngine::on_record(const tlm::TransactionRecord& record) {
  if (m_records_ != nullptr) m_records_->add(0, 1);
  if (options_.config.jobs == 1) {
    // Exact historical serial path: evaluate synchronously, no buffering.
    if (options_.record_writer != nullptr) options_.record_writer->append(record);
    const ObservablesContext ctx(record.observables);
    serial_pass_.run(record.end, ctx);
    for (checker::PropertyChecker* c : checkers_) c->evaluate(record.end, ctx);
    count_record(record.end);
    return;
  }
  const uint64_t end = record.end;
  append_sharded(tlm::TransactionRecord(record));  // the one per-record copy
  count_record(end);
}

void EvalEngine::on_record(tlm::TransactionRecord&& record) {
  if (options_.config.jobs != 1) {
    if (m_records_ != nullptr) m_records_->add(0, 1);
    const uint64_t end = record.end;
    append_sharded(std::move(record));  // zero-copy ingest
    count_record(end);
    return;
  }
  on_record(static_cast<const tlm::TransactionRecord&>(record));
}

void EvalEngine::on_records(const tlm::TransactionRecord* begin,
                            const tlm::TransactionRecord* end) {
  for (const tlm::TransactionRecord* r = begin; r != end; ++r) on_record(*r);
}

void EvalEngine::stop_workers() {
  if (!workers_running_) return;
  workers_running_ = false;
  for (Shard& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.stop = true;
    }
    shard.cv.notify_all();
  }
  // Workers drain their queues before exiting, so joining here never
  // abandons a sealed batch.
  for (Shard& shard : shards_) {
    if (shard.thread.joinable()) shard.thread.join();
  }
}

void EvalEngine::publish_metrics() {
  if (options_.metrics == nullptr) return;
  options_.metrics->merge_histogram("engine.batch_ns", batch_ns_);
  const RecordArena::Stats arena = arena_.stats();
  options_.metrics->counter("engine.arena_records").add(0, arena.records);
  options_.metrics->counter("engine.arena_segments")
      .add(0, arena.segments_allocated);
  options_.metrics->counter("engine.arena_recycled")
      .add(0, arena.segments_recycled);
  if (m_inflight_peak_ != nullptr) m_inflight_peak_->set(0, inflight_peak_);
  support::MetricsRegistry::Gauge& pool_hw =
      options_.metrics->gauge("wrapper.pool_capacity");
  support::MetricsRegistry::Gauge& table_peak =
      options_.metrics->gauge("wrapper.table_peak");
  uint64_t program_nodes = 0;
  uint64_t vector_batches = 0;
  uint64_t vector_lanes = 0;
  uint64_t lane_blocks = 0;
  for (checker::PropertyChecker* c : checkers_) {
    vector_batches += c->stats().vector_batches;
    vector_lanes += c->stats().vector_lanes_filled;
    lane_blocks += c->stats().lane_blocks;
    // The Sec. IV wrapper metrics cover abstracted properties only: the
    // merged histogram needs matching bounds. Serial, in registration
    // order: the merged histogram and the gauge high-water marks are
    // deterministic for a given transaction stream.
    if (!c->abstracted()) continue;
    options_.metrics->merge_histogram("wrapper.latency_ns",
                                      c->latency_histogram());
    pool_hw.set(0, c->stats().pool_capacity);
    table_peak.set(0, c->stats().table_peak);
    program_nodes += c->program()->size();
  }
  options_.metrics->gauge("checker.program_nodes").set(0, program_nodes);
  options_.metrics->counter("engine.vector_batches").add(0, vector_batches);
  options_.metrics->counter("engine.vector_lanes_filled")
      .add(0, vector_lanes);
  options_.metrics->counter("engine.lane_blocks").add(0, lane_blocks);
}

void EvalEngine::finish() {
  if (sharded_) {
    seal_and_dispatch();  // partial tail; no-op when empty (0-record flush)
    {
      std::unique_lock<std::mutex> lock(mu_);
      drained_cv_.wait(lock, [&] { return inflight_ == 0; });
    }
    stop_workers();
  }
  const uint64_t t0 = options_.trace != nullptr ? options_.trace->now_ns() : 0;
  for (checker::PropertyChecker* c : checkers_) c->finish();
  if (options_.trace != nullptr) {
    options_.trace->span_end(0, "retire", t0,
                             {{"checkers", checkers_.size()}});
  }
  publish_metrics();
  // Final snapshot line: every shard has joined and every property retired,
  // so this one is exact (identical across jobs and backends).
  if (options_.metrics_out != nullptr) {
    write_sample(last_record_time_, /*final=*/true);
  }
}

void EvalEngine::count_record(uint64_t sim_time_ns) {
  ++records_seen_;
  last_record_time_ = sim_time_ns;
  if (options_.metrics_out == nullptr || options_.metrics_interval == 0) {
    return;
  }
  if (records_seen_ % options_.metrics_interval == 0) {
    // Serial sync point: the line then carries exact coverage. Sharded
    // properties publish at the end of their shard's batches instead.
    if (options_.config.jobs == 1) {
      for (checker::PropertyChecker* c : checkers_) c->publish();
    }
    write_sample(sim_time_ns, /*final=*/false);
  }
}

void EvalEngine::write_sample(uint64_t sim_time_ns, bool final) {
  std::ostream& os = *options_.metrics_out;
  os << "{\"schema_version\":1,\"seq\":" << sample_seq_++
     << ",\"final\":" << (final ? "true" : "false")
     << ",\"records\":" << records_seen_
     << ",\"sim_time_ns\":" << sim_time_ns << ",\"metrics\":";
  support::MetricsSnapshot snap;
  if (options_.metrics != nullptr) snap = options_.metrics->snapshot();
  snap.write_json(os);
  os << ",\"coverage\":";
  if (options_.coverage != nullptr) {
    options_.coverage->write_json(os);
  } else {
    os << "[]";
  }
  os << "}\n";
}

}  // namespace repro::abv
