#include "abv/eval_engine.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <string>

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
  return config;
}

EvalEngine::EvalEngine(Options options)
    : options_(with_clamped_config(options)),
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
    // Lockstep accounting is published at finish(); registering the names
    // up front keeps the snapshot key set identical across jobs and
    // properties.
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
  if (!shards_.empty()) return;
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
}

uint64_t EvalEngine::min_done() const {
  uint64_t done = UINT64_MAX;
  for (const Shard& shard : shards_) done = std::min(done, shard.done);
  return done;
}

void EvalEngine::shard_loop(size_t s) {
  Shard& shard = shards_[s];
  for (uint64_t seq = 0;; ++seq) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      sealed_cv_.wait(lock, [&] { return stop_ || sealed_ > seq; });
      if (sealed_ == seq) return;  // stop requested and fully drained
    }
    process_batch(shard, s, seq);
  }
}

void EvalEngine::process_batch(Shard& shard, size_t s, uint64_t seq) {
  const bool instrumented =
      options_.trace != nullptr || options_.metrics != nullptr;
  const uint64_t t0 = instrumented ? tick() : 0;
  const Slot& slot = ring_[seq % kSlots];
  for (size_t i = 0; i < slot.size; ++i) {
    const tlm::TransactionRecord& record = slot.records[i];
    const ObservablesContext ctx(record.observables);
    shard.pass.run(record.end, ctx);
    for (checker::PropertyChecker* c : shard.checkers) {
      c->evaluate(record.end, ctx);
    }
  }
  // Sync point: this shard is the only writer of its properties' rows.
  for (checker::PropertyChecker* c : shard.checkers) c->publish();
  if (instrumented) {
    const uint64_t t1 = tick();
    const uint64_t busy = t1 > t0 ? t1 - t0 : 0;
    const size_t lane = s + 1;
    if (m_shard_busy_ns_ != nullptr) m_shard_busy_ns_->add(lane, busy);
    if (m_shard_records_ != nullptr) m_shard_records_->add(lane, slot.size);
    if (options_.trace != nullptr) {
      options_.trace->span(static_cast<uint32_t>(s) + 1, "shard_batch", t0,
                           busy, {{"records", slot.size}, {"seq", seq}});
    }
  }
  // Last touch of the records: once every done passes seq the producer may
  // refill the slot (seal_ns is read under the lock that orders the refill).
  const uint64_t drained = instrumented ? tick() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  ++shard.done;
  if (min_done() == seq + 1) {  // the last reader of this batch
    if (instrumented) {
      batch_ns_.record(drained > slot.seal_ns ? drained - slot.seal_ns : 0);
    }
    done_cv_.notify_one();
  }
}

void EvalEngine::append_sharded(const tlm::TransactionRecord& record) {
  ensure_sharded();
  if (!filling_) claim_slot();
  Slot& slot = ring_[sealed_ % kSlots];
  if (slot.size < slot.records.size()) {
    slot.records[slot.size] = record;  // reuses the slot record's buffers
  } else {
    slot.records.push_back(record);
  }
  if (++slot.size == kBatchRecords) seal();
}

void EvalEngine::claim_slot() {
  // Batch `seq` refills slot seq % kSlots, whose previous batch is
  // seq - kSlots: backpressure until every shard has finished that one.
  const uint64_t seq = sealed_;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto reclaimable = [&] {
      return seq < kSlots || min_done() > seq - kSlots;
    };
    if (!reclaimable()) {
      const uint64_t w0 = tick();
      done_cv_.wait(lock, reclaimable);
      if (m_backpressure_ns_ != nullptr) {
        const uint64_t w1 = tick();
        m_backpressure_ns_->add(0, w1 > w0 ? w1 - w0 : 0);
      }
    }
    // Sealed batches some shard is still reading while this one fills: at
    // most kMaxInflight.
    if (m_inflight_peak_ != nullptr) m_inflight_peak_->set(0, seq - min_done());
  }
  ring_[seq % kSlots].size = 0;
  filling_ = true;
  if (options_.trace != nullptr) fill_start_ns_ = options_.trace->now_ns();
}

void EvalEngine::seal() {
  const uint64_t seq = sealed_;
  Slot& slot = ring_[seq % kSlots];
  const uint64_t now = tick();
  slot.seal_ns = now;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++sealed_;
  }
  sealed_cv_.notify_all();
  filling_ = false;
  if (m_batches_ != nullptr) m_batches_->add(0, 1);
  if (m_queue_depth_ != nullptr) m_queue_depth_->set(0, slot.size);
  if (options_.trace != nullptr) {
    // One fill span per batch on the dispatch lane, first append -> seal.
    // Fill periods are sequential on the producer, so these never overlap;
    // a shard_batch span with the same seq always starts after the fill
    // span ends (causality checked by tools/validate_trace.py).
    options_.trace->span(0, "batch_fill", fill_start_ns_,
                         now > fill_start_ns_ ? now - fill_start_ns_ : 0,
                         {{"records", slot.size},
                          {"seq", seq},
                          {"shards", shards_.size()}});
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
  // The serial path's framing: the log is identical for any jobs.
  if (options_.record_writer != nullptr) {
    options_.record_writer->append(record);
  }
  append_sharded(record);  // the one per-record copy
  count_record(record.end);
}

void EvalEngine::on_records(const tlm::TransactionRecord* begin,
                            const tlm::TransactionRecord* end) {
  for (const tlm::TransactionRecord* r = begin; r != end; ++r) on_record(*r);
}

void EvalEngine::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  sealed_cv_.notify_all();
  // Workers read every sealed batch before exiting, so joining here never
  // abandons one. A second call (finish, then the destructor) joins nothing.
  for (Shard& shard : shards_) {
    if (shard.thread.joinable()) shard.thread.join();
  }
}

void EvalEngine::publish_metrics() {
  if (options_.metrics == nullptr) return;
  options_.metrics->merge_histogram("engine.batch_ns", batch_ns_);
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
  if (filling_) seal();  // the partial tail
  stop_workers();
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
