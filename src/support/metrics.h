// Runtime metrics: counters, gauges and fixed-bucket histograms.
//
// The registry is built for the sharded evaluation engine's threading model:
// every metric owns one cache-line-padded atomic cell per shard, a shard
// task touches only its own cell with relaxed atomics (no locks, no
// cross-shard contention on the hot path), and a snapshot merges the cells
// in fixed shard order so the merged value is deterministic for a given set
// of per-cell values. Registration (`counter()` / `gauge()`) is mutex-
// protected and expected to happen during setup, before worker threads run;
// handles stay valid for the registry's lifetime.
//
// Histograms are plain mergeable value types: the producer (a wrapper, the
// dispatch thread) records into a private Histogram and merges it into the
// registry at finish(), serially, which keeps the hot path allocation- and
// synchronization-free.
#ifndef REPRO_SUPPORT_METRICS_H_
#define REPRO_SUPPORT_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace repro::support {

// Fixed-bucket histogram over uint64 values. `bounds` are inclusive upper
// bucket edges in ascending order; values above the last edge land in an
// implicit overflow bucket, so counts().size() == bounds().size() + 1.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<uint64_t> bounds);

  void record(uint64_t value);
  // `n` samples of `value` at once; the same buckets, total, sum and max as
  // n record(value) calls (n == 0 changes nothing).
  void record(uint64_t value, uint64_t n);
  // Merges `other` into this histogram; bucket bounds must match (an empty
  // histogram adopts the other's bounds).
  void merge(const Histogram& other);

  const std::vector<uint64_t>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& counts() const { return counts_; }
  uint64_t total() const { return total_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  bool empty() const { return total_ == 0; }

 private:
  std::vector<uint64_t> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

// Exponential bucket edges {first, first*2, ...}, `count` edges long.
std::vector<uint64_t> exponential_bounds(uint64_t first, size_t count);

// Deterministic point-in-time view of a registry (plus any histograms merged
// in at finish). Keys are sorted by name via std::map, so two snapshots of
// equal metric values serialize identically.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, uint64_t> gauges;
  std::map<std::string, Histogram> histograms;

  // One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  void write_json(std::ostream& os) const;
};

class MetricsRegistry {
 public:
  // Number of independent writer lanes ("shards"); lane s is only ever
  // written from the thread currently running shard s (the engine's shard
  // tasks never run the same shard concurrently, and lane 0 doubles as the
  // dispatch/setup thread's lane between rounds).
  explicit MetricsRegistry(size_t shards);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  size_t shards() const { return shards_; }

  class Counter {
   public:
    void add(size_t shard, uint64_t delta) {
      cells_[shard].v.fetch_add(delta, std::memory_order_relaxed);
    }
    uint64_t total() const;

   private:
    friend class MetricsRegistry;
    struct alignas(64) Cell {
      std::atomic<uint64_t> v{0};
    };
    explicit Counter(size_t shards) : cells_(shards) {}
    std::deque<Cell> cells_;
  };

  // A gauge keeps, per lane, the last written value and the high-water mark;
  // the merged value is the maximum across lanes (the natural merge for
  // depth/occupancy-style measurements).
  class Gauge {
   public:
    void set(size_t shard, uint64_t value) {
      cells_[shard].last.store(value, std::memory_order_relaxed);
      uint64_t peak = cells_[shard].peak.load(std::memory_order_relaxed);
      while (value > peak && !cells_[shard].peak.compare_exchange_weak(
                                 peak, value, std::memory_order_relaxed)) {
      }
    }
    uint64_t max() const;

   private:
    friend class MetricsRegistry;
    struct alignas(64) Cell {
      std::atomic<uint64_t> last{0};
      std::atomic<uint64_t> peak{0};
    };
    explicit Gauge(size_t shards) : cells_(shards) {}
    std::deque<Cell> cells_;
  };

  // Returns the metric with `name`, creating it on first use. Stable
  // references; intended for the setup phase (serialized internally).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  // Merges a producer-owned histogram under `name` (same-name merges
  // accumulate). Serialized; call from finish paths, not hot loops.
  void merge_histogram(const std::string& name, const Histogram& histogram);

  // Deterministic merged view: cells summed (counters) / maxed (gauges) in
  // lane order, names sorted.
  MetricsSnapshot snapshot() const;

 private:
  const size_t shards_;
  mutable std::mutex mu_;  // guards the maps, not the cells
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace repro::support

#endif  // REPRO_SUPPORT_METRICS_H_
