#include "support/metrics.h"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "support/json.h"

namespace repro::support {

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::record(uint64_t value) { record(value, 1); }

void Histogram::record(uint64_t value, uint64_t n) {
  if (n == 0) return;
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  if (counts_.empty()) counts_.resize(1, 0);  // default-constructed: 1 bucket
  counts_[std::min(bucket, counts_.size() - 1)] += n;
  total_ += n;
  sum_ += value * n;
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
  if (other.total_ == 0 && other.bounds_.empty()) return;
  if (counts_.empty() || (bounds_.empty() && total_ == 0)) {
    *this = other;
    return;
  }
  assert(bounds_ == other.bounds_ && "histogram bucket bounds must match");
  for (size_t i = 0; i < counts_.size() && i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

std::vector<uint64_t> exponential_bounds(uint64_t first, size_t count) {
  std::vector<uint64_t> bounds;
  bounds.reserve(count);
  uint64_t edge = first;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= 2;
  }
  return bounds;
}

uint64_t MetricsRegistry::Counter::total() const {
  uint64_t total = 0;
  for (const Cell& cell : cells_) total += cell.v.load(std::memory_order_relaxed);
  return total;
}

uint64_t MetricsRegistry::Gauge::max() const {
  uint64_t value = 0;
  for (const Cell& cell : cells_) {
    value = std::max(value, cell.peak.load(std::memory_order_relaxed));
  }
  return value;
}

MetricsRegistry::MetricsRegistry(size_t shards)
    : shards_(std::max<size_t>(1, shards)) {}

MetricsRegistry::Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, Counter(shards_)).first;
  }
  return it->second;
}

MetricsRegistry::Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, Gauge(shards_)).first;
  }
  return it->second;
}

void MetricsRegistry::merge_histogram(const std::string& name,
                                      const Histogram& histogram) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name].merge(histogram);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter.total();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge.max();
  }
  snap.histograms = histograms_;
  return snap;
}

namespace {

void write_uint_map(std::ostream& os, const std::map<std::string, uint64_t>& m) {
  os << '{';
  bool first = true;
  for (const auto& [name, value] : m) {
    if (!first) os << ',';
    first = false;
    json::write_string(os, name);
    os << ':' << value;
  }
  os << '}';
}

void write_uint_vector(std::ostream& os, const std::vector<uint64_t>& v) {
  os << '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) os << ',';
    os << v[i];
  }
  os << ']';
}

}  // namespace

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\"counters\":";
  write_uint_map(os, counters);
  os << ",\"gauges\":";
  write_uint_map(os, gauges);
  os << ",\"histograms\":{";
  bool first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) os << ',';
    first = false;
    json::write_string(os, name);
    os << ":{\"bounds\":";
    write_uint_vector(os, h.bounds());
    os << ",\"counts\":";
    write_uint_vector(os, h.counts());
    os << ",\"total\":" << h.total() << ",\"sum\":" << h.sum()
       << ",\"max\":" << h.max() << '}';
  }
  os << "}}";
}

}  // namespace repro::support
