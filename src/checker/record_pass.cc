#include "checker/record_pass.h"

#include <algorithm>

namespace repro::checker {

void WitnessRing::set_depth(size_t depth) {
  depth_ = depth;
  ring_.clear();
  ring_.shrink_to_fit();
  next_ = 0;
  values_.clear();
  values_.shrink_to_fit();
  width_ = 0;
}

size_t WitnessRing::next_slot() {
  if (ring_.size() < depth_) {
    ring_.emplace_back();
    return ring_.size() - 1;
  }
  const size_t slot = next_;
  next_ = (next_ + 1) % depth_;
  return slot;
}

void WitnessRing::capture(psl::TimeNs time, const ValueContext& values) {
  const ValueContext::Positional& positional = values.positional();
  if (positional.dictionary == nullptr) {
    // Name path: only the context can enumerate its signals.
    auto observables = values.witness_values();
    if (observables != nullptr) {
      Slot& entry = ring_[next_slot()];
      entry.time = time;
      entry.dictionary.reset();
      entry.named = std::move(observables);
    }
    return;
  }
  const std::shared_ptr<const Dictionary>& dictionary = *positional.dictionary;
  if (dictionary == nullptr) return;  // an empty record carries nothing
  const size_t n = dictionary->size();
  if (n > width_) {
    // Wider than any dictionary so far: re-lay the rows out at the new
    // width (once per growth, not per record).
    std::vector<uint64_t> wider(depth_ * n, 0);
    for (size_t row = 0; row < ring_.size(); ++row) {
      std::copy_n(values_.begin() + static_cast<std::ptrdiff_t>(row * width_),
                  width_, wider.begin() + static_cast<std::ptrdiff_t>(row * n));
    }
    values_ = std::move(wider);
    width_ = n;
  }
  const size_t slot = next_slot();
  Slot& entry = ring_[slot];
  entry.time = time;
  if (entry.dictionary != dictionary) entry.dictionary = dictionary;
  entry.named.reset();
  std::copy_n(positional.values, n,
              values_.begin() + static_cast<std::ptrdiff_t>(slot * width_));
}

std::vector<WitnessEntry> WitnessRing::snapshot(size_t depth) const {
  // Oldest first: once the ring is full, next_ points at the oldest entry;
  // before that, insertion order is already chronological. Positional
  // entries get their names here, from the dictionary they arrived over.
  const size_t count = std::min(depth, ring_.size());
  std::vector<WitnessEntry> out;
  out.reserve(count);
  for (size_t i = ring_.size() - count; i < ring_.size(); ++i) {
    const size_t slot = (next_ + i) % ring_.size();
    const Slot& entry = ring_[slot];
    if (entry.dictionary == nullptr) {
      out.push_back({entry.time, entry.named});
      continue;
    }
    const Dictionary& names = *entry.dictionary;
    auto observables = std::make_shared<WitnessValues>();
    observables->reserve(names.size());
    for (size_t k = 0; k < names.size(); ++k) {
      observables->emplace_back(names[k], values_[slot * width_ + k]);
    }
    out.push_back({entry.time, std::move(observables)});
  }
  return out;
}

}  // namespace repro::checker
