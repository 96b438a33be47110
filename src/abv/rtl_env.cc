#include "abv/rtl_env.h"

#include "abv/snapshot_context.h"
#include "support/tracelog.h"

namespace repro::abv {

std::shared_ptr<const tlm::Snapshot::Keys> SignalBag::keys() const {
  if (keys_cache_ == nullptr) {
    auto keys = std::make_shared<tlm::Snapshot::Keys>();
    keys->reserve(getters_.size());
    for (const auto& [name, getter] : getters_) keys->push_back(name);
    keys_cache_ = std::move(keys);
  }
  return keys_cache_;
}

void SignalBag::sample_into(tlm::Snapshot& snapshot) const {
  // The snapshot was built over keys() (map order), so index i is the i-th
  // getter: one pass, no name lookups.
  size_t i = 0;
  for (const auto& [name, getter] : getters_) snapshot.set_at(i++, getter());
}

void RtlAbvEnv::add_property(const psl::RtlProperty& property) {
  checker::PropertyChecker* checker = add_checker(property);
  if (checker == nullptr) return;
  checker->attach(pass_);
  kinds_.push_back(property.context.kind);
  switch (property.context.kind) {
    case psl::ClockContext::Kind::kTrue:
    case psl::ClockContext::Kind::kClkPos:
      any_pos_ = true;
      break;
    case psl::ClockContext::Kind::kClkNeg:
      any_neg_ = true;
      break;
    case psl::ClockContext::Kind::kClk:
      any_pos_ = true;
      any_neg_ = true;
      break;
  }
}

void RtlAbvEnv::attach(sim::Clock& clock) {
  // One value vector reused for every sampled edge; the key table is shared
  // with the bag (single allocation for the whole run).
  sample_buffer_ = tlm::Snapshot(signals_.keys());
  // Sample after the design settles: edge callbacks run in the evaluate
  // phase; signal writes commit in the update phase; watcher cascades run in
  // the following deltas. Three nested deltas cover the register-style
  // single-stage processes of the bundled models.
  //
  // A record writer forces both edges: the log then carries the full edge
  // stream whatever the current property mix, and the extra samples are
  // invisible to checkers (on_sample filters by edge kind as always).
  if (any_pos_ || record_writer_ != nullptr) {
    clock.on_posedge([this] {
      kernel_.schedule_delta([this] {
        kernel_.schedule_delta([this] {
          kernel_.schedule_delta([this] { sample(/*rising=*/true); });
        });
      });
    });
  }
  if (any_neg_ || record_writer_ != nullptr) {
    clock.on_negedge([this] {
      kernel_.schedule_delta([this] {
        kernel_.schedule_delta([this] {
          kernel_.schedule_delta([this] { sample(/*rising=*/false); });
        });
      });
    });
  }
}

void RtlAbvEnv::sample(bool rising) {
  const psl::TimeNs now = kernel_.now();
  // Read the design once, share the snapshot with every checker selected at
  // this edge (was: each checker pulled every signal through the bag's
  // getters independently).
  signals_.sample_into(sample_buffer_);
  if (record_writer_ != nullptr) {
    // Each evaluation point becomes one record; replay feeds the same
    // (time, edge, snapshot) triples back through on_sample.
    tlm::TransactionRecord record;
    record.start = now;
    record.end = now;
    record.command = tlm::Command::kRead;
    record.address = rising ? 0 : 1;
    record.observables = sample_buffer_;
    record_writer_->append(record);
  }
  on_sample(now, rising, sample_buffer_);
}

void RtlAbvEnv::on_sample(psl::TimeNs now, bool rising,
                          const tlm::Snapshot& values) {
  const ObservablesContext ctx(values);
  bool ran = false;
  for (size_t i = 0; i < checkers_.size(); ++i) {
    const psl::ClockContext::Kind kind = kinds_[i];
    const bool wants =
        kind == psl::ClockContext::Kind::kClk ||
        (rising && (kind == psl::ClockContext::Kind::kClkPos ||
                    kind == psl::ClockContext::Kind::kTrue)) ||
        (!rising && kind == psl::ClockContext::Kind::kClkNeg);
    if (!wants) continue;
    if (!ran) {
      pass_.run(now, ctx);
      ran = true;
    }
    checkers_[i]->evaluate(now, ctx);
  }
}

void RtlAbvEnv::on_records(const tlm::TransactionRecord* begin,
                           const tlm::TransactionRecord* end) {
  for (const tlm::TransactionRecord* r = begin; r != end; ++r) {
    if (record_writer_ != nullptr) record_writer_->append(*r);
    on_sample(r->end, r->address == 0, r->observables);
  }
}

}  // namespace repro::abv
