// Zero-copy checker ValueContext over a tlm::Snapshot.
//
// One context is built per evaluation point and shared read-only by every
// checker sampling that instant — the TLM engine builds it over a record
// held in the batch arena, the RTL environment over the per-edge sample
// snapshot. The context only borrows the snapshot and exposes it as the
// positional view (dictionary + value array). Data that must outlive it is
// copied out by the reader: a wrapper's failure-witness ring copies the
// value array into its own flat ring and holds the dictionary, so witnesses
// stay valid after the arena recycles the backing segment, and names are
// only materialized when a failure is logged.
#ifndef REPRO_ABV_SNAPSHOT_CONTEXT_H_
#define REPRO_ABV_SNAPSHOT_CONTEXT_H_

#include <cstdint>
#include <string_view>

#include "checker/checker.h"
#include "tlm/transaction.h"

namespace repro::abv {

class ObservablesContext : public checker::ValueContext {
 public:
  // Publishes the snapshot's key table and values as the positional view,
  // so checkers read their atoms by slot (see checker/slot_binding.h).
  explicit ObservablesContext(const tlm::Snapshot& values) : values_(values) {
    set_positional(&values.key_table(), values.data());
  }

  // Name-path lookup (checkers bind slots instead and report a missing
  // observable at bind time). Fails fast with the observable's name when the
  // record does not carry `name`; a silent garbage read would make verdicts
  // meaningless.
  uint64_t value(std::string_view name) const override;
  bool has(std::string_view name) const override;

 private:
  const tlm::Snapshot& values_;
};

}  // namespace repro::abv

#endif  // REPRO_ABV_SNAPSHOT_CONTEXT_H_
