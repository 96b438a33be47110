// The per-record work that does not depend on the property: one pass per
// transaction (TLM) or sampled clock edge (RTL), shared by every property of
// its owner.
//
// A RecordPass evaluates the owner's AtomTable (every registered property's
// atoms, guards, antecedents and boolean bodies; see slot_binding.h) and
// captures the record into one failure-witness ring. The serial engine path,
// each engine shard and the RTL environment own one pass; every checker
// registered with them attaches to it and then only reads its own bits. A
// checker used on its own owns a private pass, so both uses run the same
// binding, evaluation and capture code.
#ifndef REPRO_CHECKER_RECORD_PASS_H_
#define REPRO_CHECKER_RECORD_PASS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "checker/slot_binding.h"
#include "checker/trace.h"
#include "psl/ast.h"

namespace repro::checker {

// The last `depth()` records, written circularly (next_ is the overwrite
// position once full). A positional record is copied by value into its row
// of the flat `values_` (width_ values per slot) and keeps its dictionary;
// names are only paired with values when a failure asks for a snapshot. The
// slot's dictionary is only reassigned when it differs, so a steady stream
// over one dictionary touches no reference count. A name-path record (no
// positional view) keeps the context's own witness_values() snapshot
// instead. Values are copied, so witnesses stay valid after the producer
// recycles the record.
class WitnessRing {
 public:
  // Resizes the ring; buffered entries are discarded. 0 disables capture.
  void set_depth(size_t depth);
  size_t depth() const { return depth_; }

  void capture(psl::TimeNs time, const ValueContext& values);

  // The last min(depth, captured) records, oldest first, with names.
  std::vector<WitnessEntry> snapshot(size_t depth) const;

 private:
  struct Slot {
    psl::TimeNs time = 0;
    std::shared_ptr<const Dictionary> dictionary;  // positional entries
    std::shared_ptr<const WitnessValues> named;    // name-path entries
  };
  // Ring slot the next captured record overwrites.
  size_t next_slot();

  size_t depth_ = 0;
  std::vector<Slot> ring_;
  size_t next_ = 0;
  std::vector<uint64_t> values_;
  size_t width_ = 0;
};

class RecordPass {
 public:
  AtomTable& atoms() { return atoms_; }
  WitnessRing& witnesses() { return witnesses_; }

  // One record at time `time`: the table's bits and one witness capture.
  void run(psl::TimeNs time, const ValueContext& values) {
    atoms_.load(values);
    if (witnesses_.depth() > 0) witnesses_.capture(time, values);
  }

 private:
  AtomTable atoms_;
  WitnessRing witnesses_;
};

}  // namespace repro::checker

#endif  // REPRO_CHECKER_RECORD_PASS_H_
