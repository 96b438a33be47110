// Live per-property coverage & vacuity counters.
//
// A CoverageTable holds one Row per property. The checker that owns a
// property is the only writer of that property's Row; it mirrors its
// bookkeeping stats into the Row with relaxed atomic stores at sync points,
// not per event: its publish() runs before each mid-run snapshot line on the
// serial engine path, at the end of each shard batch, and at finish().
// Readers (the EvalEngine snapshot sampler, the service daemon once it
// exists) read the whole table concurrently with relaxed loads. Because each
// Row has exactly one writer, plain stores of the current totals suffice —
// no read-modify-write is needed. A serial mid-run line is exact; a sharded
// one observes some recent, internally-plausible prefix of the run. The
// end-of-run values are exact: `EvalEngine::finish()` joins every shard
// before the final sample is taken.
//
// Semantics of the counters (see DESIGN.md §13):
//   activations       instances anchored (one per matched activation event)
//   holds             instances retired with verdict true
//   failures          instances retired with verdict false
//   uncompleted       instances truncated at end-of-sim while still pending
//   trivial           activations that resolved at their anchor event
//   real_passes       holds whose antecedent/guard fired ("consequent
//                     exercised") — the pass constitutes real evidence
//   vacuous_passes    holds whose antecedent never fired; holds ==
//                     real_passes + vacuous_passes
//   missed_deadlines  wrapper table entries evaluated past their deadline
//                     (TLM-AT out-of-order streams); always 0 for RTL
//   node_visits       steps x formula node count — a deterministic,
//                     backend-invariant evaluation-cost proxy
//
// A property is *dynamically vacuous* when the run produced no real
// evidence about it: no failures and no real passes.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace repro::support {

class CoverageTable {
 public:
  // One writer (the owning checker's thread), many readers.
  struct Row {
    std::atomic<uint64_t> activations{0};
    std::atomic<uint64_t> holds{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> uncompleted{0};
    std::atomic<uint64_t> trivial{0};
    std::atomic<uint64_t> real_passes{0};
    std::atomic<uint64_t> vacuous_passes{0};
    std::atomic<uint64_t> missed_deadlines{0};
    std::atomic<uint64_t> node_visits{0};
  };

  // Plain-value copy of a Row, taken with relaxed loads.
  struct RowSnapshot {
    std::string name;
    // Prune-plan annotation ("elide", "subsumed"); empty for live rows.
    std::string prune;
    uint64_t activations = 0;
    uint64_t holds = 0;
    uint64_t failures = 0;
    uint64_t uncompleted = 0;
    uint64_t trivial = 0;
    uint64_t real_passes = 0;
    uint64_t vacuous_passes = 0;
    uint64_t missed_deadlines = 0;
    uint64_t node_visits = 0;

    bool dynamically_vacuous() const {
      return failures == 0 && real_passes == 0;
    }
  };

  // Returns the row for `property`, creating it on first use. The
  // reference stays valid for the table's lifetime (rows live in a deque
  // and are never erased). Thread-safe.
  Row& row(const std::string& property);

  // Attaches a prune-plan label to `property`'s row (creating the row), so
  // pruned properties are accounted explicitly instead of silently missing
  // from the table. Snapshots carry the label; write_json emits a "prune"
  // key only for labelled rows, keeping unpruned output unchanged.
  void annotate(const std::string& property, std::string label);

  // Rows in registration order, read with relaxed loads.
  std::vector<RowSnapshot> snapshot() const;

  // Compact single-line JSON array (JSONL-safe), registration order:
  //   [{"name":"p","activations":3,...,"dynamically_vacuous":false},...]
  void write_json(std::ostream& os) const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::deque<std::pair<std::string, Row>> rows_;
  std::vector<std::pair<std::string, std::string>> labels_;  // property, label
};

}  // namespace repro::support
