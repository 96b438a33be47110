// Aggregated verification report across the checkers of one simulation run.
#ifndef REPRO_ABV_REPORT_H_
#define REPRO_ABV_REPORT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "checker/checker.h"
#include "support/metrics.h"

namespace repro::abv {

struct PropertyReport {
  std::string name;
  uint64_t events = 0;
  uint64_t activations = 0;
  uint64_t holds = 0;
  uint64_t failures = 0;
  uint64_t uncompleted = 0;
  uint64_t steps = 0;
  // Coverage & vacuity telemetry (the schema_version 2 "coverage" section;
  // see support/coverage.h for the counter semantics).
  uint64_t trivial = 0;
  uint64_t real_passes = 0;
  uint64_t vacuous_passes = 0;
  uint64_t missed_deadlines = 0;
  uint64_t node_visits = 0;
  // Activation-to-verdict sim-time latency, one sample per retirement.
  support::Histogram latency_ns;
  // Logged violations (capped at the checker), with the failure-witness ring
  // captured at verdict time for abstracted properties.
  std::vector<checker::Failure> failure_log;
  // Prune-plan accounting: empty for live rows; "elide" / "subsumed" for
  // rows whose verdict was derived instead of simulated. `derived_from`
  // names the evidence: "static" for elided rows, the subsuming property's
  // name for subsumed rows. Derived rows carry zero activity counters; the
  // verdict contract (ok(), all_ok) is what pruning preserves.
  std::string prune;
  std::string derived_from;

  bool ok() const { return failures == 0; }
  // The run produced no real evidence about this property: it never failed
  // and never passed with its antecedent fired.
  bool dynamically_vacuous() const {
    return failures == 0 && real_passes == 0;
  }
};

// Per-property difference between two reports (other minus this). Only
// fields that can legitimately differ between equivalent runs are counted;
// a property present on one side only contributes its full (signed) counts.
struct PropertyDelta {
  std::string name;
  int64_t events = 0;
  int64_t activations = 0;
  int64_t holds = 0;
  int64_t failures = 0;
  int64_t uncompleted = 0;
  int64_t steps = 0;
  int64_t real_passes = 0;
  int64_t vacuous_passes = 0;
  int64_t missed_deadlines = 0;

  bool zero() const {
    return events == 0 && activations == 0 && holds == 0 && failures == 0 &&
           uncompleted == 0 && steps == 0 && real_passes == 0 &&
           vacuous_passes == 0 && missed_deadlines == 0;
  }
  // e.g. "p1: holds -2, failures +2".
  std::string to_string() const;
};

// Run-variant data attached to the JSON report under "timing". Everything
// outside this section is deterministic for a given stimulus, so reports
// from runs at different worker counts are byte-identical when the timing
// section is omitted.
struct ReportTiming {
  double wall_seconds = 0.0;
  size_t jobs = 1;
  uint64_t records = 0;  // transaction records dispatched
  support::MetricsSnapshot metrics;
};

class Report {
 public:
  void add(const checker::PropertyChecker& checker);
  // Adds a pre-built row for a property that never spawned a checker (the
  // prune plan derived its verdict); `row.prune` must be set.
  void add_derived(PropertyReport row);

  const std::vector<PropertyReport>& properties() const { return properties_; }

  // Reorders the rows by property name (stable). Rows are collected in
  // registration order, which is already independent of the evaluation
  // engine's worker count; sorting gives a canonical order for diffing
  // reports across runs that registered properties differently.
  void sort_by_name();

  // Non-zero per-property deltas (other minus this), matched by name.
  // Empty result == the two reports agree on every counted field.
  std::vector<PropertyDelta> diff(const Report& other) const;

  bool all_ok() const;
  uint64_t total_failures() const;
  uint64_t total_activations() const;

  // Human-readable table, one row per property, plus a totals row. Columns
  // are sized to the longest value so long property names stay aligned.
  void print(std::ostream& os) const;

  // Machine-readable report (stable schema, schema_version 2). Version 2
  // adds a top-level "coverage" array (per-property vacuity split, missed
  // deadlines, evaluation cost, latency histogram); every schema_version 1
  // key is unchanged, so v1 consumers that ignore unknown keys keep
  // working. With `timing == nullptr` the output depends only on the
  // verification results, not on worker count or wall time.
  void write_json(std::ostream& os, const ReportTiming* timing = nullptr) const;

 private:
  std::vector<PropertyReport> properties_;
};

}  // namespace repro::abv

#endif  // REPRO_ABV_REPORT_H_
