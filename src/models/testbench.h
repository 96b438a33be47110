// Simulation harness: builds and runs one (design, abstraction level,
// checker count) configuration and reports wall-clock time plus
// verification results. This is the engine behind the Table I / Fig. 6
// benchmarks and the integration tests.
#ifndef REPRO_MODELS_TESTBENCH_H_
#define REPRO_MODELS_TESTBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "abv/engine_config.h"
#include "abv/report.h"
#include "analysis/diagnostic.h"
#include "analysis/prune.h"
#include "psl/ast.h"
#include "rewrite/methodology.h"
#include "sim/kernel.h"
#include "support/metrics.h"

namespace repro::tlm {
class RecordSource;
}  // namespace repro::tlm

namespace repro::models {

enum class Design { kDes56, kColorConv };
enum class Level { kRtl, kTlmCa, kTlmAt };

const char* to_string(Design d);
const char* to_string(Level l);

// Inverse of to_string, accepting exactly the emitted names ("DES56",
// "ColorConv", "RTL", "TLM-CA", "TLM-AT") — how replay tools map a trace
// log's meta back onto a run configuration. Returns false on unknown names.
bool parse_design(const std::string& name, Design& out);
bool parse_level(const std::string& name, Level& out);

// Static property analysis (analysis::Driver) ahead of the simulation:
//   kOff    skip entirely (default; legacy behavior),
//   kOn     run and attach diagnostics to the result, always simulate,
//   kError  run and abort before simulating when any error-severity
//           diagnostic fires (the --Werror-analysis mode).
// The analysis never mutates the simulated configuration: for clean
// properties the simulation report is byte-identical with analysis on/off.
enum class AnalysisMode { kOff, kOn, kError };

// Observable names the verification environment of (design, level) exposes
// to checkers — the binding target of the analysis env-binding pass. Matches
// the signal bags / transaction snapshots built by run_simulation, including
// the testbench-added statics (monitor_en, ColorConv RTL's sof).
std::vector<std::string> level_observables(Design d, Level l);

// Observability knobs shared by the TLM runners (ignored at RTL except for
// failure_log_cap, which applies to every checker backend).
struct ObservabilityConfig {
  // When non-empty, the TLM runners write a Chrome trace-event JSON file
  // here (engine spans, failure instants).
  std::string trace_path;
  // Failure-witness ring depth per wrapper (0 disables capture). Ignored
  // for unabstracted replay (plain checkers carry no witnesses).
  size_t witness_depth = 8;
  // Maximum failure entries retained per checker/wrapper for diagnostics.
  size_t failure_log_cap = 64;
  // When non-empty, the TLM runners stream periodic JSONL snapshots of the
  // merged metrics registry + per-property coverage table here (one compact
  // object per line; validated by tools/validate_metrics.py).
  std::string metrics_path;
  // Records between two mid-run snapshot lines; 0 emits only the exact
  // final end-of-run line.
  size_t metrics_interval = 256;
  // When non-empty, the machine-readable prune plan (analysis::PrunePlan
  // write_json, schema_version 1) is written here. Ignored when pruning is
  // off.
  std::string prune_plan_path;
};

// Record-stream ingest selection (support::tracelog). The two paths are
// independent: a run may record, replay, or both (replaying while recording
// round-trips the log).
struct IngestConfig {
  // When non-empty, the ingested record stream is serialized here as a
  // versioned trace log (binary, or JSONL for .jsonl paths). At RTL the
  // stream is the sampled clock-edge sequence; at TLM it is the completed
  // transactions, framed per sealed engine batch.
  std::string record_path;
  // When non-empty, no simulation runs: the trace log here is replayed
  // through the identically-configured checker environment instead. The
  // log's meta (design, level, clock period, observable dictionary) must
  // match the run configuration. Reports are byte-identical to the live
  // run that produced the log (timing excluded).
  std::string replay_path;
};

// Property-abstraction knobs for the TLM-AT flow.
struct AbstractionConfig {
  // Push mode used when abstracting properties for TLM-AT.
  rewrite::PushMode push_mode = rewrite::PushMode::kOpaqueFixpoints;
  // Ablation: replay the *unabstracted* RTL properties at TLM-AT, counting
  // transactions as if they were clock events (the naive reuse the paper
  // argues against in Sec. III-A).
  bool at_replay_unabstracted = false;
};

// Pre-simulation static analysis knobs. Implicitly convertible from/to
// AnalysisMode, so `config.analysis = AnalysisMode::kOn` and
// `config.analysis == AnalysisMode::kOff` keep working.
struct AnalysisConfig {
  AnalysisMode mode = AnalysisMode::kOff;
  // Analysis-guided runtime pruning (analysis::PrunePlan): kOff simulates
  // every property; kSafe elides statically-true properties and derives
  // subsumed verdicts from their subsumer's instance; kAggressive
  // additionally elides statically-false properties with a derived failure.
  // Verdicts (per-property ok and the run verdict) are preserved; activity
  // counters shrink with the live set. With mode == kError pruned properties
  // still run and every derived verdict is cross-checked (PRN003).
  analysis::PruneMode prune = analysis::PruneMode::kOff;
  // Symbolic bounded trajectory evaluation feeding the prune planner
  // (analysis/symbolic.h): step/instant budget, 0 = off. Adds elide-grade
  // never-fails evidence beyond the structural StaticProver and parity-gated
  // dead-node program folds; reports stay byte-identical (the fold swaps
  // only the executed node table, never the cost accounting).
  size_t symbolic_budget = 0;

  AnalysisConfig() = default;
  AnalysisConfig(AnalysisMode m) : mode(m) {}  // NOLINT: intentional implicit
  operator AnalysisMode() const { return mode; }
};

// Layered run configuration: the identity of the run (design, level,
// property selection, workload) stays flat; tuning knobs live in nested
// option groups designed for designated initializers, e.g.
//   RunConfig config;
//   config.engine = {.jobs = 4, .max_inflight_batches = 3};
//   config.observability = {.trace_path = "at.trace.json"};
struct RunConfig {
  Design design = Design::kDes56;
  Level level = Level::kRtl;
  // Number of properties to check, in suite order; 0 disables ABV.
  size_t checkers = 0;
  // Explicit property selection (suite indices); overrides `checkers` when
  // non-empty. Used by the ablation benchmarks.
  std::vector<size_t> property_indices;
  // Workload size: DES56 operations or ColorConv pixels.
  size_t workload = 500;
  uint64_t seed = 42;
  psl::TimeNs clock_period_ns = 10;
  // Checker backend: compiled flat programs (default) or the tree
  // interpreter. Verdicts and reports are identical; only speed differs.
  bool compiled_checkers = true;
  // Extra properties appended after the suite selection; abstracted for
  // TLM-AT like any suite entry. Lets callers inject ad-hoc properties
  // (e.g. a deliberately failing witness demo) without editing the suite.
  std::vector<psl::RtlProperty> extra_properties;

  // Evaluation-engine knobs (jobs, batch_size, max_inflight_batches),
  // passed to abv::EvalEngine verbatim. Ignored at RTL; batch_size and
  // max_inflight_batches are ignored at jobs == 1 (serial path).
  abv::EngineConfig engine;
  ObservabilityConfig observability;
  AbstractionConfig abstraction;
  AnalysisConfig analysis;
  IngestConfig ingest;
};

struct RunResult {
  double wall_seconds = 0.0;
  sim::Time sim_end_ns = 0;
  uint64_t kernel_events = 0;
  uint64_t delta_cycles = 0;
  uint64_t transactions = 0;  // 0 at RTL
  size_t ops_completed = 0;
  size_t mismatches = 0;          // driver self-check failures
  size_t properties_deleted = 0;  // suite entries removed by Fig. 4 rules
  abv::Report report;             // empty when checkers == 0
  // Merged runtime metrics: engine/wrapper metrics (TLM with ABV enabled)
  // plus sim.* kernel gauges, filled for every run.
  support::MetricsSnapshot metrics;
  bool functional_ok = false;
  bool properties_ok = false;  // true also when checkers == 0
  // Diagnostics from the pre-simulation analysis (empty when analysis is
  // off). analysis_ok is false iff an error-severity diagnostic fired; with
  // AnalysisMode::kError that also means the simulation did not run.
  std::vector<analysis::Diagnostic> analysis_diagnostics;
  bool analysis_ok = true;
  // The prune plan the run executed under (mode kOff and empty decisions
  // when pruning was disabled). Plan diagnostics (PRN001/002/004, plus
  // PRN003 cross-check errors under AnalysisMode::kError) are merged into
  // analysis_diagnostics.
  analysis::PrunePlan prune_plan;
  // Ingest failure: unreadable/corrupt replay input, meta that contradicts
  // the run configuration, a record-log write error, or a record dictionary
  // lacking an observable a property reads (the slot-binding error names
  // both; see checker/slot_binding.h). When
  // non-empty the other result fields are meaningless; CLIs report it and
  // exit with the usage/configuration status.
  std::string ingest_error;
};

// Runs one configuration to completion. With config.ingest.replay_path set
// no simulation runs: the recorded stream is replayed through the same
// checker environment the live run would have built.
RunResult run_simulation(const RunConfig& config);

// Checks `config` against an explicit record source — the RecordSource half
// of the ingest redesign: any producer of the stream (live adapter, trace
// replay, synthetic) yields the same report the subscribed live run would.
// The source's meta is NOT validated against the config here; callers that
// care (the replay path above) validate first.
RunResult run_simulation(const RunConfig& config, tlm::RecordSource& source);

}  // namespace repro::models

#endif  // REPRO_MODELS_TESTBENCH_H_
