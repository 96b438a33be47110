// colorconv_abv: ColorConv flow, including failure detection on a buggy
// TLM model.
//
// Part 1 runs the 12-property suite at RTL, TLM-CA and TLM-AT and shows all
// properties passing. Part 2 injects a bug into a copy of the abstracted
// checker environment — it replays the correct transaction stream but with a
// corrupted luminance value — to show that the abstracted checkers actually
// catch wrong TLM implementations (the purpose of the whole flow), and that
// the failure verdict carries a witness ring of the transactions leading up
// to it.
//
// Usage: colorconv_abv [--jobs N] [--witness-depth N] [--failure-log-cap N]
//                      [--trace-out FILE] [--report-out FILE]
//                      [--metrics-out FILE] [--metrics-interval N]
//                      [--dump-passes] [--record-out FILE] [--replay FILE]
//   --metrics-out FILE  stream JSONL metrics/coverage snapshots of the TLM-AT
//                       run (validate with tools/validate_metrics.py).
//   --metrics-interval N
//                       records between two mid-run snapshot lines (default
//                       256; 0 = only the final line).
//   --dump-passes       print every rewrite-pipeline pass per property before
//                       the runs.
//   --analyze           run the static property analysis before each run and
//                       print its diagnostics (the symbolic pass runs only in
//                       psl_lint --symbolic).
//   --Werror-analysis   like --analyze, but abort (exit 1) without simulating
//                       when the analysis reports an error.
//   --prune MODE        analysis-guided runtime pruning (off|safe|aggressive,
//                       default off): elide statically-decided properties and
//                       derive subsumed verdicts from their subsumer's
//                       checker. Verdicts are unchanged; with
//                       --Werror-analysis pruned checkers still run and every
//                       derived verdict is cross-checked (PRN003).
//   --prune-plan-out FILE  write the machine-readable prune plan JSON
//                       (TLM-AT run).
//   --record-out FILE   serialize the checked record stream of the TLM-AT run
//                       as a versioned trace log (support::tracelog; binary,
//                       or JSONL for .jsonl paths).
//   --replay FILE       no simulation: replay the trace log recorded at FILE
//                       through the checker configuration of its meta (design
//                       must be ColorConv; level picks the RTL, TLM-CA or
//                       TLM-AT environment). Reports are byte-identical to
//                       the recording run (timing excluded).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "abv_options.h"
#include "analysis/prune.h"
#include "checker/checker.h"
#include "models/colorconv/colorconv_core.h"
#include "models/properties.h"
#include "models/testbench.h"
#include "rewrite/methodology.h"
#include "support/tracelog.h"

using namespace repro;
using examples::AbvOptions;
using models::Design;
using models::Level;

namespace {

// Replays a tiny handmade stream against the abstracted c2 checker
// ("y <= 235 eight cycles after every pixel"), with a deliberately wrong y.
// Returns true when the checker both fails and logs the failure with a
// non-empty witness ring.
bool buggy_model_is_caught() {
  const models::PropertySuite suite = models::colorconv_suite();
  rewrite::AbstractionOptions options;
  options.clock_period_ns = suite.clock_period_ns;
  options.abstracted_signals = suite.abstracted_signals;
  // c2 is the second property of the suite.
  rewrite::AbstractionOutcome outcome =
      rewrite::abstract_property(suite.properties[1], options);
  checker::PropertyChecker wrapper(*outcome.property, suite.clock_period_ns);

  auto transaction = [&](psl::TimeNs t, bool ds, uint64_t y) {
    checker::MapContext values;
    values.set("ds", ds ? 1 : 0);
    values.set("r", 10);
    values.set("g", 20);
    values.set("b", 30);
    values.set("sof", 0);
    values.set("rdy", ds ? 0 : 1);
    values.set("y", y);
    values.set("cb", 128);
    values.set("cr", 128);
    wrapper.on_event(t, values);
  };
  transaction(100, true, 0);    // pixel accepted
  transaction(180, false, 255); // result 8 cycles later: y out of range!
  wrapper.finish();
  if (wrapper.stats().failures == 0 || wrapper.failures().empty()) return false;
  const checker::Failure& failure = wrapper.failures().front();
  std::printf("witness ring at the verdict (%zu transaction%s):\n",
              failure.witness.size(), failure.witness.size() == 1 ? "" : "s");
  for (const checker::WitnessEntry& entry : failure.witness) {
    std::printf("  t=%4llu ns:", static_cast<unsigned long long>(entry.time));
    if (entry.observables != nullptr) {
      for (const auto& [name, value] : *entry.observables) {
        std::printf(" %s=%llu", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
    }
    std::printf("\n");
  }
  return !failure.witness.empty();
}

// --replay: no simulation. The log's meta picks the environment; the checker
// configuration mirrors the live flow's, so the replayed report matches the
// recording run's.
int run_replay(const char* argv0, const AbvOptions& opts) {
  tlm::RecordStreamMeta meta;
  if (auto err = support::tracelog::read_meta(opts.replay, meta)) {
    std::fprintf(stderr, "%s: cannot replay '%s': %s\n", argv0,
                 opts.replay.c_str(), err->to_string().c_str());
    return 2;
  }
  Design design;
  Level level;
  if (!models::parse_design(meta.design, design) ||
      design != Design::kColorConv || !models::parse_level(meta.level, level)) {
    std::fprintf(
        stderr,
        "%s: trace log '%s' records a %s/%s stream, not a ColorConv run\n",
        argv0, opts.replay.c_str(), meta.design.c_str(), meta.level.c_str());
    return 2;
  }

  const models::PropertySuite suite = models::colorconv_suite();
  models::RunConfig config;
  config.design = Design::kColorConv;
  config.level = level;
  config.workload = 2000;
  config.checkers = suite.properties.size();
  examples::apply(opts, config);
  if (level == Level::kTlmAt) {
    config.observability.trace_path = opts.trace_out;
    config.observability.metrics_path = opts.metrics_out;
    config.observability.metrics_interval = opts.metrics_interval;
    config.observability.prune_plan_path = opts.prune_plan_out;
  }

  std::printf("== ColorConv replay: %s (%s, clock %llu ns) ==\n",
              opts.replay.c_str(), meta.level.c_str(),
              static_cast<unsigned long long>(meta.clock_period_ns));
  const models::RunResult r = models::run_simulation(config);
  if (!r.ingest_error.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv0, r.ingest_error.c_str());
    return 2;
  }
  if (config.analysis != models::AnalysisMode::kOff &&
      !r.analysis_diagnostics.empty()) {
    std::printf("-- static analysis (replay) --\n");
    for (const analysis::Diagnostic& d : r.analysis_diagnostics) {
      std::printf("%s\n", analysis::to_string(d).c_str());
    }
  }
  if (config.analysis == models::AnalysisMode::kError && !r.analysis_ok) {
    std::printf("analysis errors: replay skipped\n");
    return 1;
  }
  std::printf("%-7s: %llu records replayed  properties=%s\n", meta.level.c_str(),
              static_cast<unsigned long long>(r.transactions),
              r.properties_ok ? "ok" : "FAIL");
  std::printf("\nper-property results:\n");
  r.report.print(std::cout);
  if (!opts.report_out.empty()) {
    abv::ReportTiming timing;
    timing.wall_seconds = r.wall_seconds;
    timing.jobs = opts.jobs;
    timing.records = r.transactions;
    timing.metrics = r.metrics;
    std::ofstream out(opts.report_out);
    if (!out) {
      std::fprintf(stderr, "cannot write report to %s\n",
                   opts.report_out.c_str());
      return 1;
    }
    r.report.write_json(out, &timing);
    std::printf("JSON report written to %s\n", opts.report_out.c_str());
  }
  return r.properties_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const AbvOptions opts = examples::parse_abv_options(argc, argv);

  if (!opts.replay.empty()) return run_replay(argv[0], opts);

  const models::PropertySuite suite = models::colorconv_suite();
  const size_t kPixels = 2000;

  if (opts.dump_passes) {
    std::printf("== ColorConv property abstraction ==\n");
    rewrite::AbstractionOptions options;
    options.clock_period_ns = suite.clock_period_ns;
    options.abstracted_signals = suite.abstracted_signals;
    const std::vector<rewrite::AbstractionOutcome> outcomes =
        rewrite::abstract_suite(suite.properties, options);
    for (size_t i = 0; i < suite.properties.size(); ++i) {
      std::printf("%-4s %s\n", suite.properties[i].name.c_str(),
                  psl::to_string(suite.properties[i]).c_str());
      std::fputs(rewrite::format_passes(outcomes[i].passes).c_str(), stdout);
    }
    std::printf("\n");
  }

  std::printf("== ColorConv: %zu pixels, %zu properties, %zu evaluation job%s ==\n",
              kPixels, suite.properties.size(), opts.jobs,
              opts.jobs == 1 ? "" : "s");
  models::RunConfig config;
  config.design = Design::kColorConv;
  config.workload = kPixels;
  config.checkers = suite.properties.size();
  examples::apply(opts, config);

  bool all_ok = true;
  for (Level level : {Level::kRtl, Level::kTlmCa, Level::kTlmAt}) {
    config.level = level;
    // Observability outputs cover the TLM-AT run (the paper's target level).
    config.observability.trace_path =
        level == Level::kTlmAt ? opts.trace_out : "";
    config.observability.metrics_path =
        level == Level::kTlmAt ? opts.metrics_out : "";
    config.observability.metrics_interval = opts.metrics_interval;
    config.observability.prune_plan_path =
        level == Level::kTlmAt ? opts.prune_plan_out : "";
    // So does the trace log (--record-out).
    config.ingest.record_path = level == Level::kTlmAt ? opts.record_out : "";
    const models::RunResult r = models::run_simulation(config);
    if (!r.ingest_error.empty()) {
      std::fprintf(stderr, "%s: %s\n", argv[0], r.ingest_error.c_str());
      return 2;
    }
    if (opts.analysis != models::AnalysisMode::kOff &&
        !r.analysis_diagnostics.empty()) {
      std::printf("-- static analysis (%s) --\n", models::to_string(level));
      for (const analysis::Diagnostic& d : r.analysis_diagnostics) {
        std::printf("%s\n", analysis::to_string(d).c_str());
      }
    }
    if (opts.analysis == models::AnalysisMode::kError && !r.analysis_ok) {
      std::printf("analysis errors: %s simulation skipped\n",
                  models::to_string(level));
      return 1;
    }
    std::printf("%-7s: %7.3f s  functional=%s properties=%s\n",
                models::to_string(level), r.wall_seconds,
                r.functional_ok ? "ok" : "FAIL",
                r.properties_ok ? "ok" : "FAIL");
    all_ok = all_ok && r.functional_ok && r.properties_ok;
    if (level == Level::kTlmAt) {
      if (opts.prune != analysis::PruneMode::kOff) {
        std::printf("prune plan (%s): %zu live, %zu elided, %zu subsumed\n",
                    analysis::to_string(r.prune_plan.mode),
                    r.prune_plan.live(), r.prune_plan.elided(),
                    r.prune_plan.subsumed());
      }
      std::printf("\nper-property results at TLM-AT:\n");
      r.report.print(std::cout);
      if (!opts.report_out.empty()) {
        abv::ReportTiming timing;
        timing.wall_seconds = r.wall_seconds;
        timing.jobs = opts.jobs;
        timing.records = r.transactions;
        timing.metrics = r.metrics;
        std::ofstream out(opts.report_out);
        if (!out) {
          std::fprintf(stderr, "cannot write report to %s\n",
                       opts.report_out.c_str());
          return 1;
        }
        r.report.write_json(out, &timing);
        std::printf("JSON report written to %s\n", opts.report_out.c_str());
      }
      if (!opts.trace_out.empty()) {
        std::printf("Chrome trace written to %s\n", opts.trace_out.c_str());
      }
      if (!opts.metrics_out.empty()) {
        std::printf("JSONL metrics snapshots written to %s\n",
                    opts.metrics_out.c_str());
      }
      if (!opts.record_out.empty()) {
        std::printf("trace log written to %s\n", opts.record_out.c_str());
      }
    }
  }

  std::printf("\n== failure injection ==\n");
  const bool caught = buggy_model_is_caught();
  std::printf("buggy TLM model caught by abstracted checker (with witness): %s\n",
              caught ? "yes" : "NO (problem!)");
  return (all_ok && caught) ? 0 : 1;
}
