// des56_abv: the full DES56 flow of the paper on one page.
//
// Abstracts the 9-property RTL suite, prints the generated TLM properties,
// then runs the RTL and TLM-AT simulations with all checkers enabled and
// reports the verification results and the relative simulation cost.
//
// The TLM-AT run additionally carries a deliberately failing "witness demo"
// property (wdemo: rdy must rise one cycle after ds — it actually rises 17
// cycles later), to demonstrate the failure-witness ring buffer: each logged
// violation carries the last transactions observed before the verdict.
//
// Usage: des56_abv [--jobs N] [--witness-depth N] [--failure-log-cap N]
//                  [--trace-out FILE] [--report-out FILE]
//                  [--metrics-out FILE] [--metrics-interval N]
//                  [--dump-passes] [--no-witness-demo]
//                  [--record-out FILE] [--replay FILE]
//   --jobs N             shard the TLM checker suite across N worker threads
//                        (default 1 = serial; results are identical for any N).
//   --witness-depth N    failure-witness ring depth per checker (default 8).
//   --failure-log-cap N  max logged failures per checker (default 64).
//   --trace-out FILE     write a Chrome trace-event JSON of the TLM-AT run
//                        (open in Perfetto / chrome://tracing).
//   --report-out FILE    write the TLM-AT verification report as JSON.
//   --metrics-out FILE   stream JSONL metrics/coverage snapshots of the
//                        TLM-AT run (one compact object per line, final line
//                        exact; validate with tools/validate_metrics.py).
//   --metrics-interval N records between two mid-run snapshot lines
//                        (default 256; 0 = only the final line).
//   --dump-passes        print every rewrite-pipeline pass per property.
//   --no-witness-demo    do not inject the failing demo property.
//   --analyze            run the static property analysis before each
//                        simulation and print its diagnostics (the symbolic
//                        pass runs only in psl_lint --symbolic).
//   --Werror-analysis    like --analyze, but abort (exit 1) without
//                        simulating when the analysis reports an error.
//   --prune MODE         analysis-guided runtime pruning (off|safe|
//                        aggressive, default off): elide statically-decided
//                        properties and derive subsumed verdicts from their
//                        subsumer's checker. Verdicts are unchanged; with
//                        --Werror-analysis pruned checkers still run and
//                        every derived verdict is cross-checked (PRN003).
//   --prune-plan-out FILE write the machine-readable prune plan JSON.
//   --record-out FILE    serialize the checked record stream of the TLM-AT
//                        run as a versioned trace log (support::tracelog;
//                        binary, or JSONL for .jsonl paths).
//   --replay FILE        no simulation: replay the trace log recorded at
//                        FILE through the checker configuration of its meta
//                        (design must be DES56; level picks the RTL or
//                        TLM-AT environment). Reports are byte-identical to
//                        the recording run (timing excluded).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "abv_options.h"
#include "analysis/prune.h"
#include "models/properties.h"
#include "models/testbench.h"
#include "psl/parser.h"
#include "rewrite/methodology.h"
#include "support/tracelog.h"

using namespace repro;
using examples::AbvOptions;
using models::Design;
using models::Level;

namespace {

constexpr char kWitnessDemoName[] = "wdemo";
constexpr char kExtraUsage[] = "[--no-witness-demo] ";
constexpr size_t kOps = 300;

// Prints the pre-simulation analysis diagnostics of one run; returns false
// when the analysis blocked the simulation (kError mode with errors).
bool report_analysis(const char* label, const models::RunConfig& config,
                     const models::RunResult& result) {
  if (config.analysis == models::AnalysisMode::kOff) return true;
  if (!result.analysis_diagnostics.empty()) {
    std::printf("-- static analysis (%s) --\n", label);
    for (const analysis::Diagnostic& d : result.analysis_diagnostics) {
      std::printf("%s\n", analysis::to_string(d).c_str());
    }
  }
  if (config.analysis == models::AnalysisMode::kError && !result.analysis_ok) {
    std::printf("analysis errors: %s simulation skipped\n", label);
    return false;
  }
  return true;
}

// Parses and injects the deliberately failing witness-demo property.
bool inject_witness_demo(models::RunConfig& config) {
  auto parsed = psl::parse_rtl_property(
      std::string(kWitnessDemoName) + ": always (!ds || next[1](rdy)) @clk_pos");
  if (!parsed.ok()) {
    std::fprintf(stderr, "internal error: witness demo property: %s\n",
                 parsed.error().to_string().c_str());
    return false;
  }
  config.extra_properties.push_back(std::move(parsed).take());
  return true;
}

// Splits the report into the real properties' verdict and the demo row.
void split_report(const models::RunResult& result, bool& real_ok,
                  const abv::PropertyReport*& demo) {
  real_ok = true;
  demo = nullptr;
  for (const abv::PropertyReport& p : result.report.properties()) {
    if (p.name == kWitnessDemoName) {
      demo = &p;
    } else {
      real_ok = real_ok && p.ok();
    }
  }
}

bool write_report_json(const std::string& path, const models::RunResult& r,
                       size_t jobs) {
  abv::ReportTiming timing;
  timing.wall_seconds = r.wall_seconds;
  timing.jobs = jobs;
  timing.records = r.transactions;
  timing.metrics = r.metrics;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write report to %s\n", path.c_str());
    return false;
  }
  r.report.write_json(out, &timing);
  std::printf("\nJSON report written to %s\n", path.c_str());
  return true;
}

// --replay: no simulation. The log's meta picks the environment (RTL or
// TLM-AT); the checker configuration is built exactly as the live flow
// builds it, so the replayed report matches the recording run's.
int run_replay(const char* argv0, const AbvOptions& opts, bool witness_demo) {
  tlm::RecordStreamMeta meta;
  if (auto err = support::tracelog::read_meta(opts.replay, meta)) {
    std::fprintf(stderr, "%s: cannot replay '%s': %s\n", argv0,
                 opts.replay.c_str(), err->to_string().c_str());
    return 2;
  }
  Design design;
  Level level;
  if (!models::parse_design(meta.design, design) || design != Design::kDes56 ||
      !models::parse_level(meta.level, level)) {
    std::fprintf(stderr,
                 "%s: trace log '%s' records a %s/%s stream, not a DES56 run\n",
                 argv0, opts.replay.c_str(), meta.design.c_str(),
                 meta.level.c_str());
    return 2;
  }

  const models::PropertySuite suite = models::des56_suite();
  models::RunConfig config;
  config.design = Design::kDes56;
  config.level = level;
  config.workload = kOps;
  config.checkers = suite.properties.size();
  examples::apply(opts, config);
  config.observability.prune_plan_path = opts.prune_plan_out;
  const bool demo_injected = witness_demo && level == Level::kTlmAt;
  if (level == Level::kTlmAt) {
    config.observability.trace_path = opts.trace_out;
    config.observability.metrics_path = opts.metrics_out;
    config.observability.metrics_interval = opts.metrics_interval;
    if (demo_injected && !inject_witness_demo(config)) return 1;
  }

  std::printf("== DES56 replay: %s (%s, clock %llu ns) ==\n",
              opts.replay.c_str(), meta.level.c_str(),
              static_cast<unsigned long long>(meta.clock_period_ns));
  const models::RunResult r = models::run_simulation(config);
  if (!r.ingest_error.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv0, r.ingest_error.c_str());
    return 2;
  }
  if (!report_analysis("replay", config, r)) return 1;

  bool real_ok = true;
  const abv::PropertyReport* demo = nullptr;
  split_report(r, real_ok, demo);
  const bool demo_ok =
      !demo_injected || (demo != nullptr && demo->failures > 0);
  std::printf("%-7s: %llu records replayed  properties=%s\n",
              meta.level.c_str(),
              static_cast<unsigned long long>(r.transactions),
              real_ok ? "ok" : "FAIL");
  std::printf("\nper-property results:\n");
  r.report.print(std::cout);
  if (!opts.report_out.empty() &&
      !write_report_json(opts.report_out, r, opts.jobs)) {
    return 1;
  }
  return (real_ok && demo_ok) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool no_witness_demo = false;
  const AbvOptions opts = examples::parse_abv_options(
      argc, argv, {{"--no-witness-demo", &no_witness_demo}}, kExtraUsage);
  const bool witness_demo = !no_witness_demo;

  if (!opts.replay.empty()) return run_replay(argv[0], opts, witness_demo);

  const models::PropertySuite suite = models::des56_suite();

  std::printf("== DES56 property abstraction ==\n");
  rewrite::AbstractionOptions options;
  options.clock_period_ns = suite.clock_period_ns;
  options.abstracted_signals = suite.abstracted_signals;
  const std::vector<rewrite::AbstractionOutcome> outcomes =
      rewrite::abstract_suite(suite.properties, options);
  for (size_t i = 0; i < suite.properties.size(); ++i) {
    const psl::RtlProperty& p = suite.properties[i];
    const rewrite::AbstractionOutcome& outcome = outcomes[i];
    std::printf("%-4s rtl:  %s\n", p.name.c_str(), psl::to_string(p).c_str());
    if (outcome.deleted()) {
      std::printf("     tlm:  (deleted)\n");
    } else {
      std::printf("     tlm:  %s   [%s]\n", psl::to_string(*outcome.property).c_str(),
                  rewrite::to_string(outcome.classification));
    }
    if (opts.dump_passes) {
      std::fputs(rewrite::format_passes(outcome.passes).c_str(), stdout);
    }
  }

  std::printf("\n== dynamic ABV, %zu operations, %zu evaluation job%s ==\n",
              kOps, opts.jobs, opts.jobs == 1 ? "" : "s");
  models::RunConfig config;
  config.design = Design::kDes56;
  config.workload = kOps;
  config.checkers = suite.properties.size();
  examples::apply(opts, config);
  config.observability.prune_plan_path = opts.prune_plan_out;
  // The trace log covers the TLM-AT run (the paper's target level); the RTL
  // leg runs without ingest outputs.
  config.ingest.record_path = "";

  config.level = Level::kRtl;
  const models::RunResult rtl = models::run_simulation(config);
  if (!rtl.ingest_error.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], rtl.ingest_error.c_str());
    return 2;
  }
  if (!report_analysis("RTL", config, rtl)) return 1;
  std::printf("RTL    : %7.3f s  functional=%s properties=%s\n", rtl.wall_seconds,
              rtl.functional_ok ? "ok" : "FAIL", rtl.properties_ok ? "ok" : "FAIL");

  // The demo property is injected only at TLM-AT: rdy rises 17 cycles after
  // ds, so next[1](rdy) fails at every accepted operation and each logged
  // failure carries a witness ring.
  if (witness_demo && !inject_witness_demo(config)) return 1;
  config.level = Level::kTlmAt;
  config.observability.trace_path = opts.trace_out;
  config.observability.metrics_path = opts.metrics_out;
  config.observability.metrics_interval = opts.metrics_interval;
  config.ingest.record_path = opts.record_out;
  const models::RunResult at = models::run_simulation(config);
  if (!at.ingest_error.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], at.ingest_error.c_str());
    return 2;
  }
  if (!report_analysis("TLM-AT", config, at)) return 1;

  // With the demo injected, "properties ok" means: every real property
  // holds, and the demo property fails (it is designed to).
  bool real_ok = true;
  const abv::PropertyReport* demo = nullptr;
  split_report(at, real_ok, demo);
  const bool demo_ok =
      !witness_demo || (demo != nullptr && demo->failures > 0 &&
                        !demo->failure_log.empty() &&
                        !demo->failure_log.front().witness.empty());

  std::printf("TLM-AT : %7.3f s  functional=%s properties=%s  (%llu transactions)\n",
              at.wall_seconds, at.functional_ok ? "ok" : "FAIL",
              real_ok ? "ok" : "FAIL",
              static_cast<unsigned long long>(at.transactions));

  std::printf("\nRTL / TLM-AT speedup with all checkers: %.2fx\n",
              rtl.wall_seconds / at.wall_seconds);
  std::printf("\nper-property results at TLM-AT:\n");
  at.report.print(std::cout);

  if (witness_demo) {
    std::printf("\n== witness demo (%s is designed to fail) ==\n",
                kWitnessDemoName);
    if (!demo_ok) {
      std::printf("demo property did not produce a witnessed failure!\n");
    } else {
      const checker::Failure& first = demo->failure_log.front();
      std::printf("%llu failure%s logged; first at t=%llu ns, witness ring "
                  "(%zu transaction%s, oldest first):\n",
                  static_cast<unsigned long long>(demo->failures),
                  demo->failures == 1 ? "" : "s",
                  static_cast<unsigned long long>(first.time),
                  first.witness.size(), first.witness.size() == 1 ? "" : "s");
      for (const checker::WitnessEntry& entry : first.witness) {
        std::printf("  t=%6llu ns:", static_cast<unsigned long long>(entry.time));
        if (entry.observables != nullptr) {
          for (const auto& [name, value] : *entry.observables) {
            std::printf(" %s=%llu", name.c_str(),
                        static_cast<unsigned long long>(value));
          }
        }
        std::printf("\n");
      }
    }
  }

  if (!opts.report_out.empty() &&
      !write_report_json(opts.report_out, at, opts.jobs)) {
    return 1;
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
  if (opts.prune != analysis::PruneMode::kOff) {
    std::printf("prune plan (%s): %zu live, %zu elided, %zu subsumed\n",
                analysis::to_string(at.prune_plan.mode), at.prune_plan.live(),
                at.prune_plan.elided(), at.prune_plan.subsumed());
    if (!opts.prune_plan_out.empty()) {
      std::printf("prune plan JSON written to %s\n",
                  opts.prune_plan_out.c_str());
    }
  }

  return (rtl.functional_ok && rtl.properties_ok && at.functional_ok &&
          real_ok && demo_ok)
             ? 0
             : 1;
}
