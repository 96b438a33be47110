// Shared command-line surface of the ABV example binaries (des56_abv,
// colorconv_abv). Both expose the same engine/observability/analysis/ingest
// flags with the same defaults, error messages and exit-2 usage contract;
// this module is the single place they are defined, so a new flag (e.g.
// --record-out/--replay) registers once for every example.
#ifndef REPRO_EXAMPLES_ABV_OPTIONS_H_
#define REPRO_EXAMPLES_ABV_OPTIONS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/prune.h"
#include "models/testbench.h"

namespace repro::examples {

struct AbvOptions {
  size_t jobs = 1;
  size_t witness_depth = 8;
  size_t failure_log_cap = 64;
  std::string trace_out;
  std::string report_out;
  std::string metrics_out;
  size_t metrics_interval = 256;
  bool dump_passes = false;
  models::AnalysisMode analysis = models::AnalysisMode::kOff;
  analysis::PruneMode prune = analysis::PruneMode::kOff;
  std::string prune_plan_out;
  // Trace-log ingest (support::tracelog): --record-out serializes the
  // checked record stream; --replay checks a recorded stream instead of
  // simulating.
  std::string record_out;
  std::string replay;
};

// A binary-specific value-less flag (e.g. des56's --no-witness-demo):
// `*value` is set true when the flag appears.
struct ExtraFlag {
  const char* name;
  bool* value;
};

// Prints the shared usage block (plus `extra_usage`, one "          [...]"
// line per binary-specific flag) to stderr.
void print_usage(const char* argv0, const char* extra_usage);

// Parses the shared flags (and `extra`). Malformed values, unknown flags and
// a value flag without its value name the bad argument, print the usage text
// and exit 2 — the documented CLI contract.
AbvOptions parse_abv_options(int argc, char** argv,
                             const std::vector<ExtraFlag>& extra = {},
                             const char* extra_usage = "");

// Copies the option groups into a run configuration: engine knobs, witness
// depth / failure-log cap, analysis/prune modes and the ingest paths. Level-dependent observability paths (trace,
// metrics, prune plan) stay with the caller.
void apply(const AbvOptions& options, models::RunConfig& config);

}  // namespace repro::examples

#endif  // REPRO_EXAMPLES_ABV_OPTIONS_H_
