#include "abv_options.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "support/strutil.h"

namespace repro::examples {

void print_usage(const char* argv0, const char* extra_usage) {
  std::fprintf(stderr,
               "usage: %s [--jobs N] [--witness-depth N] [--failure-log-cap N]\n"
               "          [--trace-out FILE] [--report-out FILE]\n"
               "          [--metrics-out FILE] [--metrics-interval N]\n"
               "          [--dump-passes]\n"
               "          %s[--analyze] [--Werror-analysis]\n"
               "          [--prune off|safe|aggressive] [--prune-plan-out FILE]\n"
               "          [--record-out FILE] [--replay FILE]\n",
               argv0, extra_usage);
}

AbvOptions parse_abv_options(int argc, char** argv,
                             const std::vector<ExtraFlag>& extra,
                             const char* extra_usage) {
  AbvOptions o;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    auto is = [&](const char* name) { return std::strcmp(flag, name) == 0; };
    // Names the bad argument, then the usage text; exit 2.
    auto usage_error = [&](const std::string& message) {
      std::fprintf(stderr, "%s: %s\n", argv[0], message.c_str());
      print_usage(argv[0], extra_usage);
      std::exit(2);
    };
    // The argument of a value flag; a value flag given last is a usage error.
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(std::string("missing value for ") + flag);
      return argv[++i];
    };
    // Strict numeric arguments: garbage ("abc", "64k", "-1") is a usage
    // error, not a silent 0.
    auto size_arg = [&](size_t& out) {
      const char* text = value();
      const std::optional<size_t> parsed = repro::parse_size(text);
      if (!parsed.has_value()) {
        usage_error(std::string("bad numeric value '") + text + "' for " +
                    flag);
      }
      out = *parsed;
    };
    if (is("--jobs")) {
      size_arg(o.jobs);
      if (o.jobs == 0) o.jobs = 1;  // 0: serial
    } else if (is("--witness-depth")) {
      size_arg(o.witness_depth);
    } else if (is("--failure-log-cap")) {
      size_arg(o.failure_log_cap);
    } else if (is("--trace-out")) {
      o.trace_out = value();
    } else if (is("--report-out")) {
      o.report_out = value();
    } else if (is("--metrics-out")) {
      o.metrics_out = value();
    } else if (is("--metrics-interval")) {
      size_arg(o.metrics_interval);
    } else if (is("--dump-passes")) {
      o.dump_passes = true;
    } else if (is("--analyze")) {
      if (o.analysis == models::AnalysisMode::kOff) {
        o.analysis = models::AnalysisMode::kOn;
      }
    } else if (is("--Werror-analysis")) {
      o.analysis = models::AnalysisMode::kError;
    } else if (is("--prune")) {
      const char* mode = value();
      if (!analysis::parse_prune_mode(mode, o.prune)) {
        usage_error(std::string("bad --prune value '") + mode +
                    "' (want off, safe or aggressive)");
      }
    } else if (is("--prune-plan-out")) {
      o.prune_plan_out = value();
    } else if (is("--record-out")) {
      o.record_out = value();
    } else if (is("--replay")) {
      o.replay = value();
    } else {
      bool matched = false;
      for (const ExtraFlag& extra_flag : extra) {
        if (is(extra_flag.name)) {
          *extra_flag.value = true;
          matched = true;
          break;
        }
      }
      if (!matched) usage_error(std::string("unknown option '") + flag + "'");
    }
  }
  return o;
}

void apply(const AbvOptions& options, models::RunConfig& config) {
  config.engine = {.jobs = options.jobs};
  config.observability.witness_depth = options.witness_depth;
  config.observability.failure_log_cap = options.failure_log_cap;
  config.analysis = options.analysis;
  config.analysis.prune = options.prune;
  config.ingest.record_path = options.record_out;
  config.ingest.replay_path = options.replay;
}

}  // namespace repro::examples
