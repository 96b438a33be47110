// abstract_prop: command-line front end for the RTL -> TLM property
// abstraction pipeline.
//
// Feeds one property (or a whole built-in suite) through the rewrite
// pipeline — NNF, signal abstraction (Fig. 4), push-ahead, next substitution
// (Algorithm III.1), context mapping (Def. III.2) — and prints every stage,
// the Fig. 4 classification, and the flat checker program the TLM formula
// compiles to.
//
// Usage:
//   abstract_prop [--suite des56|colorconv] [--period NS]
//                 [--abstract SIGNAL]... [--analyze] [--symbolic]
//                 [--prune off|safe|aggressive] [PROPERTY_TEXT]
//
//   --suite NAME      abstract the named built-in suite (default: des56
//                     when no PROPERTY_TEXT is given). The suite supplies
//                     its clock period and abstracted-signal set.
//   --period NS       clock period for next -> next_e substitution
//                     (default 10; ignored with --suite).
//   --abstract SIG    mark SIGNAL as abstracted away at TLM (repeatable;
//                     ignored with --suite).
//   --analyze         also run the static analysis battery (psl_lint's
//                     checks) and print its diagnostics per property.
//   --prune MODE      also build the analysis-guided prune plan over the
//                     input set and print which properties the runtime
//                     would elide or subsume (default off).
//   --symbolic        --analyze plus the symbolic bounded trajectory
//                     evaluation (SYM001..SYM005, with replay-verified
//                     failure witnesses, 16-step budget); lint only,
//                     --prune never uses it.
//   PROPERTY_TEXT     a single RTL property, e.g.
//                     "p: always (!ds || next[3](rdy)) @clk_pos".
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/driver.h"
#include "analysis/prune.h"
#include "checker/program.h"
#include "models/properties.h"
#include "psl/parser.h"
#include "rewrite/methodology.h"
#include "rewrite/pass_manager.h"
#include "support/strutil.h"

using namespace repro;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--suite des56|colorconv] [--period NS]\n"
               "          [--abstract SIGNAL]... [--analyze] [--symbolic]\n"
               "          [--prune off|safe|aggressive] [PROPERTY_TEXT]\n",
               argv0);
}

// Runs the static analysis battery on `p` and prints its diagnostics.
void print_analysis(analysis::Driver& driver, const psl::RtlProperty& p) {
  const analysis::PropertyAnalysis& record = driver.analyze(p);
  for (const analysis::Diagnostic& d : record.diagnostics) {
    std::printf("  %s\n", analysis::to_string(d).c_str());
  }
}

void print_prune_plan(const std::vector<psl::RtlProperty>& properties,
                      analysis::PruneMode mode) {
  std::vector<analysis::PruneInput> inputs;
  inputs.reserve(properties.size());
  for (const auto& p : properties) {
    inputs.push_back(analysis::make_prune_input(p));
  }
  const analysis::PrunePlan plan =
      analysis::build_prune_plan(inputs, mode);
  std::printf("\nprune plan (%s): %zu live, %zu elided, %zu subsumed\n",
              analysis::to_string(plan.mode), plan.live(), plan.elided(),
              plan.subsumed());
  for (const analysis::Diagnostic& d : plan.diagnostics()) {
    std::printf("  %s\n", analysis::to_string(d).c_str());
  }
}

void print_outcome(const psl::RtlProperty& p,
                   const rewrite::AbstractionOutcome& outcome) {
  std::printf("%s\n", psl::to_string(p).c_str());
  std::fputs(rewrite::format_passes(outcome.passes).c_str(), stdout);
  std::printf("  classification: %s\n",
              rewrite::to_string(outcome.classification));
  for (const std::string& note : outcome.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  if (outcome.deleted()) {
    std::printf("  tlm: (deleted)\n");
    return;
  }
  std::printf("  tlm: %s\n", psl::to_string(*outcome.property).c_str());
  std::printf("  compiled program:\n");
  const auto program = checker::Program::compile(outcome.property->formula);
  program->dump(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite_name;
  psl::TimeNs period = 10;
  std::set<std::string> abstracted;
  std::string text;
  bool analyze = false;
  bool symbolic = false;
  analysis::PruneMode prune = analysis::PruneMode::kOff;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    auto is = [&](const char* name) { return std::strcmp(flag, name) == 0; };
    // Names the bad argument, then the usage text; exit 2.
    auto usage_error = [&](const std::string& message) {
      std::fprintf(stderr, "%s: %s\n", argv[0], message.c_str());
      usage(argv[0]);
      std::exit(2);
    };
    // The argument of a value flag; a value flag given last is a usage error.
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(std::string("missing value for ") + flag);
      return argv[++i];
    };
    if (is("--suite")) {
      suite_name = value();
    } else if (is("--period")) {
      const char* arg = value();
      const std::optional<uint64_t> parsed = repro::parse_u64(arg);
      if (!parsed.has_value() || *parsed == 0) {
        usage_error(std::string("bad --period value '") + arg +
                    "' (want a positive integer)");
      }
      period = static_cast<psl::TimeNs>(*parsed);
    } else if (is("--abstract")) {
      abstracted.insert(value());
    } else if (is("--analyze")) {
      analyze = true;
    } else if (is("--symbolic")) {
      symbolic = true;
    } else if (is("--prune")) {
      const char* mode = value();
      if (!analysis::parse_prune_mode(mode, prune)) {
        usage_error(std::string("bad --prune value '") + mode +
                    "' (want off, safe or aggressive)");
      }
    } else if (flag[0] == '-') {
      usage_error(std::string("unknown option '") + flag + "'");
    } else if (text.empty()) {
      text = flag;
    } else {
      usage_error(std::string("unexpected argument '") + flag + "'");
    }
  }
  if (!suite_name.empty() && !text.empty()) {
    std::fprintf(stderr, "--suite and PROPERTY_TEXT are mutually exclusive\n");
    return 2;
  }

  if (!text.empty()) {
    auto parsed = psl::parse_rtl_property(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   parsed.error().to_string().c_str());
      return 1;
    }
    rewrite::AbstractionOptions options;
    options.clock_period_ns = period;
    options.abstracted_signals = abstracted;
    const psl::RtlProperty p = std::move(parsed).take();
    print_outcome(p, rewrite::abstract_property(p, options));
    if (analyze || symbolic) {
      analysis::AnalysisOptions aopts;
      aopts.abstraction = options;
      if (symbolic) aopts.symbolic_budget = 16;
      analysis::Driver driver(aopts);
      std::printf("  analysis:\n");
      print_analysis(driver, p);
    }
    if (prune != analysis::PruneMode::kOff) print_prune_plan({p}, prune);
    return 0;
  }

  if (suite_name.empty()) suite_name = "des56";
  models::PropertySuite suite;
  if (suite_name == "des56") {
    suite = models::des56_suite();
  } else if (suite_name == "colorconv") {
    suite = models::colorconv_suite();
  } else {
    std::fprintf(stderr, "unknown suite '%s' (expected des56 or colorconv)\n",
                 suite_name.c_str());
    return 2;
  }

  rewrite::AbstractionOptions options;
  options.clock_period_ns = suite.clock_period_ns;
  options.abstracted_signals = suite.abstracted_signals;
  const std::vector<rewrite::AbstractionOutcome> outcomes =
      rewrite::abstract_suite(suite.properties, options);
  analysis::AnalysisOptions aopts;
  aopts.abstraction = options;
  if (symbolic) aopts.symbolic_budget = 16;
  analysis::Driver driver(aopts);
  for (size_t i = 0; i < suite.properties.size(); ++i) {
    if (i != 0) std::printf("\n");
    print_outcome(suite.properties[i], outcomes[i]);
    if (analyze || symbolic) {
      std::printf("  analysis:\n");
      print_analysis(driver, suite.properties[i]);
    }
  }
  if (prune != analysis::PruneMode::kOff) {
    print_prune_plan(suite.properties, prune);
  }
  return 0;
}
