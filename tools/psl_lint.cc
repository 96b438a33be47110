// psl_lint: static property linter over the analysis::Driver battery.
//
// Lints the built-in property suites, ad-hoc property text, or property
// files through every static check — simple-subset conformance, boolean-layer
// semantics, the Thm. III.2 consequence audit, environment binding and
// checker sizing — and prints compiler-style diagnostics (or the
// schema_version'd JSON report).
//
// Usage:
//   psl_lint [--suite des56|colorconv]... [--period NS] [--abstract SIG]...
//            [--observable NAME]... [--text PROPERTY]... [--json]
//            [--prune off|safe|aggressive] [--Werror] [FILE...]
//
//   --suite NAME      lint a built-in suite with its own clock period,
//                     abstracted signals and per-level observables
//                     (repeatable; default when nothing else is given: both)
//   --period NS       clock period for ad-hoc input (default 10)
//   --abstract SIG    abstracted signal for ad-hoc input (repeatable)
//   --observable NAME RTL observable for ad-hoc env binding (repeatable;
//                     none given skips the env-binding pass)
//   --text PROP       lint one property given on the command line
//                     (repeatable), e.g. "p: always (!ds || next[3](rdy))"
//   FILE              lint a property file (name: formula @ctx; per line)
//   --json            machine-readable report instead of text
//   --prune MODE      additionally build the analysis-guided prune plan per
//                     unit (off|safe|aggressive, default off) and report
//                     which properties the runtime would elide or subsume
//                     (PRN001/002/004 notes, plan summary line)
//   --symbolic        run the symbolic bounded trajectory evaluation
//                     (SYM001..SYM005: never-fails, dead program nodes,
//                     temporal static vacuity, replay-verified failure
//                     witnesses) with the default 16-step budget; lint
//                     only, the prune plan never uses it
//   --symbolic-budget N   same, with an explicit step/instant budget
//   --Werror          exit non-zero on warnings too (--Werror-analysis is
//                     accepted as an alias, matching the example binaries)
//
// Exit status: 0 clean, 1 diagnostics at the failing severity, 2 usage or
// I/O error (a usage error names the unknown option or the flag missing its
// value). Parse failures are reported as PSL000 error diagnostics.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/driver.h"
#include "analysis/prune.h"
#include "models/properties.h"
#include "models/testbench.h"
#include "psl/parser.h"
#include "support/strutil.h"

using namespace repro;

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--suite des56|colorconv]... [--period NS]\n"
      "          [--abstract SIG]... [--observable NAME]...\n"
      "          [--text PROPERTY]... [--json] [--prune off|safe|aggressive]\n"
      "          [--symbolic] [--symbolic-budget N] [--Werror] [FILE...]\n",
      argv0);
}

analysis::Diagnostic parse_diagnostic(const std::string& unit,
                                      const Error& error) {
  analysis::Diagnostic d;
  d.code = "PSL000";
  d.severity = analysis::Severity::kError;
  d.property = unit;
  d.check = "parse";
  d.message = error.message;
  if (error.position >= 0) d.span = {error.position, 1};
  return d;
}

struct LintUnit {
  std::string name;  // suite name, file path, or "<text>"
  analysis::AnalysisOptions options;
  std::vector<psl::RtlProperty> properties;
  std::vector<analysis::SourceSpan> spans;  // parallel to properties
  std::vector<analysis::Diagnostic> parse_errors;
};

LintUnit suite_unit(const std::string& name, const models::PropertySuite& s,
                    models::Design design) {
  LintUnit unit;
  unit.name = name;
  unit.options.abstraction.clock_period_ns = s.clock_period_ns;
  unit.options.abstraction.abstracted_signals = s.abstracted_signals;
  unit.options.rtl_observables =
      models::level_observables(design, models::Level::kRtl);
  unit.options.tlm_observables =
      models::level_observables(design, models::Level::kTlmAt);
  unit.properties = s.properties;
  unit.spans.resize(unit.properties.size());
  return unit;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> suites;
  std::vector<std::string> texts;
  std::vector<std::string> files;
  psl::TimeNs period = 10;
  analysis::AnalysisOptions adhoc;
  bool json = false;
  bool werror = false;
  analysis::PruneMode prune = analysis::PruneMode::kOff;
  size_t symbolic_budget = 0;  // 0 = symbolic pass off

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
    auto positive_arg = [&]() -> uint64_t {
      const char* text = value();
      const std::optional<uint64_t> parsed = repro::parse_u64(text);
      if (!parsed.has_value() || *parsed == 0) {
        usage_error(std::string("bad ") + flag + " value '" + text +
                    "' (want a positive integer)");
      }
      return *parsed;
    };
    if (is("--suite")) {
      suites.emplace_back(value());
    } else if (is("--period")) {
      period = static_cast<psl::TimeNs>(positive_arg());
    } else if (is("--abstract")) {
      adhoc.abstraction.abstracted_signals.insert(value());
    } else if (is("--observable")) {
      adhoc.rtl_observables.emplace_back(value());
    } else if (is("--text")) {
      texts.emplace_back(value());
    } else if (is("--prune")) {
      const char* mode = value();
      if (!analysis::parse_prune_mode(mode, prune)) {
        usage_error(std::string("bad --prune value '") + mode +
                    "' (want off, safe or aggressive)");
      }
    } else if (is("--symbolic")) {
      if (symbolic_budget == 0) symbolic_budget = 16;
    } else if (is("--symbolic-budget")) {
      symbolic_budget = static_cast<size_t>(positive_arg());
    } else if (is("--json")) {
      json = true;
    } else if (is("--Werror") || is("--Werror-analysis")) {
      werror = true;
    } else if (flag[0] == '-') {
      usage_error(std::string("unknown option '") + flag + "'");
    } else {
      files.emplace_back(flag);
    }
  }
  adhoc.abstraction.clock_period_ns = period;
  adhoc.symbolic_budget = symbolic_budget;
  if (suites.empty() && texts.empty() && files.empty()) {
    suites = {"des56", "colorconv"};
  }

  std::vector<LintUnit> units;
  for (const std::string& name : suites) {
    if (name == "des56") {
      units.push_back(
          suite_unit(name, models::des56_suite(), models::Design::kDes56));
      units.back().options.symbolic_budget = symbolic_budget;
    } else if (name == "colorconv") {
      units.push_back(suite_unit(name, models::colorconv_suite(),
                                 models::Design::kColorConv));
      units.back().options.symbolic_budget = symbolic_budget;
    } else {
      std::fprintf(stderr, "unknown suite '%s' (expected des56 or colorconv)\n",
                   name.c_str());
      return 2;
    }
  }
  for (const std::string& text : texts) {
    LintUnit unit;
    unit.name = "<text>";
    unit.options = adhoc;
    auto parsed = psl::parse_rtl_property(text);
    if (parsed.ok()) {
      unit.properties.push_back(std::move(parsed).take());
      unit.spans.push_back({});
    } else {
      unit.parse_errors.push_back(parse_diagnostic(unit.name, parsed.error()));
    }
    units.push_back(std::move(unit));
  }
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    LintUnit unit;
    unit.name = path;
    unit.options = adhoc;
    std::vector<int> offsets;
    auto parsed = psl::parse_rtl_property_file(buf.str(), &offsets);
    if (parsed.ok()) {
      unit.properties = std::move(parsed).take();
      for (size_t i = 0; i < unit.properties.size(); ++i) {
        unit.spans.push_back(
            {i < offsets.size() ? offsets[i] : -1, 0});
      }
    } else {
      unit.parse_errors.push_back(parse_diagnostic(unit.name, parsed.error()));
    }
    units.push_back(std::move(unit));
  }

  analysis::DiagnosticCounts totals;
  if (json) std::cout << "{\"schema_version\":1,\"units\":[";
  bool first_unit = true;
  for (const LintUnit& unit : units) {
    analysis::Driver driver(unit.options);
    for (analysis::Diagnostic d : unit.parse_errors) {
      driver.add_diagnostic(std::move(d));
    }
    for (size_t i = 0; i < unit.properties.size(); ++i) {
      driver.analyze(unit.properties[i], unit.spans[i]);
    }
    analysis::PrunePlan plan;
    if (prune != analysis::PruneMode::kOff) {
      std::vector<analysis::PruneInput> inputs;
      inputs.reserve(unit.properties.size());
      for (const auto& p : unit.properties) {
        inputs.push_back(analysis::make_prune_input(p));
      }
      plan = analysis::build_prune_plan(inputs, prune);
    }
    if (json) {
      if (!first_unit) std::cout << ",";
      std::cout << "{\"unit\":\"" << unit.name << "\",\"report\":";
      driver.write_json(std::cout);
      if (prune != analysis::PruneMode::kOff) {
        std::cout << ",\"prune_plan\":";
        plan.write_json(std::cout);
      }
      std::cout << "}";
    } else {
      std::cout << "== " << unit.name << " ==\n";
      driver.render_text(std::cout);
      if (prune != analysis::PruneMode::kOff) {
        for (const analysis::Diagnostic& d : plan.diagnostics()) {
          std::cout << analysis::to_string(d) << "\n";
        }
        std::cout << "prune plan (" << analysis::to_string(plan.mode)
                  << "): " << plan.live() << " live, " << plan.elided()
                  << " elided, " << plan.subsumed() << " subsumed\n";
      }
    }
    first_unit = false;
    analysis::DiagnosticCounts c = driver.counts();
    for (const analysis::Diagnostic& d : plan.diagnostics()) {
      if (d.severity == analysis::Severity::kNote) ++c.notes;
      if (d.severity == analysis::Severity::kWarning) ++c.warnings;
      if (d.severity == analysis::Severity::kError) ++c.errors;
      if (analysis::is_skip_code(d.code)) ++c.skipped;
    }
    totals.notes += c.notes;
    totals.warnings += c.warnings;
    totals.errors += c.errors;
    totals.skipped += c.skipped;
  }
  if (json) {
    std::cout << "],\"totals\":{\"notes\":" << totals.notes
              << ",\"warnings\":" << totals.warnings
              << ",\"errors\":" << totals.errors
              << ",\"skipped\":" << totals.skipped << "}}\n";
  }

  if (totals.errors > 0) return 1;
  if (werror && totals.warnings > 0) return 1;
  return 0;
}
