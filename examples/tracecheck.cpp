// tracecheck: offline dynamic ABV on a recorded trace log.
//
//   tracecheck [--abstract <sig,...>] <props.psl> <trace.rtabv|trace.jsonl>
//
// Parses an RTL property file and a trace log (support::tracelog: binary
// RTABVLOG, or the JSONL debug encoding). The log's meta names the level
// and the clock period. An RTL log is a sequence of settled clock-edge
// samples (address 0 = rising, 1 = falling), so the properties are checked
// as written and each edge feeds only the checkers of its clock context. A
// transaction-level log is checked through the Sec. IV wrapper, after
// abstracting the properties with Methodology III.1 (the meta's clock period
// and the --abstract signals).
//
// Exit code 0 when every property holds, 1 on failures, 2 on usage errors
// and unreadable or corrupt inputs. Run with --demo for a self-contained
// demonstration.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "abv/report.h"
#include "abv/rtl_env.h"
#include "abv/tlm_env.h"
#include "psl/parser.h"
#include "rewrite/methodology.h"
#include "sim/kernel.h"
#include "support/strutil.h"
#include "support/tracelog.h"

using namespace repro;

namespace {

const char kDemoProps[] =
    "p1: always (!(ds && indata == 0) || next[17](out != 0)) @clk_pos;\n"
    "p2: always (!ds || next(!ds until rdy)) @clk_pos;\n";

// A DES56-style TLM-AT stream: one operation on the all-zero block.
const char kDemoLog[] =
    R"({"schema_version":1,"design":"DES56","level":"TLM-AT",)"
    R"("clock_period_ns":10,"observables":["ds","indata","out","rdy"]})" "\n"
    R"({"start":10,"end":10,"command":1,"response":0,"address":0,"data":[],)"
    R"("observables":{"ds":1,"indata":0,"out":0,"rdy":0}})" "\n"
    R"({"start":20,"end":20,"command":1,"response":0,"address":0,"data":[],)"
    R"("observables":{"ds":0,"indata":0,"out":0,"rdy":0}})" "\n"
    R"({"start":180,"end":180,"command":0,"response":0,"address":0,"data":[],)"
    R"("observables":{"ds":0,"indata":0,"out":2636804081,"rdy":1}})" "\n"
    R"({"start":190,"end":190,"command":0,"response":0,"address":0,"data":[],)"
    R"("observables":{"ds":0,"indata":0,"out":2636804081,"rdy":0}})" "\n";

int usage() {
  std::fprintf(stderr,
               "usage: tracecheck [--abstract <sig,...>] <props.psl> "
               "<trace.rtabv|trace.jsonl>\n       tracecheck --demo\n");
  return 2;
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Checks the RTL properties against an RTL log's clock-edge samples; the
// recorded samples stand in for the design, so the kernel stays idle.
abv::Report check_rtl(const std::vector<psl::RtlProperty>& properties,
                      const support::tracelog::TraceReader& log,
                      std::string& binding_error) {
  sim::Kernel idle;
  abv::SignalBag no_signals;
  abv::RtlAbvEnv env(idle, no_signals);
  for (const psl::RtlProperty& p : properties) env.add_property(p);
  const std::vector<tlm::TransactionRecord>& records = log.records();
  env.on_records(records.data(), records.data() + records.size());
  env.finish();
  binding_error = env.binding_error();
  return env.report();
}

// Abstracts the properties and checks them on a transaction-level log.
abv::Report check_tlm(const std::vector<psl::RtlProperty>& properties,
                      const support::tracelog::TraceReader& log,
                      rewrite::AbstractionOptions options,
                      std::string& binding_error) {
  options.clock_period_ns = log.meta().clock_period_ns;
  abv::TlmAbvEnv env(options.clock_period_ns);
  for (const psl::RtlProperty& p : properties) {
    rewrite::AbstractionOutcome outcome = rewrite::abstract_property(p, options);
    if (outcome.deleted()) {
      std::printf("%-8s deleted by signal abstraction\n", p.name.c_str());
      continue;
    }
    std::printf("%-8s %s\n", p.name.c_str(),
                psl::to_string(*outcome.property).c_str());
    env.add_property(*outcome.property);
  }
  env.bind();
  const std::vector<tlm::TransactionRecord>& records = log.records();
  env.on_records(records.data(), records.data() + records.size());
  env.finish();
  binding_error = env.binding_error();
  return env.report();
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  rewrite::AbstractionOptions options;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--abstract" && i + 1 < argc) {
      for (const std::string& sig : split_and_trim(argv[++i], ',')) {
        options.abstracted_signals.insert(sig);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }

  std::string props_text = kDemoProps;
  support::tracelog::TraceReader log;
  std::optional<support::tracelog::TraceError> log_error;
  if (demo) {
    std::printf("(demo mode: bundled DES56-style properties and TLM-AT log)\n");
    log_error = log.parse(kDemoLog);
  } else {
    if (paths.size() != 2) return usage();
    std::optional<std::string> text = slurp(paths[0]);
    if (!text.has_value()) {
      std::fprintf(stderr, "tracecheck: cannot open %s\n", paths[0].c_str());
      return 2;
    }
    props_text = std::move(*text);
    log_error = log.open(paths[1]);
  }

  auto properties = psl::parse_rtl_property_file(props_text);
  if (!properties.ok()) {
    std::fprintf(stderr, "tracecheck: %s\n", properties.error().to_string().c_str());
    return 2;
  }
  if (log_error.has_value()) {
    std::fprintf(stderr, "tracecheck: %s\n", log_error->to_string().c_str());
    return 2;
  }

  std::string binding_error;
  const abv::Report report =
      log.meta().level == "RTL"
          ? check_rtl(properties.value(), log, binding_error)
          : check_tlm(properties.value(), log, options, binding_error);
  if (!binding_error.empty()) {
    std::fprintf(stderr, "tracecheck: %s\n", binding_error.c_str());
    return 2;
  }
  report.print(std::cout);
  const bool all_ok = report.all_ok();
  std::printf("%s\n", all_ok ? "ALL PASS" : "FAILURES DETECTED");
  return all_ok ? 0 : 1;
}
