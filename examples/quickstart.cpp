// Quickstart: abstract one RTL property into a TLM property and check it
// dynamically on a tiny hand-rolled transaction stream.
//
//   $ ./quickstart
//
// Walks through the full flow of Fig. 1: parse -> Methodology III.1 ->
// wrapper-based dynamic checking at TLM.
#include <cstdio>

#include "checker/checker.h"
#include "psl/parser.h"
#include "rewrite/methodology.h"

using namespace repro;

int main() {
  // 1. An RTL property: "17 cycles after an operation starts on the zero
  //    block, the output is nonzero" (p1 of the paper's Fig. 3).
  const char* text =
      "p1: always (!(ds && indata == 0) || next[17](out != 0)) @clk_pos";
  auto parsed = psl::parse_rtl_property(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error().to_string().c_str());
    return 1;
  }
  const psl::RtlProperty p1 = parsed.value();
  std::printf("RTL property:  %s\n", psl::to_string(p1).c_str());

  // 2. Abstract it for a TLM model of the same IP: clock period 10 ns, no
  //    signals removed.
  rewrite::AbstractionOptions options;
  options.clock_period_ns = 10;
  rewrite::AbstractionOutcome outcome = rewrite::abstract_property(p1, options);
  const psl::TlmProperty q1 = *outcome.property;
  std::printf("TLM property:  %s\n", psl::to_string(q1).c_str());
  std::printf("classification: %s\n", rewrite::to_string(outcome.classification));

  // 3. Check it on a little transaction stream: a write at t=100 starting an
  //    operation on the zero block, and the read returning the result at
  //    t=100+170.
  checker::PropertyChecker wrapper(q1, /*clock_period_ns=*/10);
  auto transaction = [&](psl::TimeNs t, bool ds, uint64_t indata, uint64_t out) {
    checker::MapContext values;
    values.set("ds", ds ? 1 : 0);
    values.set("indata", indata);
    values.set("out", out);
    wrapper.on_event(t, values);
  };
  transaction(100, true, 0, 0);            // write: operation starts
  transaction(110, false, 0, 0);           // write phase ends
  transaction(270, false, 0, 0x9d2a73f1);  // read: result, 170 ns later
  wrapper.finish();

  std::printf("activations: %llu, holds: %llu, failures: %llu\n",
              static_cast<unsigned long long>(wrapper.stats().activations),
              static_cast<unsigned long long>(wrapper.stats().holds),
              static_cast<unsigned long long>(wrapper.stats().failures));
  std::printf("instance pool (lifetime): %zu\n", wrapper.lifetime());
  std::printf("verdict: %s\n", wrapper.ok() ? "PASS" : "FAIL");
  return wrapper.ok() ? 0 : 1;
}
