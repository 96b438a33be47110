// Reference oracle for checker-level tests: what a PropertyChecker must
// count, derived from reference_eval alone. Lets a test check the scalar
// and the lane-backed checker forms against the same independent answer.
#ifndef REPRO_TESTS_CHECKER_ORACLE_H_
#define REPRO_TESTS_CHECKER_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "checker/checker.h"
#include "checker/program.h"
#include "checker/reference_eval.h"
#include "checker/trace.h"
#include "psl/ast.h"

namespace repro::checker::oracle {

// How one session anchored at an event resolves.
struct Resolution {
  Verdict verdict = Verdict::kPending;
  size_t at = 0;     // index of the resolving event (trace size if none)
  uint64_t steps = 0;
  bool operator==(const Resolution& o) const {
    return verdict == o.verdict && at == o.at && steps == o.steps;
  }
};

inline std::ostream& operator<<(std::ostream& os, const Resolution& r) {
  return os << "{verdict " << static_cast<int>(r.verdict) << ", at " << r.at
            << ", steps " << r.steps << "}";
}

// reference_eval on each growing prefix, for every anchor at once: the
// first prefix whose verdict is decided is the resolution event; a session
// still open at the end takes its complete-trace verdict.
inline std::vector<Resolution> reference_resolutions(const psl::ExprPtr& f,
                                                     const Trace& trace) {
  std::vector<Resolution> out(trace.size());
  Trace prefix;
  for (size_t j = 0; j < trace.size(); ++j) {
    prefix.push_back(trace[j]);
    out[j].at = trace.size();
    for (size_t k = 0; k <= j; ++k) {
      if (out[k].at != trace.size()) continue;
      ++out[k].steps;
      const Verdict v = reference_eval(f, prefix, k, /*complete=*/false);
      if (v != Verdict::kPending) {
        out[k].verdict = v;
        out[k].at = j;
      }
    }
  }
  for (size_t k = 0; k < trace.size(); ++k) {
    if (out[k].at == trace.size()) {
      out[k].verdict = reference_eval(f, trace, k, /*complete=*/true);
    }
  }
  return out;
}

struct OracleRun {
  CheckerStats stats;  // events .. node_visits; pools and tables stay 0
  std::vector<psl::TimeNs> failure_times;  // in retirement order
};

// The run of an unabstracted PropertyChecker over `always body` with context
// guard `guard` (nullptr: every event activates): every activation
// evaluated to its resolution. A session failing at the end of the trace
// retires at the last event.
inline OracleRun oracle_run(const psl::ExprPtr& body, const psl::ExprPtr& guard,
                            const Trace& trace) {
  OracleRun run;
  CheckerStats& s = run.stats;
  s.events = trace.size();
  const psl::ExprPtr antecedent = derive_antecedent(body);
  const std::vector<Resolution> resolutions =
      reference_resolutions(body, trace);
  for (size_t k = 0; k < trace.size(); ++k) {
    if (guard && !eval_boolean(guard, trace[k].values)) continue;
    const Resolution& r = resolutions[k];
    ++s.activations;
    s.steps += r.steps;
    if (r.at == k) ++s.trivial;
    switch (r.verdict) {
      case Verdict::kTrue: {
        ++s.holds;
        const bool exercised =
            antecedent == nullptr || eval_boolean(antecedent, trace[k].values);
        ++(exercised ? s.real_passes : s.vacuous_passes);
        break;
      }
      case Verdict::kFalse:
        ++s.failures;
        run.failure_times.push_back(
            trace[std::min(r.at, trace.size() - 1)].time);
        break;
      case Verdict::kPending:
        ++s.uncompleted;
        break;
    }
  }
  // Sessions retire in event order, so the failure log is time-sorted.
  std::stable_sort(run.failure_times.begin(), run.failure_times.end());
  s.node_visits = s.steps * psl::node_count(body);
  return run;
}

}  // namespace repro::checker::oracle

#endif  // REPRO_TESTS_CHECKER_ORACLE_H_
