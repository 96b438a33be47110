// Micro-benchmark of the checker runtime's side costs over the abstracted
// DES56 suite (Sec. IV), on a synthetic TLM-AT-style event stream.
//
// The telemetry section drives a full PropertyChecker per property with a
// live coverage row attached and detached (interleaved best-of-reps) and
// gates the geometric-mean throughput ratio at >= 0.95. It also reports the
// vacuity split each property shows on the stream and the hash-consing hit
// rate of the expression intern table over the suite.
//
// The analysis-cost section times the symbolic bounded trajectory
// evaluation (analysis/symbolic.h) over both shipped suites at both levels
// and records dead-node counts and the fraction of properties it discharges
// (never-fails, exhaustively) into BENCH_symbolic.json. It doubles as the
// CI wall-clock gate: `bench_ir_eval --symbolic-only` runs just that
// section and exits non-zero when the analysis blows a generous budget.
//
// With REPRO_BENCH_JSON set, records land in BENCH_ir_eval.json (and
// BENCH_symbolic.json for the analysis-cost section).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/symbolic.h"
#include "bench_table_common.h"
#include "checker/checker.h"
#include "checker/trace.h"
#include "models/properties.h"
#include "psl/intern.h"
#include "rewrite/methodology.h"
#include "support/coverage.h"
#include "support/rng.h"

using namespace repro;

namespace {

// Synthetic TLM-AT-style stream: transaction-end events at irregular
// instants, handshake-shaped signals so next/until obligations both resolve
// and survive. Deterministic (fixed seed), so every run sees the same
// trace.
checker::Trace make_trace(size_t length) {
  Rng rng(0x1DEA11EDULL);
  checker::Trace trace;
  trace.reserve(length);
  psl::TimeNs t = 0;
  size_t since_ds = 1000;
  for (size_t i = 0; i < length; ++i) {
    t += 5 + rng.below(46);  // 5..50 ns between transaction ends
    const bool ds = rng.chance(1, 5);
    if (ds) since_ds = 0; else ++since_ds;
    checker::Observation ob;
    ob.time = t;
    ob.values.set("ds", ds ? 1 : 0);
    // rdy usually follows an accepted operation a few events later.
    ob.values.set("rdy", (!ds && since_ds >= 2 && rng.chance(3, 5)) ? 1 : 0);
    ob.values.set("out", rng.chance(9, 10) ? 1 + rng.below(1000) : 0);
    ob.values.set("indata", rng.below(1000));
    ob.values.set("monitor_en", 1);
    trace.push_back(std::move(ob));
  }
  return trace;
}

// ---- Telemetry overhead: coverage row attached vs detached ---------------

// One timed sample: `passes` fresh PropertyCheckers (event timestamps must
// be monotonic within a checker's lifetime, so the checker cannot be
// re-fed the same trace) each driven once through the stream and finished.
// With `row` set, the checker mirrors its stats into the live coverage row
// at its sync points (set_coverage and finish) — the telemetry path the
// snapshot sampler reads. `stats_out`, when non-null, receives the last
// pass's stats.
double time_telemetry_pass(const psl::ExprPtr& formula,
                           const checker::Trace& trace, size_t passes,
                           support::CoverageTable::Row* row,
                           checker::CheckerStats* stats_out) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t p = 0; p < passes; ++p) {
    checker::PropertyChecker ck("bench", formula, nullptr);
    ck.set_coverage(row);
    for (const checker::Observation& ob : trace) {
      ck.on_event(ob.time, ob.values);
    }
    ck.finish();
    if (stats_out && p + 1 == passes) *stats_out = ck.stats();
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(passes * trace.size()) / elapsed.count();
}

// ---- Symbolic analysis cost ----------------------------------------------------

// Generous wall-clock budget for symbolically analyzing BOTH shipped suites
// at both levels. The observed cost is a few milliseconds; the gate exists
// to catch accidental exponential blow-ups, not to tune milliseconds.
constexpr double kSymbolicBudgetSeconds = 10.0;

// Runs the symbolic bounded trajectory evaluation over one suite: every
// property's RTL formula plus its abstracted TLM formula (when it differs),
// mirroring check_symbolic. Returns per-suite aggregates.
struct SymbolicCost {
  size_t levels = 0;      // (property, level) pairs attempted
  size_t analyzed = 0;    // accepted by an encoding (status kOk)
  size_t skipped = 0;     // declined (mixed currencies, abort, budget)
  size_t discharged = 0;  // proved never-failing over an exhaustive horizon
  size_t witnesses = 0;   // reachable failures with a replay-verified trace
  size_t dead_nodes = 0;  // program nodes that never influence the verdict
  double seconds = 0;
};

SymbolicCost symbolic_suite_cost(const models::PropertySuite& suite) {
  rewrite::AbstractionOptions options;
  options.clock_period_ns = suite.clock_period_ns;
  options.abstracted_signals = suite.abstracted_signals;
  const std::vector<rewrite::AbstractionOutcome> outcomes =
      rewrite::abstract_suite(suite.properties, options);

  analysis::SymbolicEval::Options sym_opt;
  sym_opt.clock_period_ns = suite.clock_period_ns;
  sym_opt.step_budget = 16;

  SymbolicCost cost;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < suite.properties.size(); ++i) {
    std::vector<psl::ExprPtr> levels = {suite.properties[i].formula};
    if (!outcomes[i].deleted() &&
        psl::to_string(outcomes[i].property->formula) !=
            psl::to_string(suite.properties[i].formula)) {
      levels.push_back(outcomes[i].property->formula);
    }
    for (const psl::ExprPtr& formula : levels) {
      ++cost.levels;
      analysis::SymbolicEval sym(formula, sym_opt);
      if (sym.status() != analysis::SymbolicEval::Status::kOk) {
        ++cost.skipped;
        continue;
      }
      ++cost.analyzed;
      if (sym.never_fails() && sym.exhaustive()) {
        ++cost.discharged;
      } else if (sym.fail_witness().has_value()) {
        ++cost.witnesses;
      }
      if (sym.exhaustive()) cost.dead_nodes += sym.dead_nodes().size();
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  cost.seconds = elapsed.count();
  return cost;
}

// Prints and records the analysis-cost table; returns non-zero when the
// wall-clock budget is blown.
int run_symbolic_cost_section() {
  bench::BenchJson json("symbolic");
  std::printf("\n=== Symbolic analysis cost (16-step budget, both levels) "
              "===\n");
  std::printf("%-10s %7s %9s %8s %11s %9s %11s %10s\n", "suite", "levels",
              "analyzed", "skipped", "discharged", "witnesses", "dead nodes",
              "seconds");
  double total_seconds = 0;
  for (const models::PropertySuite& suite :
       {models::des56_suite(), models::colorconv_suite()}) {
    const SymbolicCost c = symbolic_suite_cost(suite);
    total_seconds += c.seconds;
    const double discharged_fraction =
        c.analyzed == 0 ? 0.0
                        : static_cast<double>(c.discharged) /
                              static_cast<double>(c.analyzed);
    std::printf("%-10s %7zu %9zu %8zu %7zu/%-3.0f%% %9zu %11zu %10.5f\n",
                suite.design.c_str(), c.levels, c.analyzed, c.skipped,
                c.discharged, 100.0 * discharged_fraction, c.witnesses,
                c.dead_nodes, c.seconds);
    if (json.enabled()) {
      char record[512];
      std::snprintf(
          record, sizeof record,
          "{\"label\": \"symbolic %s\", \"design\": \"%s\", "
          "\"step_budget\": 16, \"levels\": %zu, \"analyzed\": %zu, "
          "\"skipped\": %zu, \"discharged\": %zu, "
          "\"discharged_fraction\": %.6f, \"witnesses\": %zu, "
          "\"dead_nodes\": %zu, "
          "\"seconds\": %.6f, \"budget_seconds\": %.1f}",
          suite.design.c_str(), suite.design.c_str(), c.levels, c.analyzed,
          c.skipped, c.discharged, discharged_fraction, c.witnesses,
          c.dead_nodes, c.seconds, kSymbolicBudgetSeconds);
      json.add_raw(record);
    }
  }
  std::printf("symbolic analysis of both suites: %.5f s (budget %.1f s)\n",
              total_seconds, kSymbolicBudgetSeconds);
  if (total_seconds > kSymbolicBudgetSeconds) {
    std::printf("SYMBOLIC ANALYSIS OVER BUDGET\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // CI gate mode: run only the (cheap) symbolic analysis-cost section.
  if (argc > 1 && std::strcmp(argv[1], "--symbolic-only") == 0) {
    return run_symbolic_cost_section();
  }
  const size_t kTraceLen = bench::scaled(2048);
  const checker::Trace trace = make_trace(kTraceLen);

  const models::PropertySuite suite = models::des56_suite();
  rewrite::AbstractionOptions options;
  options.clock_period_ns = suite.clock_period_ns;
  options.abstracted_signals = suite.abstracted_signals;
  const std::vector<rewrite::AbstractionOutcome> outcomes =
      rewrite::abstract_suite(suite.properties, options);

  bench::BenchJson json("ir_eval");

  // Telemetry overhead: the full PropertyChecker path with a live coverage
  // row attached (relaxed mirror stores at sync points, latency
  // histogram, vacuity split) vs the same checker with no row. Interleaved
  // best-of-reps per side; the acceptance gate below requires the geomean
  // throughput ratio with/without to stay >= 0.95 (<= ~5% overhead).
  std::printf("=== Telemetry overhead: coverage row attached vs off ===\n");
  std::printf("%-6s %14s %14s %9s %8s %8s\n", "prop", "off steps/s",
              "cov steps/s", "overhead", "vacuous", "rate");
  support::CoverageTable cov_table;
  const size_t kTelemetryPasses = 8;
  double log_telemetry_sum = 0;
  size_t telemetry_measured = 0;
  for (size_t i = 0; i < suite.properties.size(); ++i) {
    if (outcomes[i].deleted()) continue;
    const psl::ExprPtr& formula = outcomes[i].property->formula;
    const std::string& name = suite.properties[i].name;
    support::CoverageTable::Row* row = &cov_table.row(name);

    time_telemetry_pass(formula, trace, kTelemetryPasses, row, nullptr);
    time_telemetry_pass(formula, trace, kTelemetryPasses, nullptr, nullptr);
    double with_cov = 0, without_cov = 0;
    checker::CheckerStats stats;
    for (int rep = 0; rep < 5; ++rep) {
      const double a =
          time_telemetry_pass(formula, trace, kTelemetryPasses, row, &stats);
      const double b =
          time_telemetry_pass(formula, trace, kTelemetryPasses, nullptr,
                              nullptr);
      if (a > with_cov) with_cov = a;
      if (b > without_cov) without_cov = b;
    }
    const double ratio = with_cov / without_cov;
    log_telemetry_sum += std::log(ratio);
    ++telemetry_measured;

    const double vacuous_rate =
        stats.holds == 0
            ? 0.0
            : static_cast<double>(stats.vacuous_passes) /
                  static_cast<double>(stats.holds);
    std::printf("%-6s %14.3e %14.3e %8.2f%% %8llu %7.1f%%\n", name.c_str(),
                without_cov, with_cov, (1.0 / ratio - 1.0) * 100.0,
                static_cast<unsigned long long>(stats.vacuous_passes),
                100.0 * vacuous_rate);

    // Coverage summary record for BENCH_ir_eval.json: the vacuity split the
    // telemetry run observed, plus the measured overhead ratio.
    if (json.enabled()) {
      char record[512];
      std::snprintf(
          record, sizeof record,
          "{\"label\": \"%s telemetry\", \"design\": \"des56\", "
          "\"steps_per_second_off\": %.6e, \"steps_per_second_cov\": %.6e, "
          "\"telemetry_ratio\": %.6f, \"activations\": %llu, "
          "\"holds\": %llu, \"failures\": %llu, \"real_passes\": %llu, "
          "\"vacuous_passes\": %llu, \"vacuous_pass_rate\": %.6f, "
          "\"dynamically_vacuous\": %s}",
          name.c_str(), without_cov, with_cov, ratio,
          static_cast<unsigned long long>(stats.activations),
          static_cast<unsigned long long>(stats.holds),
          static_cast<unsigned long long>(stats.failures),
          static_cast<unsigned long long>(stats.real_passes),
          static_cast<unsigned long long>(stats.vacuous_passes), vacuous_rate,
          stats.failures == 0 && stats.real_passes == 0 ? "true" : "false");
      json.add_raw(record);
    }
  }
  const double telemetry_geomean =
      telemetry_measured == 0
          ? 1.0
          : std::exp(log_telemetry_sum / telemetry_measured);
  std::printf("geometric-mean telemetry throughput ratio (cov/off): %.3f "
              "over %zu properties\n",
              telemetry_geomean, telemetry_measured);

  // Hash-consing effectiveness: intern the whole abstracted suite twice.
  psl::ExprTable table;
  for (int round = 0; round < 2; ++round) {
    for (const rewrite::AbstractionOutcome& o : outcomes) {
      if (!o.deleted()) table.intern(o.property->formula);
    }
  }
  const psl::ExprTable::Stats& stats = table.stats();
  const double hit_rate =
      static_cast<double>(stats.hits) /
      static_cast<double>(stats.hits + stats.misses);
  std::printf("intern table over 2x suite: %llu hits, %llu misses "
              "(%.1f%% hit rate)\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              100.0 * hit_rate);

  const int symbolic_rc = run_symbolic_cost_section();

  // Gate: the coverage telemetry must cost at most ~5% geomean throughput,
  // and the symbolic analysis must stay inside its wall-clock budget.
  if (symbolic_rc != 0) return symbolic_rc;
  if (telemetry_measured > 0 && telemetry_geomean < 0.95) return 1;
  return 0;
}
