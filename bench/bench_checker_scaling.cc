// Checks the paper's linearity claim (Sec. V): "the number of activated
// checkers linearly affects the overhead in the overall simulation, in both
// testcases and at each abstraction level". Sweeps the checker count from 0
// to the full suite at every level and prints per-checker overhead.
//
// At the TLM levels each row is printed twice: once with the serial
// evaluation engine (jobs=1, the paper's configuration) and once with the
// sharded engine (jobs=N, REPRO_BENCH_JOBS or hardware concurrency), so the
// scaling of the parallel checker engine is visible next to the serial
// baseline it must match verdict-for-verdict.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "analysis/prune.h"
#include "bench_table_common.h"
#include "psl/parser.h"

using namespace repro;
using models::Design;
using models::Level;

namespace {

struct RowFit {
  double slope = 0;  // overhead per checker, percent
  double r = 1;      // linearity correlation
};

RowFit fit(const std::vector<double>& secs) {
  const double base = secs[0];
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  const double n_points = static_cast<double>(secs.size());
  for (size_t i = 0; i < secs.size(); ++i) {
    const double x = static_cast<double>(i);
    const double y = (secs[i] / base - 1.0) * 100.0;
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    syy += y * y;
  }
  RowFit f;
  f.slope = (n_points * sxy - sx * sy) / (n_points * sxx - sx * sx);
  const double denom = (n_points * sxx - sx * sx) * (n_points * syy - sy * sy);
  f.r = denom > 0 ? (n_points * sxy - sx * sy) / std::sqrt(denom) : 1.0;
  return f;
}

// Aggregate coverage summary for one measured run: suite-wide vacuity split
// from the schema-v2 coverage counters, emitted as a raw JSON record next
// to the timing record it annotates.
void add_coverage_record(bench::BenchJson& json, const char* label,
                         const models::RunConfig& config,
                         const bench::Measurement& m) {
  if (!json.enabled() || m.result.report.properties().empty()) return;
  uint64_t activations = 0, holds = 0, failures = 0;
  uint64_t real = 0, vacuous = 0, dyn_vacuous = 0;
  for (const abv::PropertyReport& p : m.result.report.properties()) {
    activations += p.activations;
    holds += p.holds;
    failures += p.failures;
    real += p.real_passes;
    vacuous += p.vacuous_passes;
    if (p.dynamically_vacuous()) ++dyn_vacuous;
  }
  const double rate =
      holds == 0 ? 0.0
                 : static_cast<double>(vacuous) / static_cast<double>(holds);
  char record[512];
  std::snprintf(
      record, sizeof record,
      "{\"label\": \"%s coverage\", \"design\": \"%s\", \"level\": \"%s\", "
      "\"checkers\": %zu, \"jobs\": %zu, \"activations\": %llu, "
      "\"holds\": %llu, \"failures\": %llu, \"real_passes\": %llu, "
      "\"vacuous_passes\": %llu, \"vacuous_pass_rate\": %.6f, "
      "\"dynamically_vacuous_properties\": %llu}",
      label, models::to_string(config.design),
      models::to_string(config.level), config.checkers, config.engine.jobs,
      static_cast<unsigned long long>(activations),
      static_cast<unsigned long long>(holds),
      static_cast<unsigned long long>(failures),
      static_cast<unsigned long long>(real),
      static_cast<unsigned long long>(vacuous), rate,
      static_cast<unsigned long long>(dyn_vacuous));
  json.add_raw(record);
}

std::vector<double> row(models::RunConfig config, size_t suite_size,
                        size_t jobs, bench::BenchJson& json) {
  config.engine.jobs = jobs;
  std::vector<double> secs;
  for (size_t n = 0; n <= suite_size; ++n) {
    config.checkers = n;
    const bench::Measurement m = bench::measure(config, /*repeats=*/2);
    char label[64];
    std::snprintf(label, sizeof label, "%s x%zu %zuC",
                  models::to_string(config.level), jobs, n);
    json.add(label, config, m);
    add_coverage_record(json, label, config, m);
    secs.push_back(m.seconds);
  }
  return secs;
}

void print_row(const char* label, const std::vector<double>& secs) {
  std::printf("%-12s", label);
  for (double s : secs) std::printf(" %8.4f", s);
  std::printf("\n");
  const RowFit f = fit(secs);
  std::printf("%-12s overhead/checker = %.1f%%, linearity r = %.3f\n", "",
              f.slope, f.r);
}

void sweep(Design design, size_t workload, size_t suite_size) {
  const size_t w = bench::scaled(workload);
  const size_t jobs = bench::bench_jobs();
  bench::BenchJson json(std::string("checker_scaling_") +
                        models::to_string(design));
  std::printf("--- %s (workload %zu) ---\n", models::to_string(design), w);
  std::printf("%-12s", "level");
  for (size_t n = 0; n <= suite_size; ++n) std::printf(" %7zuC", n);
  std::printf("\n");
  for (Level level : {Level::kRtl, Level::kTlmCa, Level::kTlmAt}) {
    models::RunConfig config;
    config.design = design;
    config.level = level;
    config.workload = w;
    const std::vector<double> serial = row(config, suite_size, /*jobs=*/1, json);
    print_row(models::to_string(level), serial);
    if (level == Level::kRtl) continue;  // the engine only runs at TLM
    const std::vector<double> sharded = row(config, suite_size, jobs, json);
    char label[32];
    std::snprintf(label, sizeof label, "%s x%zu", models::to_string(level),
                  jobs);
    print_row(label, sharded);
    std::printf("%-12s full-suite serial/sharded = %.2fx\n", "",
                serial.back() / sharded.back());
  }
}

// Extra properties that the prune planner removes: tautologies (elided) and
// restatements of suite obligations (subsumed). Only suite signals are
// referenced, so the unpruned baseline can simulate every one of them.
std::vector<psl::RtlProperty> prunable_extras() {
  auto parsed = psl::parse_rtl_property_file(
      "x1: always (rdy || !rdy) @clk_pos;\n"
      "x2: always (ds -> ds) @clk_pos;\n"
      "x3: always ((ds && rdy) -> rdy) @clk_pos;\n"
      "x4: always (!ds || rdy || !rdy) @clk_pos;\n"
      "x5: always (!ds || next[17](rdy)) @clk_pos;\n"
      "x6: always (!ds || next[17](rdy)) @clk_pos;");
  return parsed.ok() ? parsed.value() : std::vector<psl::RtlProperty>{};
}

// Pruned-vs-unpruned A/B: the full DES56 suite plus six prunable extras.
// Six of the fifteen properties (40%) leave the live set, plus the suite's
// own p7 => 47% pruned. Records/s and live-checker counts per leg go to
// BENCH_prune.json; the two legs must agree verdict-for-verdict.
void prune_ab() {
  bench::BenchJson json("prune");
  std::printf("=== Analysis-guided pruning A/B (DES56 + 6 prunable extras) "
              "===\n");
  std::printf("%-14s %8s %8s %10s %12s %8s\n", "level", "mode", "live",
              "seconds", "records/s", "speedup");
  for (Level level : {Level::kTlmCa, Level::kTlmAt}) {
    models::RunConfig config;
    config.design = Design::kDes56;
    config.level = level;
    config.checkers = 9;
    config.workload = bench::scaled(1600);
    config.engine.jobs = 1;
    config.extra_properties = prunable_extras();

    models::RunConfig pruned = config;
    pruned.analysis.prune = analysis::PruneMode::kSafe;

    const bench::Measurement base = bench::measure(config, /*repeats=*/3);
    const bench::Measurement fast = bench::measure(pruned, /*repeats=*/3);
    const size_t total = config.checkers + config.extra_properties.size();
    const size_t live = fast.result.prune_plan.live();
    const double base_rps =
        static_cast<double>(base.transactions) / base.seconds;
    const double fast_rps =
        static_cast<double>(fast.transactions) / fast.seconds;
    const bool verdicts_match =
        base.properties_ok == fast.properties_ok &&
        base.result.report.all_ok() == fast.result.report.all_ok();
    std::printf("%-14s %8s %5zu/%-2zu %10.4f %12.0f %8s\n",
                models::to_string(level), "off", total, total, base.seconds,
                base_rps, "");
    std::printf("%-14s %8s %5zu/%-2zu %10.4f %12.0f %7.2fx%s\n",
                models::to_string(level), "safe", live, total, fast.seconds,
                fast_rps, fast_rps / base_rps,
                verdicts_match ? "" : "  VERDICT MISMATCH");
    if (json.enabled()) {
      char record[512];
      std::snprintf(
          record, sizeof record,
          "{\"label\": \"prune A/B %s\", \"design\": \"des56\", "
          "\"level\": \"%s\", \"jobs\": 1, \"properties\": %zu, "
          "\"live_checkers_off\": %zu, \"live_checkers_safe\": %zu, "
          "\"pruned_fraction\": %.3f, \"seconds_off\": %.6f, "
          "\"seconds_safe\": %.6f, \"records_per_sec_off\": %.1f, "
          "\"records_per_sec_safe\": %.1f, \"speedup\": %.3f, "
          "\"verdicts_match\": %s}",
          models::to_string(level), models::to_string(level), total, total,
          live,
          static_cast<double>(total - live) / static_cast<double>(total),
          base.seconds, fast.seconds, base_rps, fast_rps,
          fast_rps / base_rps, verdicts_match ? "true" : "false");
      json.add_raw(record);
    }
  }
}

}  // namespace

int main() {
  std::printf("=== Checker-count scaling (linearity claim, Sec. V) ===\n");
  std::printf("sharded rows use jobs=%zu (REPRO_BENCH_JOBS to override)\n",
              bench::bench_jobs());
  sweep(Design::kDes56, 1600, 9);
  sweep(Design::kColorConv, 16000, 12);
  prune_ab();
  return 0;
}
