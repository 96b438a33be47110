// bench_engine_jobs: wall time of five TLM cells at engine jobs 1 to 4.
//
// The sharded evaluation engine (abv::EvalEngine) splits a property suite
// across shards fed by one batch ring. This bench asks whether that pays on
// whole runs. Each cell (design, level, workload, live or replayed) runs the
// whole property suite at jobs 1, 2, 3 and 4, for kRounds rounds; every
// round visits the 20 (cell, jobs) pairs in a freshly shuffled order, so
// drift on the host spreads over every pair alike. Each pair reports the
// median and the interquartile range of RunResult::wall_seconds. Every run
// must report exactly what the jobs-1 run of its cell reports; the bench
// exits 1 otherwise.
//
// REPRO_BENCH_SCALE scales the workloads. With REPRO_BENCH_JSON set, every
// row is also written to BENCH_engine_jobs.json (schema_version 1).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench_table_common.h"

using namespace repro;
using models::Design;
using models::Level;

namespace {

constexpr int kRounds = 10;
constexpr size_t kMaxJobs = 4;

struct Cell {
  const char* name;
  Design design;
  Level level;
  size_t workload;
  bool replay;
};

// The value at fraction q of sorted `v`, interpolated between neighbours.
double quantile(const std::vector<double>& v, double q) {
  const double at = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

models::RunConfig cell_config(const Cell& cell, size_t jobs,
                              const std::string& log) {
  models::RunConfig config;
  config.design = cell.design;
  config.level = cell.level;
  config.workload = bench::scaled(cell.workload);
  config.checkers = 99;  // the whole suite
  config.engine.jobs = jobs;
  if (cell.replay) config.ingest.replay_path = log;
  return config;
}

}  // namespace

int main() {
  const Cell cells[] = {
      {"DES56 TLM-AT live", Design::kDes56, Level::kTlmAt, 20000, false},
      {"DES56 TLM-CA live", Design::kDes56, Level::kTlmCa, 5000, false},
      {"ColorConv TLM-AT live", Design::kColorConv, Level::kTlmAt, 50000, false},
      {"ColorConv TLM-CA live", Design::kColorConv, Level::kTlmCa, 20000, false},
      {"ColorConv TLM-CA replay", Design::kColorConv, Level::kTlmCa, 50000,
       true},
  };
  constexpr size_t kCells = sizeof cells / sizeof cells[0];

  // The replayed cell reads a log recorded once by its live twin.
  std::error_code ec;
  const std::string log =
      (std::filesystem::temp_directory_path(ec) / "bench_engine_jobs.rtabv")
          .string();
  for (const Cell& cell : cells) {
    if (!cell.replay) continue;
    models::RunConfig record = cell_config(cell, 1, log);
    record.ingest.replay_path.clear();
    record.ingest.record_path = log;
    const models::RunResult r = models::run_simulation(record);
    if (!r.ingest_error.empty()) {
      std::fprintf(stderr, "cannot record %s: %s\n", log.c_str(),
                   r.ingest_error.c_str());
      return 1;
    }
  }

  // seconds[c][j]: one wall time per round of cell c at jobs j + 1.
  std::vector<double> seconds[kCells][kMaxJobs];
  abv::Report reference[kCells];
  bool ok = true;
  std::vector<std::pair<size_t, size_t>> order;
  for (size_t c = 0; c < kCells; ++c) {
    for (size_t j = 0; j < kMaxJobs; ++j) order.emplace_back(c, j);
  }
  std::mt19937 rng(42);
  for (int round = 0; round < kRounds; ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    for (const auto& [c, j] : order) {
      const models::RunResult r =
          models::run_simulation(cell_config(cells[c], j + 1, log));
      if (!r.ingest_error.empty() || !r.functional_ok) {
        std::fprintf(stderr, "%s jobs %zu: run failed %s\n", cells[c].name,
                     j + 1, r.ingest_error.c_str());
        ok = false;
      }
      seconds[c][j].push_back(r.wall_seconds);
      if (reference[c].properties().empty()) {
        reference[c] = r.report;
      } else if (!reference[c].diff(r.report).empty()) {
        std::fprintf(stderr, "%s jobs %zu: report differs across jobs\n",
                     cells[c].name, j + 1);
        ok = false;
      }
    }
  }
  std::filesystem::remove(log, ec);

  bench::BenchJson json("engine_jobs");
  std::printf("=== engine jobs sweep: median and IQR of wall_seconds over %d "
              "shuffled rounds ===\n",
              kRounds);
  std::printf("%-26s %8s %5s %10s %10s %8s\n", "cell", "workload", "jobs",
              "median_s", "iqr_s", "vs_j1");
  for (size_t c = 0; c < kCells; ++c) {
    double serial = 0;
    for (size_t j = 0; j < kMaxJobs; ++j) {
      std::vector<double>& v = seconds[c][j];
      std::sort(v.begin(), v.end());
      const double median = quantile(v, 0.5);
      const double iqr = quantile(v, 0.75) - quantile(v, 0.25);
      if (j == 0) serial = median;
      const size_t workload = bench::scaled(cells[c].workload);
      std::printf("%-26s %8zu %5zu %10.4f %10.4f %8.2f\n", cells[c].name,
                  workload, j + 1, median, iqr, median / serial);
      char row[320];
      std::snprintf(row, sizeof row,
                    "{\"cell\": \"%s\", \"design\": \"%s\", \"level\": \"%s\", "
                    "\"replay\": %s, \"workload\": %zu, \"jobs\": %zu, "
                    "\"rounds\": %d, \"median_s\": %.6f, \"iqr_s\": %.6f}",
                    cells[c].name, models::to_string(cells[c].design),
                    models::to_string(cells[c].level),
                    cells[c].replay ? "true" : "false", workload, j + 1,
                    kRounds, median, iqr);
      json.add_raw(row);
    }
  }
  if (!ok) {
    std::fprintf(stderr, "engine jobs sweep: CHECK-FAILED\n");
    return 1;
  }
  return 0;
}
