#include "bench_table_common.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "support/json.h"

namespace repro::bench {

size_t scaled(size_t workload) {
  const char* scale = std::getenv("REPRO_BENCH_SCALE");
  if (scale == nullptr) return workload;
  const long pct = std::strtol(scale, nullptr, 10);
  if (pct <= 0) return workload;
  return std::max<size_t>(1, workload * static_cast<size_t>(pct) / 100);
}

size_t bench_jobs() {
  const char* env = std::getenv("REPRO_BENCH_JOBS");
  if (env != nullptr) {
    const long n = std::strtol(env, nullptr, 10);
    if (n >= 1) return static_cast<size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 2 : hw, 2, 8);
}

Measurement measure(const models::RunConfig& config, int repeats) {
  Measurement m;
  m.seconds = 1e100;
  for (int i = 0; i < repeats; ++i) {
    models::RunResult r = models::run_simulation(config);
    if (r.wall_seconds < m.seconds) m.seconds = r.wall_seconds;
    m.functional_ok = r.functional_ok;
    m.properties_ok = config.checkers == 0 || r.properties_ok;
    m.transactions = r.transactions;
    m.result = std::move(r);
  }
  return m;
}

BenchJson::BenchJson(std::string name) : name_(std::move(name)) {
  const char* env = std::getenv("REPRO_BENCH_JSON");
  if (env == nullptr || env[0] == '\0' ||
      (env[0] == '0' && env[1] == '\0')) {
    return;
  }
  enabled_ = true;
  std::error_code ec;
  if (std::filesystem::is_directory(env, ec)) dir_ = env;
}

void BenchJson::add(const std::string& label, const models::RunConfig& config,
                    double seconds, const models::RunResult& result) {
  if (!enabled_) return;
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "%s    {\"label\": \"%s\", \"design\": \"%s\", \"level\": \"%s\", "
      "\"checkers\": %zu, \"jobs\": %zu, \"workload\": %zu, "
      "\"seconds\": %.6f, \"transactions\": %llu, "
      "\"functional_ok\": %s, \"properties_ok\": %s}",
      count_ == 0 ? "\n" : ",\n", label.c_str(),
      models::to_string(config.design), models::to_string(config.level),
      config.checkers, config.engine.jobs, config.workload, seconds,
      static_cast<unsigned long long>(result.transactions),
      result.functional_ok ? "true" : "false",
      result.properties_ok ? "true" : "false");
  records_ += buf;
  ++count_;
}

void BenchJson::add_raw(const std::string& json_object) {
  if (!enabled_) return;
  records_ += std::string(count_ == 0 ? "\n    " : ",\n    ") + json_object;
  ++count_;
}

BenchJson::~BenchJson() {
  if (!enabled_) return;
  const std::string path =
      (dir_.empty() ? std::string() : dir_ + "/") + "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "REPRO_BENCH_JSON: cannot write %s\n", path.c_str());
    return;
  }
  // Provenance: the host core count and the build that produced the numbers.
  out << "{\n  \"schema_version\": 1,\n  \"bench\": \"" << name_
      << "\",\n  \"host\": {\"nproc\": "
      << std::thread::hardware_concurrency() << ", \"build_type\": ";
  support::json::write_string(out, REPRO_BUILD_TYPE);
  out << ", \"compiler\": ";
  support::json::write_string(out, REPRO_COMPILER);
  out << "},\n  \"records\": [" << records_ << (count_ ? "\n  ]" : "]")
      << "\n}\n";
  std::printf("benchmark records written to %s\n", path.c_str());
}

void print_row(const char* label, double without_s, double with_s, bool ok) {
  const double overhead = (with_s / without_s - 1.0) * 100.0;
  std::printf("%-14s %10.4f %10.4f %9.1f%%   %s\n", label, without_s, with_s,
              overhead, ok ? "ok" : "CHECK-FAILED");
}

void run_table1(models::Design design, size_t workload, size_t suite_size) {
  using models::Level;
  const size_t w = scaled(workload);
  BenchJson json(std::string("table1_") + models::to_string(design));
  std::printf("=== Table I: %s (workload %zu, properties %zu) ===\n",
              models::to_string(design), w, suite_size);
  std::printf("%-14s %10s %10s %10s\n", "config", "w/out c.(s)", "with c.(s)",
              "overhead");

  const size_t points[] = {1, 5, suite_size};
  const char* point_names[] = {"1 C", "5 C", "All C"};

  for (Level level : {Level::kRtl, Level::kTlmCa, Level::kTlmAt}) {
    models::RunConfig config;
    config.design = design;
    config.level = level;
    config.workload = w;
    config.checkers = 0;
    const Measurement base = measure(config);
    json.add(std::string(models::to_string(level)) + " 0 C", config, base);
    for (int i = 0; i < 3; ++i) {
      config.checkers = points[i];
      const Measurement with = measure(config);
      char label[64];
      std::snprintf(label, sizeof label, "%s %s", models::to_string(level),
                    point_names[i]);
      json.add(label, config, with);
      print_row(label, base.seconds, with.seconds,
                base.functional_ok && with.functional_ok && with.properties_ok);
    }
  }
}

}  // namespace repro::bench
