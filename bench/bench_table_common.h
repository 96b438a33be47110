// Shared machinery for the Table I / Fig. 6 benchmark harnesses.
#ifndef REPRO_BENCH_BENCH_TABLE_COMMON_H_
#define REPRO_BENCH_BENCH_TABLE_COMMON_H_

#include <cstdio>
#include <string>

#include "models/testbench.h"

namespace repro::bench {

// Workload sizes picked so the RTL baseline runs a fraction of a second on a
// small machine while keeping >= 10^5 simulated cycles. Override with the
// REPRO_BENCH_SCALE environment variable (integer percentage, default 100).
size_t scaled(size_t workload);

// Worker count used for the sharded-engine benchmark columns: the
// REPRO_BENCH_JOBS environment variable when set, otherwise the hardware
// concurrency clamped to [2, 8].
size_t bench_jobs();

struct Measurement {
  double seconds = 0;
  bool functional_ok = false;
  bool properties_ok = false;
  uint64_t transactions = 0;
  models::RunResult result;
};

// Runs one configuration `repeats` times and keeps the minimum wall time.
Measurement measure(const models::RunConfig& config, int repeats = 3);

// Prints one Table-I-style row.
void print_row(const char* label, double without_s, double with_s,
               bool ok);

// The paper's checker-count points: 1, 5 and the whole suite.
struct CheckerPoints {
  size_t one = 1;
  size_t five = 5;
  size_t all;
};

// Machine-readable benchmark output. When the REPRO_BENCH_JSON environment
// variable is set (non-empty, not "0"), every record add()ed during the
// harness run is written as one JSON file, BENCH_<name>.json, at
// destruction. A value naming an existing directory selects the output
// directory; any other truthy value writes to the current directory.
// Every file carries a top-level "host" object (nproc, build_type,
// compiler) recording where and how the numbers were produced.
class BenchJson {
 public:
  explicit BenchJson(std::string name);
  ~BenchJson();

  bool enabled() const { return enabled_; }

  void add(const std::string& label, const models::RunConfig& config,
           double seconds, const models::RunResult& result);
  void add(const std::string& label, const models::RunConfig& config,
           const Measurement& m) {
    add(label, config, m.seconds, m.result);
  }

  // Appends one pre-rendered JSON object for harnesses whose records are not
  // whole-simulation runs (micro-benchmarks measuring engine internals).
  void add_raw(const std::string& json_object);

 private:
  std::string name_;
  std::string dir_;
  bool enabled_ = false;
  std::string records_;  // accumulated JSON array elements
  size_t count_ = 0;
};

// Emits the full Table I block for one design.
void run_table1(models::Design design, size_t workload, size_t suite_size);

}  // namespace repro::bench

#endif  // REPRO_BENCH_BENCH_TABLE_COMMON_H_
