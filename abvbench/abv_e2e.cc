// abv_e2e: the timing driver of the end-to-end ABV benchmark (see README.md;
// abvbench/run.py builds and runs it).
//
// Two subcommands, each run as its own process:
//   prep     records the workload's stream to <workdir>/stream.rtabv and writes
//            the reference report (Report::write_json, timing excluded) to
//            <workdir>/reference.json. The reference comes from the *other*
//            ingest path: a replay of the recorded stream for live workloads,
//            the live recording run for replay workloads.
//   measure  times whole models::run_simulation calls for --seconds. With
//            --trace 1 it also times the public entry point of each layer
//            from outside the library (suite build, stimulus, abstraction,
//            checker compile, kernel-only twin, env ingest/finish/report,
//            trace-log open/next/write) and, given --shard-jobs N, a twin
//            call on N evaluation shards; nothing inside src/ is instrumented.
//
// Output is one JSON object on stdout holding raw samples; run.py reduces
// them to the metrics named in BENCHMARK.json.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "abv/rtl_env.h"
#include "abv/tlm_env.h"
#include "checker/checker.h"
#include "models/properties.h"
#include "models/stimulus.h"
#include "models/testbench.h"
#include "rewrite/methodology.h"
#include "sim/kernel.h"
#include "support/json.h"
#include "support/tracelog.h"
#include "tlm/record_source.h"

using namespace repro;
namespace tracelog = support::tracelog;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string command;
  models::Design design = models::Design::kDes56;
  models::Level level = models::Level::kRtl;
  size_t size = 0;
  size_t checkers = 0;
  size_t jobs = 1;
  size_t shard_jobs = 0;  // traced run's sharded twin; 0: none
  uint64_t seed = 0;
  bool replay = false;
  bool trace = false;
  double seconds = 1.0;
  std::string workdir;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "abv_e2e: %s\n"
               "usage: abv_e2e prep|measure --design D --level L --size N "
               "--checkers K --jobs J --seed S --replay 0|1 --workdir DIR "
               "[--seconds T --trace 0|1 --shard-jobs N]\n",
               why);
  return 2;
}

bool parse_options(int argc, char** argv, Options& o) {
  if (argc < 2 || argc % 2 != 0) return false;
  o.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--design") {
      if (!models::parse_design(value, o.design)) return false;
    } else if (key == "--level") {
      if (!models::parse_level(value, o.level)) return false;
    } else if (key == "--size") {
      o.size = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--checkers") {
      o.checkers = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--jobs") {
      o.jobs = std::max<size_t>(1, std::strtoull(value.c_str(), nullptr, 10));
    } else if (key == "--shard-jobs") {
      o.shard_jobs = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--replay") {
      o.replay = value == "1";
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--workdir") {
      o.workdir = value;
    } else {
      return false;
    }
  }
  return (o.command == "prep" || o.command == "measure") && o.size > 0 &&
         o.checkers > 0 && !o.workdir.empty() && o.seconds > 0;
}

std::string stream_path(const Options& o) { return o.workdir + "/stream.rtabv"; }
std::string reference_path(const Options& o) {
  return o.workdir + "/reference.json";
}

models::RunConfig make_config(const Options& o) {
  models::RunConfig config;
  config.design = o.design;
  config.level = o.level;
  config.checkers = o.checkers;
  config.workload = o.size;
  config.seed = o.seed;
  config.engine.jobs = o.jobs;
  return config;
}

std::string report_bytes(const abv::Report& report) {
  std::ostringstream os;
  report.write_json(os);  // timing section excluded
  return os.str();
}

// FNV-1a 64 of the report bytes, printed as 16 hex digits.
std::string digest(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return 1;
}

// Round-robin CPU placement for single-threaded workloads. The vCPUs of a
// shared host run at different, drifting speeds (up to 2x apart), and the
// scheduler keeps a single-threaded process on one of them for its whole
// life, so an unpinned run measures mostly its placement. Repetition i runs
// pinned to the i-th allowed CPU (mod their count): every round of round()
// repetitions visits each CPU once. Sharded workloads spread their threads
// over all CPUs already and are left unpinned (round() == 1). At most
// kMaxCpus evenly spaced CPUs take part, which bounds a round's length on
// large hosts.
class CpuRotation {
 public:
  static constexpr size_t kMaxCpus = 8;

  explicit CpuRotation(bool enabled) {
    CPU_ZERO(&all_);
    if (!enabled || sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    std::vector<int> allowed;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) allowed.push_back(c);
    }
    const size_t n = std::min(allowed.size(), kMaxCpus);
    for (size_t k = 0; k < n; ++k) cpus_.push_back(allowed[k * allowed.size() / n]);
  }
  ~CpuRotation() { release(); }

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  size_t round() const { return cpus_.empty() ? 1 : cpus_.size(); }
  void pin(size_t i) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  void release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

// Minimal JSON object writer for the driver's output.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(key, buf);
  }
  Json& count(const std::string& key, uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& str(const std::string& key, const std::string& v) {
    std::ostringstream os;
    support::json::write_string(os, v);
    return raw(key, os.str());
  }
  Json& raw(const std::string& key, const std::string& json) {
    std::ostringstream os;
    support::json::write_string(os, key);
    body_ += (body_.empty() ? "" : ",") + os.str() + ":" + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + items[i];
  }
  return out + "]";
}

std::string json_numbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  items.reserve(values.size());
  for (double v : values) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    items.emplace_back(buf);
  }
  return json_list(items);
}

// One timed run_simulation call, as emitted: wall times, verdicts, the report
// digest, coverage totals and the merged runtime metrics.
std::string rep_json(double total_s, const models::RunResult& r) {
  uint64_t node_visits = 0, activations = 0, real = 0, vacuous = 0;
  for (const abv::PropertyReport& p : r.report.properties()) {
    node_visits += p.node_visits;
    activations += p.activations;
    real += p.real_passes;
    vacuous += p.vacuous_passes;
  }
  Json metrics;
  for (const auto& [name, v] : r.metrics.counters) metrics.count(name, v);
  for (const auto& [name, v] : r.metrics.gauges) metrics.count(name, v);
  Json j;
  j.num("total_s", total_s)
      .num("run_s", r.wall_seconds)
      .count("sim_end_ns", r.sim_end_ns)
      .count("kernel_events", r.kernel_events)
      .count("delta_cycles", r.delta_cycles)
      .flag("functional_ok", r.functional_ok)
      .flag("properties_ok", r.properties_ok)
      .str("ingest_error", r.ingest_error)
      .str("digest", digest(report_bytes(r.report)))
      .count("node_visits", node_visits)
      .count("activations", activations)
      .count("real_passes", real)
      .count("vacuous_passes", vacuous)
      .raw("metrics", metrics.text());
  return j.text();
}

// ---- prep -------------------------------------------------------------------

int prep(const Options& o) {
  std::error_code ec;
  std::filesystem::create_directories(o.workdir, ec);
  if (ec) return usage("cannot create workdir");

  models::RunConfig record = make_config(o);
  record.ingest.record_path = stream_path(o);
  const models::RunResult live = models::run_simulation(record);
  if (!live.ingest_error.empty()) {
    std::fprintf(stderr, "abv_e2e: recording failed: %s\n",
                 live.ingest_error.c_str());
    return 1;
  }

  models::RunResult replayed;
  if (!o.replay) {
    models::RunConfig replay = make_config(o);
    replay.ingest.replay_path = stream_path(o);
    replayed = models::run_simulation(replay);
    if (!replayed.ingest_error.empty()) {
      std::fprintf(stderr, "abv_e2e: reference replay failed: %s\n",
                   replayed.ingest_error.c_str());
      return 1;
    }
  }
  const models::RunResult& reference = o.replay ? live : replayed;
  const std::string bytes = report_bytes(reference.report);
  std::ofstream out(reference_path(o), std::ios::binary);
  if (!(out << bytes)) {
    std::fprintf(stderr, "abv_e2e: cannot write the reference report\n");
    return 1;
  }

  Json j;
  j.flag("live_ok", live.functional_ok && live.properties_ok)
      .flag("reference_ok", reference.functional_ok && reference.properties_ok)
      .str("reference_digest", digest(bytes));
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// ---- measure: layer attribution --------------------------------------------

// Decorator timing RecordSource::next, handed to run_simulation(config, src).
class TimedSource : public tlm::RecordSource {
 public:
  explicit TimedSource(tlm::RecordSource& inner) : inner_(inner) {}

  const tlm::RecordStreamMeta& meta() const override { return inner_.meta(); }
  tlm::RecordSpan next() override {
    const auto t0 = Clock::now();
    const tlm::RecordSpan span = inner_.next();
    seconds_ += since(t0);
    return span;
  }
  double seconds() const { return seconds_; }

 private:
  tlm::RecordSource& inner_;
  double seconds_ = 0.0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median wall time of `n` calls.
double median_time(int n, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(since(t0));
  }
  return median(times);
}

// The properties a workload checks, in the form its environment registers:
// abstracted TLM properties at TLM-AT, the RTL originals everywhere else.
struct Selection {
  std::vector<psl::RtlProperty> rtl;
  std::vector<psl::TlmProperty> tlm;
  bool abstracted = false;

  size_t size() const { return abstracted ? tlm.size() : rtl.size(); }
};

models::PropertySuite suite_of(const Options& o) {
  return o.design == models::Design::kDes56 ? models::des56_suite()
                                            : models::colorconv_suite();
}

rewrite::AbstractionOptions abstraction_options(const models::PropertySuite& s) {
  rewrite::AbstractionOptions options;
  options.clock_period_ns = s.clock_period_ns;
  options.abstracted_signals = s.abstracted_signals;
  return options;
}

Selection select(const Options& o, const models::PropertySuite& suite) {
  Selection sel;
  const size_t n = std::min(o.checkers, suite.properties.size());
  sel.rtl.assign(suite.properties.begin(), suite.properties.begin() + n);
  sel.abstracted = o.level == models::Level::kTlmAt;
  if (sel.abstracted) {
    for (const psl::RtlProperty& p : sel.rtl) {
      rewrite::AbstractionOutcome out =
          rewrite::abstract_property(p, abstraction_options(suite));
      if (!out.deleted()) sel.tlm.push_back(*out.property);
    }
  }
  return sel;
}

checker::CheckerOptions checker_options(const models::RunConfig& config) {
  checker::CheckerOptions options;
  options.compiled = config.compiled_checkers;
  options.vectorized = config.engine.vectorized;
  options.failure_log_cap = config.observability.failure_log_cap;
  return options;
}

// A checker environment the benchmark owns, configured the way
// run_simulation configures the workload's, fed the recorded stream.
class OwnedEnv {
 public:
  // `only` restricts registration to one selection index (SIZE_MAX: all).
  OwnedEnv(const Options& o, const models::RunConfig& config,
           const models::PropertySuite& suite, const Selection& sel,
           size_t only = SIZE_MAX) {
    auto wanted = [only](size_t i) { return only == SIZE_MAX || only == i; };
    if (o.level == models::Level::kRtl) {
      rtl_ = std::make_unique<abv::RtlAbvEnv>(kernel_, bag_);
      rtl_->set_checker_options(checker_options(config));
      for (size_t i = 0; i < sel.rtl.size(); ++i) {
        if (wanted(i)) rtl_->add_property(sel.rtl[i]);
      }
      return;
    }
    tlm_ = std::make_unique<abv::TlmAbvEnv>(suite.clock_period_ns);
    tlm_->set_engine_config(config.engine);
    tlm_->set_witness_depth(config.observability.witness_depth);
    tlm_->set_checker_options(checker_options(config));
    for (size_t i = 0; i < sel.size(); ++i) {
      if (!wanted(i)) continue;
      if (sel.abstracted) {
        tlm_->add_property(sel.tlm[i]);
      } else {
        tlm_->add_rtl_property(sel.rtl[i]);
      }
    }
    tlm_->bind();
  }

  // rtl_ refers to kernel_ and bag_.
  OwnedEnv(const OwnedEnv&) = delete;
  OwnedEnv& operator=(const OwnedEnv&) = delete;

  void ingest(const tlm::TransactionRecord* begin,
              const tlm::TransactionRecord* end) {
    if (tlm_ != nullptr) {
      tlm_->on_records(begin, end);
      return;
    }
    for (const tlm::TransactionRecord* r = begin; r != end; ++r) {
      rtl_->on_sample(r->end, r->address == 0, r->observables);
    }
  }
  void finish() {
    if (tlm_ != nullptr) {
      tlm_->finish();
    } else {
      rtl_->finish();
    }
  }
  abv::Report report() const {
    return tlm_ != nullptr ? tlm_->report() : rtl_->report();
  }
  // Compiled program nodes over the registered wrappers (TLM-AT); plain
  // checkers are not exposed by the TLM environment, see program_nodes().
  uint64_t wrapper_program_nodes() const {
    uint64_t nodes = 0;
    if (tlm_ == nullptr) return 0;
    for (const auto& w : tlm_->wrappers()) {
      if (w->program() != nullptr) nodes += w->program()->size();
    }
    return nodes;
  }

 private:
  sim::Kernel kernel_;  // RTL: inert placeholders, as in offline replay
  abv::SignalBag bag_;
  std::unique_ptr<abv::RtlAbvEnv> rtl_;
  std::unique_ptr<abv::TlmAbvEnv> tlm_;
};

// Compiled program nodes over the workload's checkers.
uint64_t program_nodes(const Options& o, const models::RunConfig& config,
                       const models::PropertySuite& suite,
                       const Selection& sel) {
  if (sel.abstracted) return OwnedEnv(o, config, suite, sel).wrapper_program_nodes();
  uint64_t nodes = 0;
  for (const psl::RtlProperty& p : sel.rtl) {
    const checker::PropertyChecker c(p.name, p.formula, p.context.guard,
                                     checker_options(config));
    if (c.program() != nullptr) nodes += c.program()->size();
  }
  return nodes;
}

struct Frame {
  const tlm::TransactionRecord* begin;
  const tlm::TransactionRecord* end;
};

std::vector<Frame> frames_of(const tracelog::TraceReader& reader) {
  std::vector<Frame> frames;
  const tlm::TransactionRecord* p = reader.records().data();
  for (size_t n : reader.frame_sizes()) {
    frames.push_back({p, p + n});
    p += n;
  }
  return frames;
}

// Sum of ingest span times, the spans themselves, finish and report times of
// one pass of an owned environment over the recorded stream.
struct Pass {
  double ingest_s = 0.0;
  double finish_s = 0.0;
  double report_s = 0.0;
  std::vector<double> spans_us;
  std::string digest;
};

Pass feed(OwnedEnv& env, const std::vector<Frame>& frames, bool keep_spans) {
  Pass pass;
  if (keep_spans) pass.spans_us.reserve(frames.size());
  for (const Frame& f : frames) {
    const auto t0 = Clock::now();
    env.ingest(f.begin, f.end);
    const double s = since(t0);
    pass.ingest_s += s;
    if (keep_spans) pass.spans_us.push_back(s * 1e6);
  }
  const auto t1 = Clock::now();
  env.finish();
  pass.finish_s = since(t1);
  const auto t2 = Clock::now();
  std::ostringstream os;
  env.report().write_json(os);
  pass.report_s = since(t2);
  pass.digest = digest(os.str());
  return pass;
}

std::string pass_json(const Pass& p) {
  Json j;
  j.num("ingest_s", p.ingest_s)
      .num("finish_s", p.finish_s)
      .num("report_s", p.report_s)
      .str("digest", p.digest);
  return j.text();
}

// Times the setup-layer entry points, each property alone over the recorded
// stream, and the trace-log container; adds them to `layers`.
void time_layers(const Options& o, const models::RunConfig& config,
                 const tracelog::TraceReader& reader,
                 const std::vector<Frame>& frames, CpuRotation& rot,
                 Json& layers) {
  const models::PropertySuite suite = suite_of(o);
  const Selection sel = select(o, suite);

  layers.num("psl.suite_s", median_time(21, [&] { (void)suite_of(o); }));

  // Stimulus plus the DES reference results, as every live DES call builds
  // them; a replay generates no stimulus.
  double stimulus_s = 0.0;
  if (!o.replay && o.design == models::Design::kDes56) {
    stimulus_s = median_time(5, [&] {
      const std::vector<models::DesOp> ops = models::make_des_ops(o.size, o.seed);
      std::vector<uint64_t> expected;
      expected.reserve(ops.size());
      for (const models::DesOp& op : ops) {
        expected.push_back(op.decrypt ? models::des_decrypt(op.indata, op.key)
                                      : models::des_encrypt(op.indata, op.key));
      }
    });
  }
  layers.num("models.stimulus_s", stimulus_s);

  double abstract_s = 0.0;
  if (sel.abstracted) {
    const rewrite::AbstractionOptions options = abstraction_options(suite);
    abstract_s = median_time(5, [&] {
      for (const psl::RtlProperty& p : sel.rtl) {
        (void)rewrite::abstract_property(p, options);
      }
    });
  }
  layers.num("rewrite.abstract_s", abstract_s);

  layers.num("checker.compile_s", median_time(5, [&] {
               OwnedEnv env(o, config, suite, sel);
             }));
  layers.count("checker.program_nodes", program_nodes(o, config, suite, sel))
      .count("records", reader.records().size());

  // Each property alone, mean over one pass per rotation CPU (three unpinned).
  const size_t npass = rot.round() > 1 ? rot.round() : 3;
  Json props;
  for (size_t k = 0; k < sel.size(); ++k) {
    double seconds = 0.0;
    for (size_t i = 0; i < npass; ++i) {
      rot.pin(i);
      OwnedEnv env(o, config, suite, sel, k);
      const Pass p = feed(env, frames, false);
      seconds += (p.ingest_s + p.finish_s) / npass;
    }
    props.num(sel.abstracted ? sel.tlm[k].name : sel.rtl[k].name, seconds);
  }
  rot.release();
  layers.raw("checker.prop_s", props.text());

  // Trace-log container costs, on the replay workload only.
  double open_s = 0.0, write_s = 0.0;
  uint64_t bytes = 0;
  if (o.replay) {
    open_s = median_time(3, [&] {
      tracelog::TraceReader r;
      if (r.open(stream_path(o))) std::fprintf(stderr, "abv_e2e: reopen failed\n");
    });
    std::error_code ec;
    bytes = std::filesystem::file_size(stream_path(o), ec);
    const std::string copy = o.workdir + "/rewrite.rtabv";
    write_s = median_time(3, [&] {
      tracelog::TraceWriter writer(copy, reader.meta());
      for (const Frame& f : frames) writer.write_span(f.begin, f.end);
      if (!writer.finish()) std::fprintf(stderr, "abv_e2e: rewrite failed\n");
    });
    std::filesystem::remove(copy, ec);
  }
  layers.num("tracelog.open_s", open_s)
      .num("tracelog.write_s", write_s)
      .count("tracelog.bytes", bytes);
}

// ---- measure ----------------------------------------------------------------

int measure(const Options& o) {
  std::ifstream ref_in(reference_path(o), std::ios::binary);
  if (!ref_in) return usage("no reference report; run prep first");
  const std::string reference{std::istreambuf_iterator<char>(ref_in),
                              std::istreambuf_iterator<char>()};

  models::RunConfig config = make_config(o);
  if (o.replay) config.ingest.replay_path = stream_path(o);
  auto timed = [&config] {
    const auto t0 = Clock::now();
    const models::RunResult r = models::run_simulation(config);
    return rep_json(since(t0), r);
  };
  // Whole rotation rounds of `step` until --seconds have passed (at least
  // three rounds).
  CpuRotation rot(o.jobs == 1);
  auto rounds = [&](const std::function<void()>& step) {
    const auto start = Clock::now();
    for (size_t n = 0; n < 3 || since(start) < o.seconds; ++n) {
      for (size_t i = 0; i < rot.round(); ++i) {
        rot.pin(i);
        step();
      }
    }
    rot.release();
  };

  // The first call in a process runs cold; it is reported on its own.
  const std::string cold = timed();
  Json j;
  j.count("nproc", host_cpus())
      .str("compiler", ABVBENCH_COMPILER)
      .str("build_type", ABVBENCH_BUILD_TYPE)
      .count("jobs", o.jobs)
      .count("shard_jobs", o.shard_jobs)
      .count("clock_period_ns", config.clock_period_ns)
      .count("round", rot.round())
      .str("reference_digest", digest(reference))
      .raw("cold", cold);

  std::vector<std::string> reps;
  if (!o.trace) {
    rounds([&] { reps.push_back(timed()); });
    j.raw("reps", json_list(reps));
  } else {
    tracelog::TraceReader reader;
    if (std::optional<tracelog::TraceError> err = reader.open(stream_path(o))) {
      std::fprintf(stderr, "abv_e2e: %s\n", err->to_string().c_str());
      return 1;
    }
    const std::vector<Frame> frames = frames_of(reader);
    const models::PropertySuite suite = suite_of(o);
    const Selection sel = select(o, suite);
    models::RunConfig twin = make_config(o);
    twin.checkers = 0;

    // Traced calls: replay goes through run_simulation(config, source) with
    // RecordSource::next timed; live calls have no public seam inside, so
    // their traced calls are plain calls.
    std::vector<double> next_s;
    auto traced = [&]() -> std::string {
      if (!o.replay) return timed();
      const auto t0 = Clock::now();
      tracelog::TraceReader log;
      if (std::optional<tracelog::TraceError> err = log.open(stream_path(o))) {
        models::RunResult failed;
        failed.ingest_error = err->to_string();
        return rep_json(since(t0), failed);
      }
      tracelog::TraceReplaySource source(std::move(log));
      TimedSource timed_source(source);
      models::RunConfig direct = config;
      direct.ingest.replay_path.clear();
      const models::RunResult r = models::run_simulation(direct, timed_source);
      const double total = since(t0);
      next_s.push_back(timed_source.seconds());
      return rep_json(total, r);
    };

    // Every step of a round runs on the same CPU at nearly the same time, so
    // the layer times below share the host conditions of the untraced calls
    // they are compared with: the untraced call, the traced call, the
    // kernel-only twin (Table I "w/out c.", live only) and one pass of a
    // benchmark-owned env over the recorded stream. The twin call on
    // --shard-jobs evaluation shards comes last, unpinned: its shard threads
    // inherit the caller's CPU set.
    models::RunConfig sharded = config;
    sharded.engine.jobs = o.shard_jobs;
    std::vector<std::string> traced_reps, twin_reps, passes, shard_reps;
    std::vector<double> spans_us;
    rounds([&] {
      reps.push_back(timed());
      traced_reps.push_back(traced());
      if (!o.replay) {
        const auto t0 = Clock::now();
        const models::RunResult r = models::run_simulation(twin);
        twin_reps.push_back(rep_json(since(t0), r));
      }
      OwnedEnv env(o, config, suite, sel);
      const Pass p = feed(env, frames, true);
      spans_us.insert(spans_us.end(), p.spans_us.begin(), p.spans_us.end());
      passes.push_back(pass_json(p));
      if (o.shard_jobs > 0) {
        rot.release();
        const auto t0 = Clock::now();
        const models::RunResult r = models::run_simulation(sharded);
        shard_reps.push_back(rep_json(since(t0), r));
      }
    });

    Json layers;
    layers.raw("twin_reps", json_list(twin_reps))
        .raw("passes", json_list(passes))
        .raw("spans_us", json_numbers(spans_us))
        .num("tracelog.next_s", median(next_s));
    time_layers(o, config, reader, frames, rot, layers);
    j.raw("reps", json_list(reps))
        .raw("traced_reps", json_list(traced_reps))
        .raw("shard_reps", json_list(shard_reps))
        .raw("layers", layers.text());
  }

  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);
  j.count("peak_rss_kb", static_cast<uint64_t>(usage_self.ru_maxrss));
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_options(argc, argv, o)) return usage("bad arguments");
  return o.command == "prep" ? prep(o) : measure(o);
}
