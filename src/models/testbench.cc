#include "models/testbench.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "abv/rtl_env.h"
#include "abv/tlm_env.h"
#include "analysis/coverage_check.h"
#include "analysis/driver.h"
#include "models/colorconv/colorconv_rtl.h"
#include "models/colorconv/colorconv_tlm_at.h"
#include "models/colorconv/colorconv_tlm_ca.h"
#include "models/des56/des56_rtl.h"
#include "models/des56/des56_tlm_at.h"
#include "models/des56/des56_tlm_ca.h"
#include "models/properties.h"
#include "models/stimulus.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "support/metrics.h"
#include "support/trace_sink.h"
#include "support/tracelog.h"
#include "tlm/record_source.h"
#include "tlm/recorder.h"
#include "tlm/socket.h"

namespace repro::models {
namespace {

using Clock = std::chrono::steady_clock;

constexpr sim::Time kForever = ~sim::Time{0} / 2;

// ---- Per-cell benches -------------------------------------------------------
//
// A bench is one (design, level) cell of Table I without the verification:
// it builds the design under verification on its own kernel, schedules the
// seeded stimulus and self-checks every result against the reference model.
// The runner attaches the checkers through the bench's hooks: an RTL bench's
// clock and signal bag, a TLM bench's transaction recorder.

class Bench {
 public:
  virtual ~Bench() = default;
  sim::Kernel& kernel() { return kernel_; }

  // Self-check tally, final once the kernel has stopped. An operation is a
  // DES56 encryption/decryption or a ColorConv pixel.
  struct Tally {
    size_t completed = 0;
    size_t mismatches = 0;
    size_t expected = 0;  // operations the stimulus issues
  };
  virtual Tally tally() const = 0;

  // Transactions the design completed, silent ones included; clock edges
  // are not transactions, so 0 at RTL.
  virtual uint64_t transactions() const { return 0; }

 protected:
  Bench() = default;
  sim::Kernel kernel_;
};

// Clock-driven bench: the DUV's clock, and its observable signals plus the
// testbench statics (level_observables(design, Level::kRtl)).
class RtlBench : public Bench {
 public:
  sim::Clock& clock() { return clock_; }
  abv::SignalBag& signals() { return signals_; }

 protected:
  explicit RtlBench(sim::Time period) : clock_(kernel_, "clk", period, 0) {
    signals_.add("monitor_en", monitor_en_);
  }
  sim::Clock clock_;
  abv::SignalBag signals_;
  sim::Signal<bool> monitor_en_{kernel_, "monitor_en", true};
};

// Transaction-level bench: every initiator socket and AT target reports its
// completed transactions to recorder().
class TlmBench : public Bench {
 public:
  tlm::TransactionRecorder& recorder() { return recorder_; }
  uint64_t transactions() const override { return recorder_.transactions(); }

 protected:
  TlmBench() = default;
  tlm::TransactionRecorder recorder_{kernel_};
};

size_t pixel_count(const std::vector<CcBurst>& bursts) {
  size_t n = 0;
  for (const CcBurst& b : bursts) n += b.pixels.size();
  return n;
}

// ---- DES56 benches ----------------------------------------------------------

class Des56RtlBench final : public RtlBench {
 public:
  explicit Des56RtlBench(const RunConfig& config)
      : RtlBench(config.clock_period_ns),
        ops_(make_des_ops(config.workload, config.seed)) {
    clock_.on_negedge([this] {
      if (driver_.done()) {
        kernel_.stop();
        return;
      }
      const Des56Inputs in = driver_.tick(duv_.rdy.read(), duv_.out.read());
      duv_.ds.write(in.ds);
      if (in.ds) {
        duv_.indata.write(in.indata);
        duv_.key.write(in.key);
        duv_.decrypt.write(in.decrypt);
      }
    });
    duv_.register_signals(signals_);
  }

  Tally tally() const override {
    return {driver_.ops_completed(), driver_.mismatches(), ops_.size()};
  }

 private:
  Des56Rtl duv_{kernel_, clock_};
  const std::vector<DesOp> ops_;
  Des56DriverModel driver_{ops_};
};

// Per-cycle transactions: the inputs of edge k+1 derive from the outputs the
// edge-k transaction returned, exactly like the RTL driver.
class Des56TlmCaBench final : public TlmBench {
 public:
  explicit Des56TlmCaBench(const RunConfig& config)
      : period_(config.clock_period_ns),
        ops_(make_des_ops(config.workload, config.seed)) {
    target_.set_static_observable("monitor_en", 1);
    socket_.bind(target_);
    kernel_.schedule_at(0, [this] { cycle(); });
  }

  Tally tally() const override {
    return {driver_.ops_completed(), driver_.mismatches(), ops_.size()};
  }

 private:
  void cycle() {
    if (driver_.done()) {
      kernel_.stop();
      return;
    }
    payload_.command = tlm::Command::kWrite;
    payload_.data.assign({next_.ds ? uint64_t{1} : 0, next_.indata, next_.key,
                          next_.decrypt ? uint64_t{1} : 0});
    socket_.transport(payload_);
    next_ = driver_.tick(payload_.data[1] != 0, payload_.data[0]);
    kernel_.schedule_at(kernel_.now() + period_, [this] { cycle(); });
  }

  const sim::Time period_;
  Des56TlmCa target_;
  tlm::InitiatorSocket socket_{kernel_, &recorder_, "des56_ca"};
  const std::vector<DesOp> ops_;
  Des56DriverModel driver_{ops_};
  Des56Inputs next_;
  tlm::Payload payload_;
};

// One write and one read per operation, on the RTL driver's schedule: ds of
// op i+1 rises 18 + gap cycles after ds of op i.
class Des56TlmAtBench final : public TlmBench {
 public:
  explicit Des56TlmAtBench(const RunConfig& config)
      : period_(config.clock_period_ns),
        target_(kernel_, &recorder_, config.clock_period_ns),
        ops_(make_des_ops(config.workload, config.seed)) {
    target_.set_static_observable("monitor_en", 1);
    socket_.bind(target_);
    if (!ops_.empty()) {
      kernel_.schedule_at((ops_[0].gap + 1) * period_, [this] { submit(); });
    }
  }

  Tally tally() const override {
    return {completed_, mismatches_, ops_.size()};
  }

 private:
  void submit() {
    const size_t i = completed_;
    tlm::Payload write;
    write.command = tlm::Command::kWrite;
    write.data = {ops_[i].indata, ops_[i].key,
                  ops_[i].decrypt ? uint64_t{1} : 0};
    socket_.transport(write);
    tlm::Payload read;
    read.command = tlm::Command::kRead;
    const sim::Time done = socket_.transport(read);
    if (read.data.empty() || read.data[0] != reference_.expected_result(i)) {
      ++mismatches_;
    }
    ++completed_;
    if (i + 1 < ops_.size()) {
      kernel_.schedule_at(kernel_.now() + (18 + ops_[i + 1].gap) * period_,
                          [this] { submit(); });
    } else {
      kernel_.schedule_at(done + 4 * period_, [this] { kernel_.stop(); });
    }
  }

  const sim::Time period_;
  Des56TlmAt target_;
  tlm::InitiatorSocket socket_{kernel_, &recorder_, "des56_at"};
  const std::vector<DesOp> ops_;
  const Des56DriverModel reference_{ops_};  // expected results only
  size_t completed_ = 0;
  size_t mismatches_ = 0;
};

// ---- ColorConv benches ------------------------------------------------------

class ColorConvRtlBench final : public RtlBench {
 public:
  explicit ColorConvRtlBench(const RunConfig& config)
      : RtlBench(config.clock_period_ns),
        bursts_(make_cc_bursts(config.workload, config.seed)) {
    clock_.on_negedge([this] {
      if (driver_.done()) {
        kernel_.stop();
        return;
      }
      const ColorConvDrive drive =
          driver_.tick(duv_.rdy.read(), static_cast<uint8_t>(duv_.y.read()),
                       static_cast<uint8_t>(duv_.cb.read()),
                       static_cast<uint8_t>(duv_.cr.read()));
      duv_.ds.write(drive.inputs.ds);
      duv_.r.write(drive.inputs.r);
      duv_.g.write(drive.inputs.g);
      duv_.b.write(drive.inputs.b);
      sof_.write(drive.sof);
    });
    duv_.register_signals(signals_);
    signals_.add("sof", sof_);
  }

  Tally tally() const override {
    return {driver_.pixels_completed(), driver_.mismatches(),
            pixel_count(bursts_)};
  }

 private:
  ColorConvRtl duv_{kernel_, clock_};
  sim::Signal<bool> sof_{kernel_, "sof", false};
  const std::vector<CcBurst> bursts_;
  ColorConvDriverModel driver_{bursts_};
};

class ColorConvTlmCaBench final : public TlmBench {
 public:
  explicit ColorConvTlmCaBench(const RunConfig& config)
      : period_(config.clock_period_ns),
        bursts_(make_cc_bursts(config.workload, config.seed)) {
    target_.set_static_observable("monitor_en", 1);
    socket_.bind(target_);
    kernel_.schedule_at(0, [this] { cycle(); });
  }

  Tally tally() const override {
    return {driver_.pixels_completed(), driver_.mismatches(),
            pixel_count(bursts_)};
  }

 private:
  void cycle() {
    if (driver_.done()) {
      kernel_.stop();
      return;
    }
    payload_.command = tlm::Command::kWrite;
    payload_.data.assign(
        {next_.inputs.ds ? uint64_t{1} : 0, uint64_t{next_.inputs.r},
         uint64_t{next_.inputs.g}, uint64_t{next_.inputs.b},
         next_.sof ? uint64_t{1} : 0});
    socket_.transport(payload_);
    next_ = driver_.tick(payload_.data[0] != 0,
                         static_cast<uint8_t>(payload_.data[1]),
                         static_cast<uint8_t>(payload_.data[2]),
                         static_cast<uint8_t>(payload_.data[3]));
    kernel_.schedule_at(kernel_.now() + period_, [this] { cycle(); });
  }

  const sim::Time period_;
  ColorConvTlmCa target_;
  tlm::InitiatorSocket socket_{kernel_, &recorder_, "colorconv_ca"};
  const std::vector<CcBurst> bursts_;
  ColorConvDriverModel driver_{bursts_};
  ColorConvDrive next_;
  tlm::Payload payload_;
};

// Temporally-decoupled initiator (TLM-2.0 LT style): a whole burst is issued
// from a single kernel event, with local time offsets carried in the
// transport delay. Record delivery times are those of a per-pixel schedule,
// so the verification environment sees the same event stream.
class ColorConvTlmAtBench final : public TlmBench {
 public:
  explicit ColorConvTlmAtBench(const RunConfig& config)
      : period_(config.clock_period_ns),
        target_(kernel_, &recorder_, config.clock_period_ns),
        bursts_(make_cc_bursts(config.workload, config.seed)) {
    target_.set_static_observable("monitor_en", 1);
    socket_.bind(target_);
    if (!bursts_.empty()) {
      kernel_.schedule_at((bursts_[0].gap + 1) * period_, [this] { burst(); });
    }
  }

  Tally tally() const override {
    return {completed_, mismatches_, pixel_count(bursts_)};
  }

 private:
  void burst() {
    const sim::Time c = period_;
    const CcBurst& burst = bursts_[burst_index_];
    const sim::Time t0 = kernel_.now();
    const size_t n = burst.pixels.size();
    for (size_t i = 0; i < n; ++i) {
      const Pixel& p = burst.pixels[i];
      write_.command = tlm::Command::kWrite;
      write_.data.assign({uint64_t{p.r}, uint64_t{p.g}, uint64_t{p.b},
                          i == 0 ? uint64_t{1} : uint64_t{0}});
      sim::Time write_delay = i * c;
      socket_.transport(write_, write_delay);
      read_.command = tlm::Command::kRead;
      read_.data.clear();
      // Mid-burst, pixel i's result instant (i*c + 8c) coincides with the
      // write of pixel i+8, whose record carries the identical full
      // snapshot; the read phase is then silent to avoid a duplicated
      // evaluation point.
      read_.record = i + ColorConvTlmAt::kLatencyCycles >= n;
      sim::Time read_delay = i * c;
      socket_.transport(read_, read_delay);
      const Ycbcr expect = colorconv_ref(p.r, p.g, p.b);
      if (read_.data.size() != 3 || read_.data[0] != expect.y ||
          read_.data[1] != expect.cb || read_.data[2] != expect.cr) {
        ++mismatches_;
      }
      ++completed_;
    }
    // Mark the ds and rdy falling instants (Def. III.1).
    target_.emit_idle(t0 + n * c);
    target_.emit_idle(t0 + (n + ColorConvTlmAt::kLatencyCycles) * c);
    ++burst_index_;
    if (burst_index_ < bursts_.size()) {
      kernel_.schedule_at(t0 + (n + bursts_[burst_index_].gap) * c,
                          [this] { this->burst(); });
    } else {
      kernel_.schedule_at(t0 + (n + 4 + ColorConvTlmAt::kLatencyCycles) * c,
                          [this] { kernel_.stop(); });
    }
  }

  const sim::Time period_;
  ColorConvTlmAt target_;
  tlm::InitiatorSocket socket_{kernel_, &recorder_, "colorconv_at"};
  const std::vector<CcBurst> bursts_;
  size_t burst_index_ = 0;
  size_t completed_ = 0;
  size_t mismatches_ = 0;
  tlm::Payload write_;
  tlm::Payload read_;
};

// The bench of (config.design, config.level) over config.workload operations
// of seed config.seed; it only schedules the stimulus, the runner runs it.
std::unique_ptr<RtlBench> make_rtl_bench(const RunConfig& config) {
  if (config.design == Design::kDes56) {
    return std::make_unique<Des56RtlBench>(config);
  }
  return std::make_unique<ColorConvRtlBench>(config);
}

std::unique_ptr<TlmBench> make_tlm_bench(const RunConfig& config) {
  const bool at = config.level == Level::kTlmAt;
  if (config.design == Design::kDes56) {
    if (at) return std::make_unique<Des56TlmAtBench>(config);
    return std::make_unique<Des56TlmCaBench>(config);
  }
  if (at) return std::make_unique<ColorConvTlmAtBench>(config);
  return std::make_unique<ColorConvTlmCaBench>(config);
}

// ---- The runner -------------------------------------------------------------

// Selects the configured properties: explicit indices when given, otherwise
// the first `checkers` entries of the suite.
std::vector<psl::RtlProperty> pick(const PropertySuite& suite,
                                   const RunConfig& config) {
  std::vector<psl::RtlProperty> out;
  if (!config.property_indices.empty()) {
    for (size_t i : config.property_indices) {
      if (i < suite.properties.size()) out.push_back(suite.properties[i]);
    }
  } else {
    const size_t n = std::min(config.checkers, suite.properties.size());
    out.assign(suite.properties.begin(), suite.properties.begin() + n);
  }
  out.insert(out.end(), config.extra_properties.begin(),
             config.extra_properties.end());
  return out;
}

bool abv_enabled(const RunConfig& config) {
  return config.checkers > 0 || !config.property_indices.empty() ||
         !config.extra_properties.empty();
}

void append(std::vector<analysis::Diagnostic>& to,
            std::vector<analysis::Diagnostic> from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

checker::CheckerOptions checker_options(const RunConfig& config) {
  checker::CheckerOptions options;
  options.failure_log_cap = config.observability.failure_log_cap;
  return options;
}

// The formulas a run checks, in the form its environment registers them: the
// one registration rule, shared by the prune planner and the runner. RTL,
// TLM-CA and the at_replay_unabstracted ablation check the RTL originals;
// TLM-AT checks their Methodology III.1 abstractions, minus deleted ones.
struct CheckedProperties {
  std::vector<psl::RtlProperty> rtl;
  std::vector<psl::TlmProperty> tlm;
  size_t deleted = 0;
};

CheckedProperties checked_properties(const RunConfig& config,
                                     const PropertySuite& suite) {
  CheckedProperties out;
  if (config.level != Level::kTlmAt ||
      config.abstraction.at_replay_unabstracted) {
    out.rtl = pick(suite, config);
    return out;
  }
  rewrite::AbstractionOptions options;
  options.clock_period_ns = suite.clock_period_ns;
  options.abstracted_signals = suite.abstracted_signals;
  options.push_mode = config.abstraction.push_mode;
  for (const psl::RtlProperty& p : pick(suite, config)) {
    rewrite::AbstractionOutcome outcome = rewrite::abstract_property(p, options);
    if (outcome.deleted()) {
      ++out.deleted;
    } else {
      out.tlm.push_back(*outcome.property);
    }
  }
  return out;
}

// Prune plan prepared once per run over the checked formulas. `active` is
// false when pruning is off or ABV is disabled; `audit` selects the
// AnalysisMode::kError cross-check (pruned properties still run and every
// derived verdict is compared against the real one, PRN003).
struct PrunePrep {
  analysis::PrunePlan plan;
  bool active = false;
  bool audit = false;

  const analysis::PrunePlan* active_plan() const { return active ? &plan : nullptr; }
};

PrunePrep prepare_prune(const RunConfig& config,
                        const CheckedProperties& checked) {
  PrunePrep prep;
  prep.plan.mode = config.analysis.prune;
  if (config.analysis.prune == analysis::PruneMode::kOff ||
      !abv_enabled(config)) {
    return prep;
  }
  std::vector<analysis::PruneInput> inputs;
  for (const psl::RtlProperty& p : checked.rtl) {
    inputs.push_back(analysis::make_prune_input(p));
  }
  for (const psl::TlmProperty& q : checked.tlm) {
    inputs.push_back(analysis::make_prune_input(q));
  }
  prep.plan = analysis::build_prune_plan(inputs, config.analysis.prune);
  prep.active = true;
  prep.audit = config.analysis == AnalysisMode::kError;
  return prep;
}

// Everything a run derives from its configuration before any model is
// built; the shared prologue of both run_simulation overloads.
struct RunPrep {
  PropertySuite suite;
  CheckedProperties checked;
  PrunePrep prune;
};

// Identity of the record stream a configuration produces or replays.
tlm::RecordStreamMeta stream_meta(const RunConfig& config) {
  tlm::RecordStreamMeta meta;
  meta.design = to_string(config.design);
  meta.level = to_string(config.level);
  meta.clock_period_ns = config.clock_period_ns;
  return meta;
}

// Output files of one run. The record writer adopts its observable
// dictionary from the first record, preserving the model's key-table order
// (witness byte-identity depends on it). The trace sink writes its file on
// destruction and the engine writes the metrics stream until finish(), so
// both must outlive the environment.
struct RunOutputs {
  tlm::RecordStreamMeta meta;
  std::unique_ptr<support::tracelog::TraceWriter> writer;
  std::unique_ptr<support::TraceSink> trace;
  std::unique_ptr<std::ofstream> metrics;
};

// Opens the outputs and writes the prune plan (final by then) before
// anything simulates. Returns the error for an unwritable metrics or plan
// path, or "". Trace and metrics exist only at TLM; the trace sink never
// fails the run, and record writer errors surface when the run ends.
std::string open_outputs(const RunConfig& config, const RunPrep& prep,
                         RunOutputs& out) {
  const ObservabilityConfig& obs = config.observability;
  out.meta = stream_meta(config);
  if (!config.ingest.record_path.empty()) {
    out.writer = std::make_unique<support::tracelog::TraceWriter>(
        config.ingest.record_path, out.meta);
  }
  if (config.level != Level::kRtl && !obs.trace_path.empty()) {
    out.trace = std::make_unique<support::TraceSink>(obs.trace_path);
  }
  if (config.level != Level::kRtl && !obs.metrics_path.empty()) {
    out.metrics = std::make_unique<std::ofstream>(obs.metrics_path);
    if (!*out.metrics) {
      return "cannot write metrics output '" + obs.metrics_path + "'";
    }
  }
  if (prep.prune.active && !obs.prune_plan_path.empty()) {
    std::ofstream plan_out(obs.prune_plan_path);
    prep.prune.plan.write_json(plan_out);
    if (!plan_out.flush()) {
      return "cannot write prune plan '" + obs.prune_plan_path + "'";
    }
  }
  return "";
}

// Runs a cell to completion and fills in the result. Records come from
// `source` when set (a replayed log or the live TLM adapter); otherwise the
// bench's kernel just runs: Table I's "w/out c." baseline at TLM, clock-
// sampled checking at RTL. `bench` is null for a replay. wall_seconds covers
// the ingest (or kernel run) and env.finish(), not the setup.
void drive(Level level, abv::AbvEnv& env, Bench* bench,
           tlm::RecordSource* source, RunOutputs& out, RunResult& result) {
  const auto t0 = Clock::now();
  uint64_t records = 0;
  sim::Time last_end = 0;
  if (source != nullptr) {
    for (tlm::RecordSpan span = source->next(); !span.empty();
         span = source->next()) {
      env.on_records(span.begin, span.end);
      records += span.size();
      last_end = span.end[-1].end;
    }
  } else {
    bench->kernel().run(kForever);
  }
  env.finish();
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();

  // RTL has neither transactions nor engine metrics. A live TLM run counts
  // every transport, silent ones included; a replay counts its records.
  if (level != Level::kRtl) {
    result.transactions = bench ? bench->transactions() : records;
  }
  result.metrics = env.metrics_snapshot();
  if (bench != nullptr) {
    result.sim_end_ns = bench->kernel().now();
    result.kernel_events = bench->kernel().events_executed();
    result.delta_cycles = bench->kernel().delta_cycles();
    const Bench::Tally tally = bench->tally();
    result.ops_completed = tally.completed;
    result.mismatches = tally.mismatches;
    result.functional_ok =
        tally.mismatches == 0 && tally.completed == tally.expected;
  } else {
    // No DUV executes during replay: functional verification happened when
    // the stream was recorded.
    result.sim_end_ns = last_end;
    result.functional_ok = true;
  }
  // Empty unless the prune plan was applied in audit mode.
  std::vector<analysis::Diagnostic> errors = env.prune_cross_check();
  result.analysis_ok = result.analysis_ok && errors.empty();
  append(result.analysis_diagnostics, std::move(errors));
  result.report = env.report();
  result.properties_ok = env.all_ok();
  // A slot-binding error invalidates the run like any other ingest failure.
  result.ingest_error = env.binding_error();
  result.metrics.gauges["sim.kernel_events"] = result.kernel_events;
  result.metrics.gauges["sim.delta_cycles"] = result.delta_cycles;
  result.metrics.gauges["sim.transactions"] = result.transactions;
  result.metrics.gauges["sim.wall_ns"] =
      static_cast<uint64_t>(result.wall_seconds * 1e9);
  if (out.writer != nullptr && !out.writer->finish()) {
    result.ingest_error = out.writer->error();
  }
}

// Builds the level's environment over a live bench, or over `replay`'s
// recorded stream, registers the checked properties and drives the run. At
// RTL the environment samples the live clock itself and bypasses the
// evaluation engine; every other level checks the transaction stream
// through TlmAbvEnv's engine.
void run_cell(const RunConfig& config, const RunPrep& prep, RunOutputs& out,
              tlm::RecordSource* replay, RunResult& result) {
  result.properties_deleted = prep.checked.deleted;
  const bool consume = abv_enabled(config) || out.writer != nullptr;
  if (config.level == Level::kRtl) {
    const std::unique_ptr<RtlBench> bench =
        replay == nullptr ? make_rtl_bench(config) : nullptr;
    // A replay's samples stand in for the design: idle kernel, no signals.
    sim::Kernel idle;
    abv::SignalBag no_signals;
    abv::RtlAbvEnv env(bench ? bench->kernel() : idle,
                       bench ? bench->signals() : no_signals);
    env.set_checker_options(checker_options(config));
    env.set_prune_plan(prep.prune.active_plan(), prep.prune.audit);
    env.set_record_writer(out.writer.get());
    for (const psl::RtlProperty& p : prep.checked.rtl) env.add_property(p);
    if (bench != nullptr && consume) env.attach(bench->clock());
    drive(config.level, env, bench.get(), replay, out, result);
    return;
  }

  const std::unique_ptr<TlmBench> bench =
      replay == nullptr ? make_tlm_bench(config) : nullptr;
  abv::TlmAbvEnv env(prep.suite.clock_period_ns);
  env.set_engine_config(config.engine);
  env.set_witness_depth(config.observability.witness_depth);
  env.set_checker_options(checker_options(config));
  env.set_trace_sink(out.trace.get());
  env.set_metrics_output(out.metrics.get(),
                         config.observability.metrics_interval);
  env.set_record_writer(out.writer.get());
  env.set_prune_plan(prep.prune.active_plan(), prep.prune.audit);
  for (const psl::RtlProperty& p : prep.checked.rtl) env.add_rtl_property(p);
  for (const psl::TlmProperty& q : prep.checked.tlm) env.add_property(q);
  // Live runs with a consumer pull completed transactions span by span;
  // without one the recorder stays inactive, so targets skip snapshot
  // materialization.
  std::optional<tlm::LiveRecordSource> live;
  if (bench != nullptr && consume) {
    live.emplace(bench->kernel(), bench->recorder(), out.meta, kForever);
  }
  tlm::RecordSource* source = live ? &*live : replay;
  if (source != nullptr) env.bind();
  drive(config.level, env, bench.get(), source, out, result);
}

// Runs the static analysis battery over the configured properties. Returns
// true when the simulation may proceed (always, except kError with errors).
bool run_analysis(const RunConfig& config, const PropertySuite& suite,
                  RunResult& result) {
  analysis::AnalysisOptions options;
  options.abstraction.clock_period_ns = suite.clock_period_ns;
  options.abstraction.abstracted_signals = suite.abstracted_signals;
  options.abstraction.push_mode = config.abstraction.push_mode;
  if (config.level == Level::kTlmAt && !config.abstraction.at_replay_unabstracted) {
    // Normal AT flow: the original formula binds at RTL, the abstracted one
    // against the transaction snapshots of the AT target.
    options.rtl_observables = level_observables(config.design, Level::kRtl);
    options.tlm_observables = level_observables(config.design, Level::kTlmAt);
  } else {
    // RTL, TLM-CA and the unabstracted-replay ablation all evaluate the
    // original RTL formulas directly against this level's observables.
    options.rtl_observables = level_observables(config.design, config.level);
  }

  analysis::Driver driver(options);
  for (const psl::RtlProperty& p : pick(suite, config)) {
    driver.analyze(p);
  }
  result.analysis_ok = driver.ok();
  for (const analysis::PropertyAnalysis& r : driver.results()) {
    append(result.analysis_diagnostics, r.diagnostics);
  }
  return result.analysis_ok || config.analysis != AnalysisMode::kError;
}

// Post-run static-vs-dynamic cross-check: reconciles the analysis layer's
// vacuity predictions with the coverage the run actually observed
// (COV001/COV002 warnings appended after all other diagnostics).
void cross_check_coverage(const RunConfig& config, RunResult& result) {
  if (config.analysis != AnalysisMode::kOff && abv_enabled(config)) {
    std::vector<analysis::DynamicCoverage> observed;
    for (const abv::PropertyReport& p : result.report.properties()) {
      // Derived (pruned) rows carry no dynamic evidence; auditing them for
      // vacuity would only restate the prune decision.
      if (!p.prune.empty()) continue;
      analysis::DynamicCoverage c;
      c.property = p.name;
      c.activations = p.activations;
      c.failures = p.failures;
      c.real_passes = p.real_passes;
      c.vacuous_passes = p.vacuous_passes;
      observed.push_back(std::move(c));
    }
    std::vector<analysis::Diagnostic> cov =
        analysis::cross_check_coverage(result.analysis_diagnostics, observed);
    append(result.analysis_diagnostics, std::move(cov));
  }
}

// Both run_simulation overloads: the shared prologue (suite, static
// analysis, checked properties, prune plan), the outputs, one cell run over
// a live bench or `replay`, and the coverage cross-check. Diagnostics come
// in their documented order: static analysis, the plan's PRN001/002/004
// notes, the run's PRN003 cross-check errors, then COV001/002.
RunResult run(const RunConfig& config, tlm::RecordSource* replay) {
  RunResult result;
  RunPrep prep;
  prep.suite =
      config.design == Design::kDes56 ? des56_suite() : colorconv_suite();
  // Pre-simulation static analysis. Uses its own pass manager, so it leaves
  // the simulated configuration (and its reports) untouched.
  if (config.analysis != AnalysisMode::kOff && abv_enabled(config) &&
      !run_analysis(config, prep.suite, result)) {
    return result;  // kError: diagnostics block the run
  }
  prep.checked = checked_properties(config, prep.suite);
  prep.prune = prepare_prune(config, prep.checked);
  result.prune_plan = prep.prune.plan;
  if (prep.prune.active) {
    append(result.analysis_diagnostics, prep.prune.plan.diagnostics());
  }

  RunOutputs out;
  result.ingest_error = open_outputs(config, prep, out);
  if (!result.ingest_error.empty()) return result;
  run_cell(config, prep, out, replay, result);
  cross_check_coverage(config, result);
  return result;
}

}  // namespace

std::vector<std::string> level_observables(Design d, Level l) {
  switch (d) {
    case Design::kDes56:
      switch (l) {
        case Level::kRtl:
        case Level::kTlmCa:
          return {"ds",  "indata",        "key",
                  "decrypt", "out",       "rdy",
                  "rdy_next_cycle", "rdy_next_next_cycle", "monitor_en"};
        case Level::kTlmAt:
          return {"ds", "indata", "key", "decrypt", "out", "rdy",
                  "monitor_en"};
      }
      break;
    case Design::kColorConv:
      switch (l) {
        case Level::kRtl:
          return {"ds", "r",  "g",  "b",   "y",
                  "cb", "cr", "rdy", "rdy_next_cycle", "sof", "monitor_en"};
        case Level::kTlmCa:
          return {"ds", "r",  "g",  "b",   "sof", "y",
                  "cb", "cr", "rdy", "rdy_next_cycle", "monitor_en"};
        case Level::kTlmAt:
          return {"ds", "r",  "g",  "b",   "sof", "y",
                  "cb", "cr", "rdy", "monitor_en"};
      }
      break;
  }
  return {};
}

const char* to_string(Design d) {
  switch (d) {
    case Design::kDes56: return "DES56";
    case Design::kColorConv: return "ColorConv";
  }
  return "?";
}

const char* to_string(Level l) {
  switch (l) {
    case Level::kRtl: return "RTL";
    case Level::kTlmCa: return "TLM-CA";
    case Level::kTlmAt: return "TLM-AT";
  }
  return "?";
}

bool parse_design(const std::string& name, Design& out) {
  for (Design d : {Design::kDes56, Design::kColorConv}) {
    if (name == to_string(d)) {
      out = d;
      return true;
    }
  }
  return false;
}

bool parse_level(const std::string& name, Level& out) {
  for (Level l : {Level::kRtl, Level::kTlmCa, Level::kTlmAt}) {
    if (name == to_string(l)) {
      out = l;
      return true;
    }
  }
  return false;
}

RunResult run_simulation(const RunConfig& config) {
  if (config.ingest.replay_path.empty()) return run(config, nullptr);
  // Offline replay, streamed one frame at a time: the header is read and
  // its identity checked against this configuration before any checker is
  // built; each frame is checked as it is decoded.
  support::tracelog::TraceStreamSource source;
  std::optional<support::tracelog::TraceError> err =
      source.open(config.ingest.replay_path);
  if (!err) {
    tlm::RecordStreamMeta expected = stream_meta(config);
    expected.observables = level_observables(config.design, config.level);
    err = support::tracelog::validate_meta(source.meta(), expected);
  }
  if (!err) {
    RunResult result = run(config, &source);
    // A frame rejected mid-stream voids what the checkers saw before it:
    // the run reports exactly what an up-front rejection reports.
    err = source.error();
    if (!err) return result;
  }
  RunResult rejected;
  rejected.ingest_error = err->to_string();
  return rejected;
}

RunResult run_simulation(const RunConfig& config, tlm::RecordSource& source) {
  return run(config, &source);
}

}  // namespace repro::models
