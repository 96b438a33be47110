#include "models/testbench.h"

#include <cassert>
#include <chrono>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
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

checker::CheckerOptions checker_options(const RunConfig& config) {
  checker::CheckerOptions options;
  options.compiled = config.compiled_checkers;
  options.vectorized = config.engine.vectorized;
  options.failure_log_cap = config.observability.failure_log_cap;
  return options;
}

// Observability outputs opened for one TLM run. Both streams (may be null)
// must stay alive until the end of the run: the sink's destructor writes the
// trace file, and the engine holds a raw pointer to the metrics stream until
// finish() emits the final snapshot line.
struct TlmOutputs {
  std::unique_ptr<support::TraceSink> trace;
  std::unique_ptr<std::ofstream> metrics;
};

// Applies the engine and observability knob groups shared by every TLM
// runner.
TlmOutputs configure_tlm_env(abv::TlmAbvEnv& env, const RunConfig& config) {
  env.set_engine_config(config.engine);
  env.set_witness_depth(config.observability.witness_depth);
  env.set_checker_options(checker_options(config));
  TlmOutputs out;
  if (!config.observability.trace_path.empty()) {
    out.trace =
        std::make_unique<support::TraceSink>(config.observability.trace_path);
    env.set_trace_sink(out.trace.get());
  }
  if (!config.observability.metrics_path.empty()) {
    out.metrics =
        std::make_unique<std::ofstream>(config.observability.metrics_path);
    env.set_metrics_output(out.metrics.get(),
                           config.observability.metrics_interval);
  }
  return out;
}

// Copies the environment's merged metrics into the result and adds the sim
// kernel gauges on top (also the only metrics present at RTL / without ABV).
void record_sim_metrics(RunResult& result, support::MetricsSnapshot base) {
  result.metrics = std::move(base);
  result.metrics.gauges["sim.kernel_events"] = result.kernel_events;
  result.metrics.gauges["sim.delta_cycles"] = result.delta_cycles;
  result.metrics.gauges["sim.transactions"] = result.transactions;
  result.metrics.gauges["sim.wall_ns"] =
      static_cast<uint64_t>(result.wall_seconds * 1e9);
}

// Prune plan prepared once per run and handed (by reference) to the level
// runner. `active` is false when pruning is off or ABV is disabled; `audit`
// selects the AnalysisMode::kError cross-check (pruned properties still run
// and every derived verdict is compared against the real one, PRN003).
struct PrunePrep {
  analysis::PrunePlan plan;
  bool active = false;
  bool audit = false;
};

// Post-run harvest of a finished environment: the PRN003 audit (when the
// plan runs in audit mode), the report and verdict, and any slot-binding
// error, which invalidates the run like any other ingest failure.
template <typename Env>
void collect_env_results(const Env& env, const PrunePrep& prune,
                         RunResult& result) {
  if (prune.active && prune.audit) {
    std::vector<analysis::Diagnostic> diags = env.prune_cross_check();
    result.analysis_diagnostics.insert(result.analysis_diagnostics.end(),
                                       std::make_move_iterator(diags.begin()),
                                       std::make_move_iterator(diags.end()));
  }
  result.report = env.report();
  result.properties_ok = env.all_ok();
  result.ingest_error = env.binding_error();
}

// Abstracts the selected properties for TLM-AT; returns the non-deleted ones
// and counts deletions.
std::vector<psl::TlmProperty> abstract_for_at(const RunConfig& config,
                                              const PropertySuite& suite,
                                              size_t& deleted) {
  rewrite::AbstractionOptions options;
  options.clock_period_ns = suite.clock_period_ns;
  options.abstracted_signals = suite.abstracted_signals;
  options.push_mode = config.abstraction.push_mode;
  std::vector<psl::TlmProperty> out;
  deleted = 0;
  for (const psl::RtlProperty& p : pick(suite, config)) {
    rewrite::AbstractionOutcome outcome = rewrite::abstract_property(p, options);
    if (outcome.deleted()) {
      ++deleted;
    } else {
      out.push_back(*outcome.property);
    }
  }
  return out;
}

// Builds the prune plan over the formulas this run will actually check: the
// RTL formulas for RTL / TLM-CA / the unabstracted-replay ablation
// (clock-edge context keys), the abstracted TLM formulas for the normal
// TLM-AT flow (basic transaction context).
PrunePrep prepare_prune(const RunConfig& config, const PropertySuite& suite) {
  PrunePrep prep;
  prep.plan.mode = config.analysis.prune;
  if (config.analysis.prune == analysis::PruneMode::kOff ||
      !abv_enabled(config)) {
    return prep;
  }
  std::vector<analysis::PruneInput> inputs;
  if (config.level == Level::kTlmAt &&
      !config.abstraction.at_replay_unabstracted) {
    size_t deleted = 0;
    for (const psl::TlmProperty& q : abstract_for_at(config, suite, deleted)) {
      inputs.push_back(analysis::make_prune_input(q));
    }
  } else {
    for (const psl::RtlProperty& p : pick(suite, config)) {
      inputs.push_back(analysis::make_prune_input(p));
    }
  }
  analysis::SymbolicPruneOptions symbolic;
  symbolic.enabled = config.analysis.symbolic_budget > 0;
  symbolic.clock_period_ns = config.clock_period_ns;
  symbolic.step_budget = config.analysis.symbolic_budget;
  prep.plan = analysis::build_prune_plan(inputs, config.analysis.prune,
                                         /*atom_cap=*/20, symbolic);
  prep.active = true;
  prep.audit = config.analysis == AnalysisMode::kError;
  return prep;
}

// Trace-log recording prepared once per runner (IngestConfig.record_path).
// The meta block names this run's stream identity; the observable dictionary
// is adopted from the first record so the producing model's key-table order
// is preserved verbatim (witness byte-identity depends on it).
struct IngestPrep {
  tlm::RecordStreamMeta meta;
  std::unique_ptr<support::tracelog::TraceWriter> writer;
};

IngestPrep prepare_ingest(const RunConfig& config) {
  IngestPrep prep;
  prep.meta.design = to_string(config.design);
  prep.meta.level = to_string(config.level);
  prep.meta.clock_period_ns = config.clock_period_ns;
  if (!config.ingest.record_path.empty()) {
    prep.writer = std::make_unique<support::tracelog::TraceWriter>(
        config.ingest.record_path, prep.meta);
  }
  return prep;
}

void finish_ingest(IngestPrep& ingest, RunResult& result) {
  if (ingest.writer != nullptr && !ingest.writer->finish()) {
    result.ingest_error = ingest.writer->error();
  }
}

// Runs a live TLM simulation to completion. With a consumer (checkers or a
// record writer) the kernel is stepped through a LiveRecordSource and the
// completed transactions are drained span by span into the environment —
// the pull-based ingest path; the record stream (and therefore every
// verdict) is identical to the historical push-based subscription. Without
// a consumer the kernel just runs (the recorder stays inactive, so targets
// skip snapshot materialization).
void run_live_tlm(sim::Kernel& kernel, tlm::TransactionRecorder& recorder,
                  abv::TlmAbvEnv& env, const IngestPrep& ingest, bool pull) {
  if (pull) {
    tlm::LiveRecordSource source(kernel, recorder, ingest.meta, kForever);
    for (tlm::RecordSpan span = source.next(); !span.empty();
         span = source.next()) {
      env.on_records(span.begin, span.end);
    }
  } else {
    kernel.run(kForever);
  }
  env.finish();
}

// ---- DES56 -----------------------------------------------------------------

RunResult run_des56_rtl(const RunConfig& config, const PropertySuite& suite,
                        const PrunePrep& prune) {
  sim::Kernel kernel;
  sim::Clock clock(kernel, "clk", config.clock_period_ns, 0);
  Des56Rtl duv(kernel, clock);
  sim::Signal<bool> monitor_en(kernel, "monitor_en", true);

  const std::vector<DesOp> ops = make_des_ops(config.workload, config.seed);
  Des56DriverModel driver(ops);
  clock.on_negedge([&] {
    if (driver.done()) {
      kernel.stop();
      return;
    }
    const Des56Inputs in = driver.tick(duv.rdy.read(), duv.out.read());
    duv.ds.write(in.ds);
    if (in.ds) {
      duv.indata.write(in.indata);
      duv.key.write(in.key);
      duv.decrypt.write(in.decrypt);
    }
  });

  abv::SignalBag bag;
  duv.register_signals(bag);
  bag.add("monitor_en", monitor_en);
  IngestPrep ingest = prepare_ingest(config);
  abv::RtlAbvEnv env(kernel, bag);
  env.set_checker_options(checker_options(config));
  if (ingest.writer != nullptr) env.set_record_writer(ingest.writer.get());
  if (prune.active) env.set_prune_plan(&prune.plan, prune.audit);
  if (abv_enabled(config)) {
    for (const psl::RtlProperty& p : pick(suite, config)) {
      env.add_property(p);
    }
  }
  if (abv_enabled(config) || ingest.writer != nullptr) env.attach(clock);

  RunResult result;
  const auto t0 = Clock::now();
  kernel.run(kForever);
  env.finish();
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.sim_end_ns = kernel.now();
  result.kernel_events = kernel.events_executed();
  result.delta_cycles = kernel.delta_cycles();
  result.ops_completed = driver.ops_completed();
  result.mismatches = driver.mismatches();
  result.functional_ok =
      driver.mismatches() == 0 && driver.ops_completed() == ops.size();
  collect_env_results(env, prune, result);
  record_sim_metrics(result, {});
  finish_ingest(ingest, result);
  return result;
}

RunResult run_des56_tlm_ca(const RunConfig& config, const PropertySuite& suite,
                        const PrunePrep& prune) {
  sim::Kernel kernel;
  tlm::TransactionRecorder recorder(kernel);
  Des56TlmCa target;
  target.set_static_observable("monitor_en", 1);
  tlm::InitiatorSocket socket(kernel, &recorder, "des56_ca");
  socket.bind(target);

  const std::vector<DesOp> ops = make_des_ops(config.workload, config.seed);
  Des56DriverModel driver(ops);

  IngestPrep ingest = prepare_ingest(config);
  abv::TlmAbvEnv env(suite.clock_period_ns);
  const TlmOutputs outputs = configure_tlm_env(env, config);
  if (ingest.writer != nullptr) env.set_record_writer(ingest.writer.get());
  if (prune.active) env.set_prune_plan(&prune.plan, prune.audit);
  if (abv_enabled(config)) {
    // TLM-CA rows of Table I: the original RTL properties, unabstracted,
    // replayed on the per-cycle transaction stream.
    for (const psl::RtlProperty& p : pick(suite, config)) {
      env.add_rtl_property(p);
    }
  }
  const bool pull = abv_enabled(config) || ingest.writer != nullptr;
  if (pull) env.bind();

  // Per-cycle transaction loop. Inputs at edge k+1 derive from the outputs
  // returned by the edge-k transaction, exactly like the RTL driver.
  auto next_inputs = std::make_shared<Des56Inputs>();
  auto payload = std::make_shared<tlm::Payload>();
  std::function<void()> cycle = [&kernel, &socket, &driver, next_inputs, payload,
                                 &config, &cycle] {
    if (driver.done()) {
      kernel.stop();
      return;
    }
    payload->command = tlm::Command::kWrite;
    payload->data.assign({next_inputs->ds ? uint64_t{1} : 0, next_inputs->indata,
                          next_inputs->key,
                          next_inputs->decrypt ? uint64_t{1} : 0});
    socket.transport(*payload);
    const bool rdy = payload->data[1] != 0;
    const uint64_t out = payload->data[0];
    *next_inputs = driver.tick(rdy, out);
    kernel.schedule_at(kernel.now() + config.clock_period_ns, cycle);
  };
  kernel.schedule_at(0, cycle);

  RunResult result;
  const auto t0 = Clock::now();
  run_live_tlm(kernel, recorder, env, ingest, pull);
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.sim_end_ns = kernel.now();
  result.kernel_events = kernel.events_executed();
  result.delta_cycles = kernel.delta_cycles();
  result.transactions = recorder.transactions();
  result.ops_completed = driver.ops_completed();
  result.mismatches = driver.mismatches();
  result.functional_ok =
      driver.mismatches() == 0 && driver.ops_completed() == ops.size();
  collect_env_results(env, prune, result);
  record_sim_metrics(result, env.metrics_snapshot());
  finish_ingest(ingest, result);
  return result;
}

RunResult run_des56_tlm_at(const RunConfig& config, const PropertySuite& suite,
                        const PrunePrep& prune) {
  sim::Kernel kernel;
  tlm::TransactionRecorder recorder(kernel);
  Des56TlmAt target(kernel, &recorder, config.clock_period_ns);
  target.set_static_observable("monitor_en", 1);
  tlm::InitiatorSocket socket(kernel, &recorder, "des56_at");
  socket.bind(target);

  const std::vector<DesOp> ops = make_des_ops(config.workload, config.seed);
  std::vector<uint64_t> expected;
  expected.reserve(ops.size());
  for (const DesOp& op : ops) {
    expected.push_back(op.decrypt ? des_decrypt(op.indata, op.key)
                                  : des_encrypt(op.indata, op.key));
  }

  RunResult result;
  size_t deleted = 0;
  IngestPrep ingest = prepare_ingest(config);
  abv::TlmAbvEnv env(suite.clock_period_ns);
  const TlmOutputs outputs = configure_tlm_env(env, config);
  if (ingest.writer != nullptr) env.set_record_writer(ingest.writer.get());
  if (prune.active) env.set_prune_plan(&prune.plan, prune.audit);
  if (abv_enabled(config)) {
    if (config.abstraction.at_replay_unabstracted) {
      for (const psl::RtlProperty& p : pick(suite, config)) {
        env.add_rtl_property(p);
      }
    } else {
      for (const psl::TlmProperty& q : abstract_for_at(config, suite, deleted)) {
        env.add_property(q);
      }
    }
  }
  const bool pull = abv_enabled(config) || ingest.writer != nullptr;
  if (pull) env.bind();
  result.properties_deleted = deleted;

  const sim::Time c = config.clock_period_ns;
  auto op_index = std::make_shared<size_t>(0);
  auto completed = std::make_shared<size_t>(0);
  auto mismatches = std::make_shared<size_t>(0);
  std::function<void()> submit = [&, op_index, completed, mismatches] {
    const size_t i = (*op_index)++;
    tlm::Payload write;
    write.command = tlm::Command::kWrite;
    write.data = {ops[i].indata, ops[i].key, ops[i].decrypt ? uint64_t{1} : 0};
    socket.transport(write);
    tlm::Payload read;
    read.command = tlm::Command::kRead;
    const sim::Time done = socket.transport(read);
    if (read.data.empty() || read.data[0] != expected[i]) ++(*mismatches);
    ++(*completed);
    if (i + 1 < ops.size()) {
      // Same schedule as the RTL driver: ds_{i+1} rises 18 + gap cycles
      // after ds_i.
      kernel.schedule_at(kernel.now() + (18 + ops[i + 1].gap) * c, submit);
    } else {
      kernel.schedule_at(done + 4 * c, [&kernel] { kernel.stop(); });
    }
  };
  if (!ops.empty()) {
    kernel.schedule_at((ops[0].gap + 1) * c, submit);
  }

  const auto t0 = Clock::now();
  run_live_tlm(kernel, recorder, env, ingest, pull);
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.sim_end_ns = kernel.now();
  result.kernel_events = kernel.events_executed();
  result.delta_cycles = kernel.delta_cycles();
  result.transactions = recorder.transactions();
  result.ops_completed = *completed;
  result.mismatches = *mismatches;
  result.functional_ok = *mismatches == 0 && *completed == ops.size();
  collect_env_results(env, prune, result);
  record_sim_metrics(result, env.metrics_snapshot());
  finish_ingest(ingest, result);
  return result;
}

// ---- ColorConv --------------------------------------------------------------

RunResult run_colorconv_rtl(const RunConfig& config, const PropertySuite& suite,
                        const PrunePrep& prune) {
  sim::Kernel kernel;
  sim::Clock clock(kernel, "clk", config.clock_period_ns, 0);
  ColorConvRtl duv(kernel, clock);
  sim::Signal<bool> sof(kernel, "sof", false);
  sim::Signal<bool> monitor_en(kernel, "monitor_en", true);

  const std::vector<CcBurst> bursts = make_cc_bursts(config.workload, config.seed);
  size_t total_pixels = 0;
  for (const CcBurst& b : bursts) total_pixels += b.pixels.size();
  ColorConvDriverModel driver(bursts);
  clock.on_negedge([&] {
    if (driver.done()) {
      kernel.stop();
      return;
    }
    const ColorConvDrive drive =
        driver.tick(duv.rdy.read(), static_cast<uint8_t>(duv.y.read()),
                    static_cast<uint8_t>(duv.cb.read()),
                    static_cast<uint8_t>(duv.cr.read()));
    duv.ds.write(drive.inputs.ds);
    duv.r.write(drive.inputs.r);
    duv.g.write(drive.inputs.g);
    duv.b.write(drive.inputs.b);
    sof.write(drive.sof);
  });

  abv::SignalBag bag;
  duv.register_signals(bag);
  bag.add("sof", sof);
  bag.add("monitor_en", monitor_en);
  IngestPrep ingest = prepare_ingest(config);
  abv::RtlAbvEnv env(kernel, bag);
  env.set_checker_options(checker_options(config));
  if (ingest.writer != nullptr) env.set_record_writer(ingest.writer.get());
  if (prune.active) env.set_prune_plan(&prune.plan, prune.audit);
  if (abv_enabled(config)) {
    for (const psl::RtlProperty& p : pick(suite, config)) {
      env.add_property(p);
    }
  }
  if (abv_enabled(config) || ingest.writer != nullptr) env.attach(clock);

  RunResult result;
  const auto t0 = Clock::now();
  kernel.run(kForever);
  env.finish();
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.sim_end_ns = kernel.now();
  result.kernel_events = kernel.events_executed();
  result.delta_cycles = kernel.delta_cycles();
  result.ops_completed = driver.pixels_completed();
  result.mismatches = driver.mismatches();
  result.functional_ok =
      driver.mismatches() == 0 && driver.pixels_completed() == total_pixels;
  collect_env_results(env, prune, result);
  record_sim_metrics(result, {});
  finish_ingest(ingest, result);
  return result;
}

RunResult run_colorconv_tlm_ca(const RunConfig& config,
                               const PropertySuite& suite,
                               const PrunePrep& prune) {
  sim::Kernel kernel;
  tlm::TransactionRecorder recorder(kernel);
  ColorConvTlmCa target;
  target.set_static_observable("monitor_en", 1);
  tlm::InitiatorSocket socket(kernel, &recorder, "colorconv_ca");
  socket.bind(target);

  const std::vector<CcBurst> bursts = make_cc_bursts(config.workload, config.seed);
  size_t total_pixels = 0;
  for (const CcBurst& b : bursts) total_pixels += b.pixels.size();
  ColorConvDriverModel driver(bursts);

  IngestPrep ingest = prepare_ingest(config);
  abv::TlmAbvEnv env(suite.clock_period_ns);
  const TlmOutputs outputs = configure_tlm_env(env, config);
  if (ingest.writer != nullptr) env.set_record_writer(ingest.writer.get());
  if (prune.active) env.set_prune_plan(&prune.plan, prune.audit);
  if (abv_enabled(config)) {
    for (const psl::RtlProperty& p : pick(suite, config)) {
      env.add_rtl_property(p);
    }
  }
  const bool pull = abv_enabled(config) || ingest.writer != nullptr;
  if (pull) env.bind();

  auto next_drive = std::make_shared<ColorConvDrive>();
  auto payload = std::make_shared<tlm::Payload>();
  std::function<void()> cycle = [&kernel, &socket, &driver, next_drive, payload,
                                 &config, &cycle] {
    if (driver.done()) {
      kernel.stop();
      return;
    }
    payload->command = tlm::Command::kWrite;
    payload->data.assign({next_drive->inputs.ds ? uint64_t{1} : 0,
                          uint64_t{next_drive->inputs.r},
                          uint64_t{next_drive->inputs.g},
                          uint64_t{next_drive->inputs.b},
                          next_drive->sof ? uint64_t{1} : 0});
    socket.transport(*payload);
    const bool rdy = payload->data[0] != 0;
    *next_drive = driver.tick(rdy, static_cast<uint8_t>(payload->data[1]),
                              static_cast<uint8_t>(payload->data[2]),
                              static_cast<uint8_t>(payload->data[3]));
    kernel.schedule_at(kernel.now() + config.clock_period_ns, cycle);
  };
  kernel.schedule_at(0, cycle);

  RunResult result;
  const auto t0 = Clock::now();
  run_live_tlm(kernel, recorder, env, ingest, pull);
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.sim_end_ns = kernel.now();
  result.kernel_events = kernel.events_executed();
  result.delta_cycles = kernel.delta_cycles();
  result.transactions = recorder.transactions();
  result.ops_completed = driver.pixels_completed();
  result.mismatches = driver.mismatches();
  result.functional_ok =
      driver.mismatches() == 0 && driver.pixels_completed() == total_pixels;
  collect_env_results(env, prune, result);
  record_sim_metrics(result, env.metrics_snapshot());
  finish_ingest(ingest, result);
  return result;
}

RunResult run_colorconv_tlm_at(const RunConfig& config,
                               const PropertySuite& suite,
                               const PrunePrep& prune) {
  sim::Kernel kernel;
  tlm::TransactionRecorder recorder(kernel);
  ColorConvTlmAt target(kernel, &recorder, config.clock_period_ns);
  target.set_static_observable("monitor_en", 1);
  tlm::InitiatorSocket socket(kernel, &recorder, "colorconv_at");
  socket.bind(target);

  const std::vector<CcBurst> bursts = make_cc_bursts(config.workload, config.seed);
  size_t total_pixels = 0;
  for (const CcBurst& b : bursts) total_pixels += b.pixels.size();

  RunResult result;
  size_t deleted = 0;
  IngestPrep ingest = prepare_ingest(config);
  abv::TlmAbvEnv env(suite.clock_period_ns);
  const TlmOutputs outputs = configure_tlm_env(env, config);
  if (ingest.writer != nullptr) env.set_record_writer(ingest.writer.get());
  if (prune.active) env.set_prune_plan(&prune.plan, prune.audit);
  if (abv_enabled(config)) {
    if (config.abstraction.at_replay_unabstracted) {
      for (const psl::RtlProperty& p : pick(suite, config)) {
        env.add_rtl_property(p);
      }
    } else {
      for (const psl::TlmProperty& q : abstract_for_at(config, suite, deleted)) {
        env.add_property(q);
      }
    }
  }
  const bool pull = abv_enabled(config) || ingest.writer != nullptr;
  if (pull) env.bind();
  result.properties_deleted = deleted;

  // Temporally-decoupled initiator (TLM-2.0 LT style): a whole burst is
  // issued from a single kernel event, with local time offsets carried in
  // the transport delay. Record delivery times are unchanged, so the
  // verification environment sees the exact same event stream as before.
  const sim::Time c = config.clock_period_ns;
  auto burst_index = std::make_shared<size_t>(0);
  auto completed = std::make_shared<size_t>(0);
  auto mismatches = std::make_shared<size_t>(0);
  auto write = std::make_shared<tlm::Payload>();
  auto read = std::make_shared<tlm::Payload>();
  std::function<void()> burst_fn = [&, burst_index, completed, mismatches, write,
                                    read] {
    const CcBurst& burst = bursts[*burst_index];
    const sim::Time t0 = kernel.now();
    const size_t n = burst.pixels.size();
    for (size_t i = 0; i < n; ++i) {
      const Pixel& p = burst.pixels[i];
      write->command = tlm::Command::kWrite;
      write->data.assign({uint64_t{p.r}, uint64_t{p.g}, uint64_t{p.b},
                          i == 0 ? uint64_t{1} : uint64_t{0}});
      sim::Time write_delay = i * c;
      socket.transport(*write, write_delay);
      read->command = tlm::Command::kRead;
      read->data.clear();
      // Mid-burst, pixel i's result instant (i*c + 8c) coincides with the
      // write of pixel i+8, whose record carries the identical full
      // snapshot; the read phase is then silent to avoid a duplicated
      // evaluation point.
      read->record = i + ColorConvTlmAt::kLatencyCycles >= n;
      sim::Time read_delay = i * c;
      socket.transport(*read, read_delay);
      const Ycbcr expect = colorconv_ref(p.r, p.g, p.b);
      if (read->data.size() != 3 || read->data[0] != expect.y ||
          read->data[1] != expect.cb || read->data[2] != expect.cr) {
        ++(*mismatches);
      }
      ++(*completed);
    }
    // Mark the ds and rdy falling instants (Def. III.1).
    target.emit_idle(t0 + n * c);
    target.emit_idle(t0 + (n + ColorConvTlmAt::kLatencyCycles) * c);
    ++(*burst_index);
    if (*burst_index < bursts.size()) {
      kernel.schedule_at(t0 + (n + bursts[*burst_index].gap) * c, burst_fn);
    } else {
      kernel.schedule_at(t0 + (n + 4 + ColorConvTlmAt::kLatencyCycles) * c,
                         [&kernel] { kernel.stop(); });
    }
  };
  if (!bursts.empty()) {
    kernel.schedule_at((bursts[0].gap + 1) * c, burst_fn);
  }

  const auto t0 = Clock::now();
  run_live_tlm(kernel, recorder, env, ingest, pull);
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.sim_end_ns = kernel.now();
  result.kernel_events = kernel.events_executed();
  result.delta_cycles = kernel.delta_cycles();
  result.transactions = recorder.transactions();
  result.ops_completed = *completed;
  result.mismatches = *mismatches;
  result.functional_ok = *mismatches == 0 && *completed == total_pixels;
  collect_env_results(env, prune, result);
  record_sim_metrics(result, env.metrics_snapshot());
  finish_ingest(ingest, result);
  return result;
}

// ---- Offline replay --------------------------------------------------------

// Replays a recorded TLM stream through an environment configured exactly
// like the live runner for (design, level) would configure it — same
// property registration, abstraction, prune plan and engine knobs — so
// verdicts, witness rings, coverage counters and prune-derived rows come out
// byte-identical to the live run.
RunResult run_tlm_replay(const RunConfig& config, const PropertySuite& suite,
                         const PrunePrep& prune, tlm::RecordSource& source) {
  RunResult result;
  size_t deleted = 0;
  IngestPrep ingest = prepare_ingest(config);
  abv::TlmAbvEnv env(suite.clock_period_ns);
  const TlmOutputs outputs = configure_tlm_env(env, config);
  if (ingest.writer != nullptr) env.set_record_writer(ingest.writer.get());
  if (prune.active) env.set_prune_plan(&prune.plan, prune.audit);
  if (abv_enabled(config)) {
    if (config.level == Level::kTlmAt &&
        !config.abstraction.at_replay_unabstracted) {
      for (const psl::TlmProperty& q : abstract_for_at(config, suite, deleted)) {
        env.add_property(q);
      }
    } else {
      for (const psl::RtlProperty& p : pick(suite, config)) {
        env.add_rtl_property(p);
      }
    }
  }
  env.bind();
  result.properties_deleted = deleted;

  const auto t0 = Clock::now();
  uint64_t records = 0;
  sim::Time last_end = 0;
  for (tlm::RecordSpan span = source.next(); !span.empty();
       span = source.next()) {
    env.on_records(span.begin, span.end);
    records += span.size();
    last_end = span.end[-1].end;
  }
  env.finish();
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.sim_end_ns = last_end;
  result.transactions = records;
  // No DUV executes during replay, so the driver self-check has no subject;
  // functional verification happened when the stream was recorded.
  result.functional_ok = true;
  collect_env_results(env, prune, result);
  record_sim_metrics(result, env.metrics_snapshot());
  finish_ingest(ingest, result);
  return result;
}

// RTL replay: each record is one settled clock-edge sample (address 0 =
// rising, 1 = falling); the recorded snapshots substitute for sampling a
// live design, so the kernel and signal bag are inert placeholders.
RunResult run_rtl_replay(const RunConfig& config, const PropertySuite& suite,
                         const PrunePrep& prune, tlm::RecordSource& source) {
  sim::Kernel kernel;
  abv::SignalBag bag;
  IngestPrep ingest = prepare_ingest(config);
  abv::RtlAbvEnv env(kernel, bag);
  env.set_checker_options(checker_options(config));
  if (prune.active) env.set_prune_plan(&prune.plan, prune.audit);
  if (abv_enabled(config)) {
    for (const psl::RtlProperty& p : pick(suite, config)) {
      env.add_property(p);
    }
  }

  RunResult result;
  const auto t0 = Clock::now();
  sim::Time last_end = 0;
  for (tlm::RecordSpan span = source.next(); !span.empty();
       span = source.next()) {
    for (const tlm::TransactionRecord* r = span.begin; r != span.end; ++r) {
      if (ingest.writer != nullptr) ingest.writer->append(*r);
      env.on_sample(r->end, r->address == 0, r->observables);
      last_end = r->end;
    }
  }
  env.finish();
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.sim_end_ns = last_end;
  result.functional_ok = true;  // see run_tlm_replay
  collect_env_results(env, prune, result);
  record_sim_metrics(result, {});
  finish_ingest(ingest, result);
  return result;
}

// Runs the static analysis battery over the configured properties. Returns
// true when the simulation may proceed (always, except kError with errors).
bool run_analysis(const RunConfig& config, const PropertySuite& suite,
                  RunResult& result) {
  analysis::AnalysisOptions options;
  options.abstraction.clock_period_ns = suite.clock_period_ns;
  options.abstraction.abstracted_signals = suite.abstracted_signals;
  options.abstraction.push_mode = config.abstraction.push_mode;
  options.symbolic_budget = config.analysis.symbolic_budget;
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
    result.analysis_diagnostics.insert(result.analysis_diagnostics.end(),
                                       r.diagnostics.begin(),
                                       r.diagnostics.end());
  }
  return result.analysis_ok || config.analysis != AnalysisMode::kError;
}

// Shared post-run tail of both run_simulation overloads: merges the
// analysis/prune diagnostics in their documented order, writes the prune
// plan, and appends the static-vs-dynamic coverage cross-check.
void finalize_run(const RunConfig& config, const PrunePrep& prune,
                  RunResult& analyzed, RunResult& result) {
  // Merge diagnostics: static analysis first, then the plan's
  // PRN001/002/004 notes, then the PRN003 cross-check errors the runner
  // appended (the only thing in result.analysis_diagnostics at this point).
  std::vector<analysis::Diagnostic> prune_errors =
      std::move(result.analysis_diagnostics);
  result.analysis_diagnostics = std::move(analyzed.analysis_diagnostics);
  if (prune.active) {
    std::vector<analysis::Diagnostic> notes = prune.plan.diagnostics();
    result.analysis_diagnostics.insert(result.analysis_diagnostics.end(),
                                       std::make_move_iterator(notes.begin()),
                                       std::make_move_iterator(notes.end()));
  }
  result.analysis_ok = analyzed.analysis_ok && prune_errors.empty();
  result.analysis_diagnostics.insert(
      result.analysis_diagnostics.end(),
      std::make_move_iterator(prune_errors.begin()),
      std::make_move_iterator(prune_errors.end()));
  result.prune_plan = prune.plan;
  if (prune.active && !config.observability.prune_plan_path.empty()) {
    std::ofstream plan_out(config.observability.prune_plan_path);
    prune.plan.write_json(plan_out);
  }

  // Post-run static-vs-dynamic cross-check: reconcile the analysis layer's
  // vacuity predictions with the coverage the run actually observed
  // (COV001/COV002 warnings appended after the static diagnostics).
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
    result.analysis_diagnostics.insert(result.analysis_diagnostics.end(),
                                       std::make_move_iterator(cov.begin()),
                                       std::make_move_iterator(cov.end()));
  }
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
  if (!config.ingest.replay_path.empty()) {
    // Offline replay: decode + validate the log, check its identity against
    // this configuration, then feed it through the source-based overload.
    RunResult result;
    support::tracelog::TraceReader reader;
    if (std::optional<support::tracelog::TraceError> err =
            reader.open(config.ingest.replay_path)) {
      result.ingest_error = err->to_string();
      return result;
    }
    tlm::RecordStreamMeta expected;
    expected.design = to_string(config.design);
    expected.level = to_string(config.level);
    expected.clock_period_ns = config.clock_period_ns;
    expected.observables = level_observables(config.design, config.level);
    if (std::optional<support::tracelog::TraceError> err =
            support::tracelog::validate_meta(reader.meta(), expected)) {
      result.ingest_error = err->to_string();
      return result;
    }
    support::tracelog::TraceReplaySource source(std::move(reader));
    return run_simulation(config, source);
  }

  const PropertySuite suite =
      config.design == Design::kDes56 ? des56_suite() : colorconv_suite();

  // Pre-simulation static analysis. Uses its own pass manager, so it leaves
  // the simulated configuration (and its reports) untouched.
  RunResult analyzed;
  if (config.analysis != AnalysisMode::kOff && abv_enabled(config)) {
    if (!run_analysis(config, suite, analyzed)) {
      return analyzed;  // kError: diagnostics block the simulation
    }
  }

  const PrunePrep prune = prepare_prune(config, suite);

  RunResult result;
  switch (config.design) {
    case Design::kDes56:
      switch (config.level) {
        case Level::kRtl: result = run_des56_rtl(config, suite, prune); break;
        case Level::kTlmCa: result = run_des56_tlm_ca(config, suite, prune); break;
        case Level::kTlmAt: result = run_des56_tlm_at(config, suite, prune); break;
      }
      break;
    case Design::kColorConv:
      switch (config.level) {
        case Level::kRtl: result = run_colorconv_rtl(config, suite, prune); break;
        case Level::kTlmCa: result = run_colorconv_tlm_ca(config, suite, prune); break;
        case Level::kTlmAt: result = run_colorconv_tlm_at(config, suite, prune); break;
      }
      break;
  }
  finalize_run(config, prune, analyzed, result);
  return result;
}

RunResult run_simulation(const RunConfig& config, tlm::RecordSource& source) {
  const PropertySuite suite =
      config.design == Design::kDes56 ? des56_suite() : colorconv_suite();

  RunResult analyzed;
  if (config.analysis != AnalysisMode::kOff && abv_enabled(config)) {
    if (!run_analysis(config, suite, analyzed)) {
      return analyzed;  // kError: diagnostics block the replay too
    }
  }

  const PrunePrep prune = prepare_prune(config, suite);
  RunResult result = config.level == Level::kRtl
                         ? run_rtl_replay(config, suite, prune, source)
                         : run_tlm_replay(config, suite, prune, source);
  finalize_run(config, prune, analyzed, result);
  return result;
}

}  // namespace repro::models
