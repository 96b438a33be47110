// Event-driven simulation kernel.
//
// A deliberately small SystemC-like kernel: time is an integer number of
// nanoseconds, a timestamp is processed as a sequence of delta cycles, and
// each delta cycle has an evaluate phase (callbacks run, possibly writing
// signals) followed by an update phase (signal values commit, waking
// sensitive callbacks in the next delta). This gives exactly the two
// observables the paper's methodology needs: cycle-accurate signal events at
// RTL and wall-clock transaction instants at TLM.
//
// Steady-state stepping allocates nothing: timed events live in a binary
// min-heap over a vector, and the delta-cycle phases run over member vectors
// that keep their capacity from one delta to the next.
#ifndef REPRO_SIM_KERNEL_H_
#define REPRO_SIM_KERNEL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace repro::sim {

// Simulation time in nanoseconds. The paper expresses next_eps evaluation
// times in nanoseconds (Def. III.3), so we use the same unit throughout.
using Time = uint64_t;

class SignalBase;

class Kernel {
 public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Current simulation time. Valid during and after run().
  Time now() const { return now_; }

  // Schedules `fn` to run in the evaluate phase at absolute time `t`.
  // t must be >= now().
  void schedule_at(Time t, std::function<void()> fn);

  // Schedules `fn` to run in the next delta cycle of the current timestamp.
  void schedule_delta(std::function<void()> fn);

  // Registers a signal whose pending write should commit in the next update
  // phase. Called by Signal<T>::write().
  void request_update(SignalBase* signal);

  // Runs until the event queue is exhausted or simulation time would exceed
  // `until` (events at exactly `until` are processed).
  void run(Time until);

  // Runs until the event queue is empty.
  void run_all();

  // Advances exactly one timestamp (all its delta cycles). Returns false —
  // without advancing — when a stop is pending, the queue is empty, or the
  // next event lies beyond `until`. Pull-style drivers (tlm::LiveRecordSource)
  // interleave step() with draining the records each timestamp produced;
  // unlike run(), step() does not clear a pending stop request.
  bool step(Time until);

  // Stops the simulation at the end of the current delta cycle.
  void stop() { stop_requested_ = true; }

  // Statistics, used by benchmarks to report simulated activity.
  uint64_t events_executed() const { return events_executed_; }
  uint64_t delta_cycles() const { return delta_cycles_; }

 private:
  // A timed event; the heap orders on (time, seq), so events at one
  // timestamp run in insertion order.
  struct Timed {
    Time time;
    uint64_t seq;
    std::function<void()> fn;
  };
  // Heap comparator: true when `a` runs after `b`.
  static bool later(const Timed& a, const Timed& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  void execute_timestamp();

  Time now_ = 0;
  bool stop_requested_ = false;
  uint64_t events_executed_ = 0;
  uint64_t delta_cycles_ = 0;
  uint64_t next_seq_ = 0;

  // Timed events, a binary min-heap on (time, seq).
  std::vector<Timed> timed_;
  // Callbacks runnable in the current delta cycle.
  std::vector<std::function<void()>> runnable_;
  // Callbacks scheduled for the next delta cycle of this timestamp.
  std::vector<std::function<void()>> next_delta_;
  // Signals with pending writes awaiting the update phase.
  std::vector<SignalBase*> pending_updates_;
  // The batch being evaluated and the signals being committed: scratch that
  // swaps with runnable_ / pending_updates_ each delta and keeps its
  // capacity.
  std::vector<std::function<void()>> batch_;
  std::vector<SignalBase*> updates_;
};

// Base class for signals: the kernel drives the update phase through it.
class SignalBase {
 public:
  explicit SignalBase(std::string name) : name_(std::move(name)) {}
  virtual ~SignalBase() = default;

  const std::string& name() const { return name_; }

 protected:
  friend class Kernel;
  // Commits the pending write, if any; returns true if the value changed.
  virtual bool apply_update() = 0;
  // Invoked by the kernel when apply_update() returned true.
  virtual void notify_changed() = 0;

 private:
  std::string name_;
};

}  // namespace repro::sim

#endif  // REPRO_SIM_KERNEL_H_
