// RTL dynamic ABV environment.
//
// Binds PropertyCheckers (synthesized from RTL properties) to a clock and a
// set of design signals. At each clock edge selected by a property's clock
// context the environment samples the design — after its delta cycles have
// settled, so registered outputs written at the edge are visible — and
// feeds the evaluation event to the checker.
//
// Sampling follows the same build-once, read-many discipline as the TLM
// engine's batch ring: the signal bag is read ONCE per event into a reusable
// tlm::Snapshot (one getter call per signal, not one per signal per
// checker), and every checker selected at that edge evaluates against the
// same read-only ObservablesContext. With a single synchronous consumer the
// snapshot buffer is recycled in place, a ring of one slot. The
// per-edge atom and guard evaluation is likewise done once: every checker
// is attached to the environment's checker::RecordPass, which runs once per
// edge that selects at least one checker.
#ifndef REPRO_ABV_RTL_ENV_H_
#define REPRO_ABV_RTL_ENV_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "abv/env.h"
#include "checker/record_pass.h"
#include "psl/ast.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "sim/signal.h"
#include "tlm/transaction.h"

namespace repro::abv {

// Named read accessors into the design under verification. RTL models
// register their observable signals here; the environment samples them all
// into one per-event snapshot.
class SignalBag {
 public:
  void add(const std::string& name, std::function<uint64_t()> getter) {
    getters_[name] = std::move(getter);
    keys_cache_.reset();
  }
  void add(const std::string& name, const sim::Signal<uint64_t>& signal) {
    add(name, [&signal] { return signal.read(); });
  }
  void add(const std::string& name, const sim::Signal<bool>& signal) {
    add(name, [&signal] { return signal.read() ? uint64_t{1} : uint64_t{0}; });
  }

  // Shared key table over the registered names (map order, so the index
  // layout is deterministic); built lazily, invalidated by add(). Feed it
  // to tlm::Snapshot so all snapshots of this bag share one allocation.
  std::shared_ptr<const tlm::Snapshot::Keys> keys() const;

  // Reads every getter once into `snapshot`, which must have been built
  // over this bag's keys().
  void sample_into(tlm::Snapshot& snapshot) const;

 private:
  std::map<std::string, std::function<uint64_t()>, std::less<>> getters_;
  mutable std::shared_ptr<const tlm::Snapshot::Keys> keys_cache_;
};

// Clock-edge sampling and edge-kind dispatch over the shared environment
// core (abv/env.h). Checkers run directly at every sampled edge: RTL does
// not go through the evaluation engine.
class RtlAbvEnv : public AbvEnv {
 public:
  RtlAbvEnv(sim::Kernel& kernel, SignalBag& signals)
      : kernel_(kernel), signals_(signals) {}

  // Synthesizes a checker for `property` and registers it, subject to the
  // prune plan. Properties with kClkPos (or the basic) context are
  // evaluated at rising edges, kClkNeg at falling edges, kClk at both.
  void add_property(const psl::RtlProperty& property);

  // Attaches the environment to the DUV clock. Must be called after all
  // add_property calls and before the simulation runs. With a record
  // writer set, the sampled edge stream is serialized as one record per
  // evaluation point: start = end = edge time, address 0 for rising / 1
  // for falling, observables = the settled snapshot.
  void attach(sim::Clock& clock);

  // One settled clock-edge evaluation point: dispatches `values` to every
  // checker selected at that edge kind. attach()'s sampling callbacks land
  // here; offline replay calls it through on_records with recorded
  // snapshots, no clock or live design needed.
  void on_sample(psl::TimeNs now, bool rising, const tlm::Snapshot& values);

  // Replays recorded edge samples (the encoding attach() writes): each one
  // is re-recorded to the record writer, if any, then fed to on_sample.
  void on_records(const tlm::TransactionRecord* begin,
                  const tlm::TransactionRecord* end) override;

 private:
  void sample(bool rising);

  sim::Kernel& kernel_;
  SignalBag& signals_;
  std::vector<psl::ClockContext::Kind> kinds_;
  checker::RecordPass pass_;  // shared by every checker
  // Reusable per-event snapshot buffer, built over signals_.keys() at
  // attach(); refilled (recycled) at every sampled edge.
  tlm::Snapshot sample_buffer_;
  bool any_pos_ = false;
  bool any_neg_ = false;
};

}  // namespace repro::abv

#endif  // REPRO_ABV_RTL_ENV_H_
