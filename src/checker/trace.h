// Evaluation events, traces and atomic-proposition evaluation.
//
// A checker consumes a stream of evaluation events. At RTL an event is a
// clock edge selected by the property's clock context; at TLM it is the end
// of a transaction (the basic transaction context Tb of Def. III.2). Each
// event carries the simulation time and a view of the DUV observables.
#ifndef REPRO_CHECKER_TRACE_H_
#define REPRO_CHECKER_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "psl/ast.h"

namespace repro::checker {

// Three-valued verdict of a property instance over a (possibly ongoing)
// trace. kPending means the verdict depends on events not yet observed.
enum class Verdict { kTrue, kFalse, kPending };

const char* to_string(Verdict v);

// The (name, value) pairs one evaluation event exposed, materialized for
// failure diagnostics when a failure is logged (or, on the name path, by the
// context itself; see ValueContext::witness_values).
using WitnessValues = std::vector<std::pair<std::string, uint64_t>>;

// One remembered evaluation event: the simulation (VCD) timestamp of the
// transaction plus the observables it carried.
struct WitnessEntry {
  psl::TimeNs time = 0;
  std::shared_ptr<const WitnessValues> observables;
};

class ValueContext;

// One evaluation event handed to a checker instance. `atoms` is the owner's
// slot-bound atom bits for this event (one byte per deduplicated program
// atom, see slot_binding.h), or nullptr on the name path, where atoms are
// evaluated by looking their signals up in `values`.
struct Event {
  psl::TimeNs time;
  const ValueContext* values;
  const uint8_t* atoms = nullptr;
};

// Positional observable dictionary: slot i of an event's value array holds
// the observable named (*dictionary)[i]. Same layout as tlm::Snapshot::Keys.
using Dictionary = std::vector<std::string>;

// Read access to the DUV observables at one evaluation event.
class ValueContext {
 public:
  // Positional view of the observables: the dictionary (whose identity is
  // its address, stable for as long as the producer emits records over it)
  // plus this event's value array, parallel to it. `dictionary` is null when
  // the context has no positional layout; a null *dictionary is an empty
  // one.
  struct Positional {
    const std::shared_ptr<const Dictionary>* dictionary = nullptr;
    const uint64_t* values = nullptr;
  };

  virtual ~ValueContext() = default;
  const Positional& positional() const { return positional_; }
  // Value of signal `name`; must only be called for signals the context
  // provides (checked by has()).
  virtual uint64_t value(std::string_view name) const = 0;
  virtual bool has(std::string_view name) const = 0;
  // Name-path snapshot of every signal this context exposes, for failure
  // witnesses of contexts without a positional view (the wrapper copies a
  // positional value array itself). nullptr when the context cannot
  // enumerate its signals (the wrapper then skips witness capture for this
  // event).
  virtual std::shared_ptr<const WitnessValues> witness_values() const {
    return nullptr;
  }

 protected:
  void set_positional(const std::shared_ptr<const Dictionary>* dictionary,
                      const uint64_t* values) {
    positional_ = {dictionary, values};
  }

 private:
  Positional positional_;
};

// ValueContext backed by a plain map; used for recorded traces and tests.
class MapContext : public ValueContext {
 public:
  MapContext() = default;
  explicit MapContext(std::map<std::string, uint64_t> values)
      : values_(std::move(values)) {}

  void set(const std::string& name, uint64_t value) { values_[name] = value; }

  uint64_t value(std::string_view name) const override;
  bool has(std::string_view name) const override;
  std::shared_ptr<const WitnessValues> witness_values() const override;

  const std::map<std::string, uint64_t>& entries() const { return values_; }

 private:
  std::map<std::string, uint64_t> values_;
};

// One recorded evaluation event.
struct Observation {
  psl::TimeNs time = 0;
  MapContext values;
};

// A recorded stream of evaluation events, in increasing time order.
using Trace = std::vector<Observation>;

// `lhs <op> rhs` for a binary comparison; kTruthy tests lhs != 0.
inline bool compare(psl::CmpOp op, uint64_t lhs, uint64_t rhs) {
  switch (op) {
    case psl::CmpOp::kTruthy: return lhs != 0;
    case psl::CmpOp::kEq: return lhs == rhs;
    case psl::CmpOp::kNe: return lhs != rhs;
    case psl::CmpOp::kLt: return lhs < rhs;
    case psl::CmpOp::kLe: return lhs <= rhs;
    case psl::CmpOp::kGt: return lhs > rhs;
    case psl::CmpOp::kGe: return lhs >= rhs;
  }
  return false;
}

// Evaluates an atomic proposition against `ctx`. All referenced signals
// must be present in the context.
bool eval_atom(const psl::Atom& atom, const ValueContext& ctx);

// Evaluates a boolean (non-temporal) expression against `ctx`.
bool eval_boolean(const psl::ExprPtr& e, const ValueContext& ctx);

}  // namespace repro::checker

#endif  // REPRO_CHECKER_TRACE_H_
