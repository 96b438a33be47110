// TLM transaction payload, modeled after the TLM-2.0 generic payload.
//
// The `observables` map plays the role of a TLM-2.0 extension: it carries
// the values of the preserved interface variables as they stand at the
// *completion* instant of the transaction, which is what the verification
// environment samples at each Tb evaluation point (Def. III.2).
#ifndef REPRO_TLM_TRANSACTION_H_
#define REPRO_TLM_TRANSACTION_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/kernel.h"

namespace repro::tlm {

// A cheap value snapshot of the preserved interface variables: the key set
// is fixed per model and shared (one allocation per model, not per
// transaction); a snapshot instance is one flat value vector. Lookup is a
// linear scan, which beats tree/hash containers for the ~10 observables a
// model exposes.
class Snapshot {
 public:
  using Keys = std::vector<std::string>;

  Snapshot() = default;
  explicit Snapshot(std::shared_ptr<const Keys> keys)
      : keys_(std::move(keys)), values_(keys_ ? keys_->size() : 0, 0) {}

  bool empty() const { return keys_ == nullptr; }
  size_t size() const { return keys_ ? keys_->size() : 0; }
  const Keys* keys() const { return keys_.get(); }
  // The shared key table itself (null for an empty snapshot) and the value
  // array parallel to it: the positional view checkers bind slots against.
  const std::shared_ptr<const Keys>& key_table() const { return keys_; }
  const uint64_t* data() const { return values_.data(); }

  void set(std::string_view name, uint64_t value) {
    const Keys& keys = *keys_;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == name) {
        values_[i] = value;
        return;
      }
    }
    assert(false && "observable not in the model's key table");
  }

  std::optional<uint64_t> get(std::string_view name) const {
    if (!keys_) return std::nullopt;
    const Keys& keys = *keys_;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == name) return values_[i];
    }
    return std::nullopt;
  }

  uint64_t at(size_t index) const { return values_[index]; }
  void set_at(size_t index, uint64_t value) { values_[index] = value; }

 private:
  std::shared_ptr<const Keys> keys_;
  std::vector<uint64_t> values_;
};

enum class Command { kRead, kWrite };
enum class Response { kOk, kAddressError, kGenericError };

const char* to_string(Command c);
const char* to_string(Response r);

struct Payload {
  Command command = Command::kWrite;
  uint64_t address = 0;
  std::vector<uint64_t> data;  // word-granular, little-endian word order
  Response response = Response::kOk;
  // Set by the initiator socket when a verification environment is
  // subscribed: only then do targets materialize the observables extension
  // (mirrors how TLM-2.0 extensions are only populated on request).
  bool monitored = false;
  // Cleared by the initiator (or target) to mark a phase as silent: the
  // transaction is counted but no record is delivered. Used when its
  // completion instant coincides with another exposed phase carrying the
  // identical snapshot, so the evaluation point is not duplicated.
  bool record = true;
  // Verification extension: preserved interface values at completion time.
  Snapshot observables;
};

// A completed transaction as seen by the verification environment.
struct TransactionRecord {
  sim::Time start = 0;  // issue instant
  sim::Time end = 0;    // completion instant (start + annotated delay)
  Command command = Command::kWrite;
  uint64_t address = 0;
  std::vector<uint64_t> data;
  Response response = Response::kOk;
  Snapshot observables;
};

}  // namespace repro::tlm

#endif  // REPRO_TLM_TRANSACTION_H_
