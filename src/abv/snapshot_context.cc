#include "abv/snapshot_context.h"

#include <cstdio>
#include <cstdlib>

namespace repro::abv {

uint64_t ObservablesContext::value(std::string_view name) const {
  const std::optional<uint64_t> v = values_.get(name);
  if (!v.has_value()) {
    // A property referenced a signal the model does not expose in its
    // transaction records. Under NDEBUG an assert would vanish and the
    // dereference below would be UB; fail fast with the name instead.
    std::fprintf(stderr,
                 "fatal: observable '%.*s' missing from transaction record\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return *v;
}

bool ObservablesContext::has(std::string_view name) const {
  return values_.get(name).has_value();
}

}  // namespace repro::abv
