// Engine tuning knobs, shared verbatim between models::RunConfig::engine
// and abv::EvalEngine::Options::config so the testbench never hand-copies
// fields (single source of truth for the evaluation-engine surface).
#ifndef REPRO_ABV_ENGINE_CONFIG_H_
#define REPRO_ABV_ENGINE_CONFIG_H_

#include <cstddef>

namespace repro::abv {

// Designed for designated initializers:
//   abv::EngineConfig{.jobs = 4}
struct EngineConfig {
  // Worker shards. 1 = serial synchronous dispatch, bit-identical to the
  // historical single-threaded walk; values < 1 are clamped to 1. The
  // sharded engine's batch size and in-flight bound are fixed constants of
  // its batch ring (abv/eval_engine.h).
  size_t jobs = 1;
  // Ignored: checkers pick the lockstep lanes from their program
  // (checker/batch.h). Kept only because abvbench/abv_e2e.cc still reads it;
  // the abvbench insulation PR deletes it (ROADMAP.md).
  bool vectorized = true;
};

}  // namespace repro::abv

#endif  // REPRO_ABV_ENGINE_CONFIG_H_
