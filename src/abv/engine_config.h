// Engine tuning knobs, shared verbatim between models::RunConfig::engine
// and abv::EvalEngine::Options::config so the testbench never hand-copies
// fields (single source of truth for the evaluation-engine surface).
#ifndef REPRO_ABV_ENGINE_CONFIG_H_
#define REPRO_ABV_ENGINE_CONFIG_H_

#include <cstddef>

namespace repro::abv {

// Designed for designated initializers:
//   abv::EngineConfig{.jobs = 4, .max_inflight_batches = 3}
struct EngineConfig {
  // Worker shards. 1 = serial synchronous dispatch, bit-identical to the
  // historical single-threaded walk; values < 1 are clamped to 1.
  size_t jobs = 1;
  // Records buffered per sealed arena batch. Only meaningful when
  // jobs > 1: the serial path evaluates every record synchronously and
  // never batches, so this knob is IGNORED at jobs == 1 (see also the
  // SIZ-style note the examples print). Values < 1 are clamped to 1.
  size_t batch_size = 64;
  // Sealed-but-undrained batches the producer may have outstanding before
  // it blocks (backpressure). 1 degenerates to synchronous fork-join
  // dispatch; 2 (default) double-buffers: the producer fills batch k+1
  // while the shards drain batch k. Ignored at jobs == 1; values < 1 are
  // clamped to 1.
  size_t max_inflight_batches = 2;
  // Ignored: checkers pick the lockstep lanes from their program
  // (checker/batch.h). Kept only because abvbench/abv_e2e.cc still reads it;
  // the abvbench insulation PR deletes it (ROADMAP.md).
  bool vectorized = true;
};

}  // namespace repro::abv

#endif  // REPRO_ABV_ENGINE_CONFIG_H_
