#include "checker/checker.h"

#include <bit>
#include <cassert>

namespace repro::checker {

PropertyChecker::PropertyChecker(std::string name, psl::ExprPtr formula,
                                 psl::ExprPtr guard, CheckerOptions options)
    : name_(std::move(name)),
      formula_(std::move(formula)),
      guard_(std::move(guard)),
      options_(options),
      // Sim-time latency from ns-scale (RTL edge-to-edge) up to ~8M ns.
      latency_ns_(support::exponential_bounds(1, 24)) {
  assert(formula_);
  body_ = formula_;
  while (body_->kind == psl::ExprKind::kAlways) {
    repeating_ = true;
    body_ = body_->lhs;
  }
  antecedent_ = derive_antecedent(body_);
  node_cost_ = psl::node_count(body_);
  // Compile once; every instance (across all activations) shares the program.
  if (options_.compiled) program_ = Program::compile(body_);
  // Frame-free programs share a lockstep layout (see wrapper.cc for the
  // Sec. IV wrapper counterpart of this backend selection).
  if (program_ != nullptr && options_.vectorized &&
      ProgramBatch::supported(*program_)) {
    batch_layout_ = std::make_shared<const ProgramBatch>(program_);
  }
}

void PropertyChecker::attach(RecordPass& pass) {
  assert(pass_ == nullptr && stats_.events == 0);
  pass_ = &pass;
  activation_.reset(pass.atoms(), name_, program_.get(), body_, guard_,
                    antecedent_);
}

void PropertyChecker::set_program_formula(const psl::ExprPtr& formula) {
  assert(pass_ == nullptr);
  if (formula == nullptr || program_ == nullptr) return;
  psl::ExprPtr body = formula;
  while (body->kind == psl::ExprKind::kAlways) body = body->lhs;
  program_ = Program::compile(body);
  batch_layout_.reset();
  if (options_.vectorized && ProgramBatch::supported(*program_)) {
    batch_layout_ = std::make_shared<const ProgramBatch>(program_);
  }
  blocks_.clear();
  free_pool_.clear();
}

std::unique_ptr<Instance> PropertyChecker::make_instance() {
  if (batch_layout_ != nullptr) {
    for (const auto& block : blocks_) {
      if (block->has_free_lane()) {
        return std::make_unique<Instance>(block, block->allocate_lane());
      }
    }
    blocks_.push_back(std::make_shared<BatchState>(batch_layout_));
    return std::make_unique<Instance>(blocks_.back(),
                                      blocks_.back()->allocate_lane());
  }
  if (program_) return std::make_unique<Instance>(program_);
  return std::make_unique<Instance>(body_);
}

// Lockstep pre-pass over the active list; see TlmCheckerWrapper::prime_cohorts
// for the invariants (the scalar loop below then consumes the primed verdicts
// lane by lane, so stats and failure-log order are unchanged).
void PropertyChecker::prime_cohorts(const Event& ev) {
  prime_masks_.clear();
  for (const auto& instance : active_) {
    BatchState* block = instance->batch_block();
    if (block == nullptr) continue;
    const uint64_t bit = uint64_t{1} << instance->batch_lane();
    bool found = false;
    for (auto& [b, mask] : prime_masks_) {
      if (b == block) {
        mask |= bit;
        found = true;
        break;
      }
    }
    if (!found) prime_masks_.emplace_back(block, bit);
  }
  for (auto& [block, mask] : prime_masks_) {
    const int lanes = std::popcount(mask);
    block->prime(ev, mask);
    if (lanes > 1) {
      ++stats_.vector_batches;
      stats_.vector_lanes_filled += static_cast<uint64_t>(lanes);
    }
  }
}

void PropertyChecker::count_verdict(Verdict v, bool exercised,
                                    psl::TimeNs time) {
  switch (v) {
    case Verdict::kTrue:
      ++stats_.holds;
      // The vacuity split: a hold whose antecedent never fired at the
      // anchor proves nothing about the consequent.
      if (exercised) {
        ++stats_.real_passes;
      } else {
        ++stats_.vacuous_passes;
      }
      break;
    case Verdict::kFalse:
      ++stats_.failures;
      if (failure_log_.size() < options_.failure_log_cap) {
        failure_log_.push_back({time, name_, {}});
      }
      break;
    case Verdict::kPending:
      ++stats_.uncompleted;
      break;
  }
}

void PropertyChecker::retire(std::unique_ptr<Instance> instance, Verdict v,
                             psl::TimeNs time) {
  const psl::TimeNs activated = instance->activated_at();
  latency_ns_.record(time >= activated ? time - activated : 0);
  count_verdict(v, instance->exercised(), time);
  instance->reset();
  free_pool_.push_back(std::move(instance));
}

void PropertyChecker::on_event(psl::TimeNs time, const ValueContext& values) {
  if (pass_ == nullptr) {
    own_pass_ = std::make_unique<RecordPass>();
    attach(*own_pass_);
  }
  assert(pass_ == own_pass_.get() &&
         "an attached checker is driven by evaluate()");
  own_pass_->run(time, values);
  evaluate(time, values);
}

void PropertyChecker::evaluate(psl::TimeNs time, const ValueContext& values) {
  ++stats_.events;
  const bool activates = repeating_ || !started_;
  if (active_.empty() && !activates) return;  // nothing reads this event
  const uint8_t* bits = activation_.bits();
  if (bits == nullptr && activation_.failed()) return;
  // The program's atom bits are gathered only when an instance steps.
  Event ev{time, &values, nullptr};
  if (!active_.empty()) {
    ev.atoms = activation_.program_bits(bits);
    if (!blocks_.empty()) prime_cohorts(ev);
  }

  // Feed the event to every active instance; retire the resolved ones.
  size_t keep = 0;
  for (size_t i = 0; i < active_.size(); ++i) {
    ++stats_.steps;
    stats_.node_visits += node_cost_;
    const Verdict v = active_[i]->step(ev);
    if (v == Verdict::kPending) {
      active_[keep++] = std::move(active_[i]);
    } else {
      retire(std::move(active_[i]), v, time);
    }
  }
  active_.resize(keep);

  // Activation: a new verification session starts at each evaluation point
  // matching the context (for always-properties), or once (otherwise).
  if (!activates || !activation_.guard(bits, values)) return;
  started_ = true;
  const bool exercised = activation_.exercised(bits, values);
  ++stats_.activations;
  ++stats_.steps;
  stats_.node_visits += node_cost_;
  if (!free_pool_.empty()) {
    // An activation decided at its anchor would step the top pooled
    // instance once, retire it as a trivial verdict at latency 0 and put it
    // back on top: count exactly that without touching it. With an empty
    // pool the full path below allocates the instance, keeping the instance
    // (and lane) allocation order of the full evaluation.
    const Verdict v = activation_.anchor_verdict(exercised, bits, values);
    if (v != Verdict::kPending) {
      ++stats_.trivial;
      ++anchor_latencies_;
      count_verdict(v, exercised, time);
      return;
    }
  }

  if (ev.atoms == nullptr) ev.atoms = activation_.program_bits(bits);
  std::unique_ptr<Instance> instance;
  if (!free_pool_.empty()) {
    instance = std::move(free_pool_.back());
    free_pool_.pop_back();
  } else {
    instance = make_instance();
  }
  instance->set_activated_at(time);
  instance->set_exercised(exercised);
  const Verdict v = instance->step(ev);
  if (v == Verdict::kPending) {
    active_.push_back(std::move(instance));
  } else {
    ++stats_.trivial;
    retire(std::move(instance), v, time);
  }
}

void PropertyChecker::finish() {
  for (auto& instance : active_) {
    const Verdict v = instance->finish();
    retire(std::move(instance), v, /*time=*/0);
  }
  active_.clear();
  publish();
}

void PropertyChecker::set_coverage(support::CoverageTable::Row* row) {
  coverage_ = row;
  publish();
}

void PropertyChecker::publish() {
  latency_ns_.record(0, anchor_latencies_);
  anchor_latencies_ = 0;
  if (coverage_ == nullptr) return;
  // Single-writer mirror: this checker is the only writer of its row, so
  // relaxed stores of the current totals are enough for a reader to observe
  // a recent, internally-plausible state (exact after finish()).
  auto& row = *coverage_;
  const auto relaxed = std::memory_order_relaxed;
  row.activations.store(stats_.activations, relaxed);
  row.holds.store(stats_.holds, relaxed);
  row.failures.store(stats_.failures, relaxed);
  row.uncompleted.store(stats_.uncompleted, relaxed);
  row.trivial.store(stats_.trivial, relaxed);
  row.real_passes.store(stats_.real_passes, relaxed);
  row.vacuous_passes.store(stats_.vacuous_passes, relaxed);
  row.node_visits.store(stats_.node_visits, relaxed);
}

}  // namespace repro::checker
