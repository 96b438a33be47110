#include "checker/checker.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace repro::checker {
namespace {

psl::ExprPtr strip_always(psl::ExprPtr e) {
  while (e->kind == psl::ExprKind::kAlways) e = e->lhs;
  return e;
}

bool has_next_e(const psl::ExprPtr& e) {
  if (e == nullptr) return false;
  return e->kind == psl::ExprKind::kNextEps || has_next_e(e->lhs) ||
         has_next_e(e->rhs);
}

}  // namespace

LifetimeInfo compute_lifetime(const psl::ExprPtr& formula,
                              psl::TimeNs clock_period_ns) {
  assert(formula);
  assert(clock_period_ns >= 1);
  LifetimeInfo info;
  const psl::ExprPtr body = strip_always(formula);
  // A formula is time-scheduled iff it has no fixpoint operators below the
  // stripped always chain.
  std::vector<const psl::Expr*> work{body.get()};
  while (!work.empty()) {
    const psl::Expr* e = work.back();
    work.pop_back();
    switch (e->kind) {
      case psl::ExprKind::kUntil:
      case psl::ExprKind::kRelease:
      case psl::ExprKind::kAlways:
      case psl::ExprKind::kEventually:
      case psl::ExprKind::kAbort:
        info.bounded = false;
        break;
      default:
        break;
    }
    if (e->lhs) work.push_back(e->lhs.get());
    if (e->rhs) work.push_back(e->rhs.get());
  }
  info.max_eps = psl::max_eps(body);
  if (info.bounded) {
    // Ceiling division: a window that is not a multiple of the clock period
    // still needs an instant for its final partial period.
    info.instants = static_cast<size_t>(
        (info.max_eps + clock_period_ns - 1) / clock_period_ns);
  }
  return info;
}

PropertyChecker::PropertyChecker(std::string name, psl::ExprPtr formula,
                                 psl::ExprPtr guard, CheckerOptions options,
                                 std::vector<uint64_t> latency_bounds,
                                 bool abstracted)
    : name_(std::move(name)),
      body_(std::move(formula)),
      guard_(std::move(guard)),
      options_(options),
      abstracted_(abstracted),
      latency_ns_(std::move(latency_bounds)) {
  assert(body_);
  while (body_->kind == psl::ExprKind::kAlways) {
    repeating_ = true;
    body_ = body_->lhs;
  }
  // Only the TLM runtime has an evaluation table: an unabstracted formula
  // steps every pending instance at every event, as an RTL checker does at
  // every edge, even where it contains a next_e.
  schedulable_ = abstracted_ && has_next_e(body_);
  antecedent_ = derive_antecedent(body_);
  node_cost_ = psl::node_count(body_);
}

PropertyChecker::PropertyChecker(std::string name, psl::ExprPtr formula,
                                 psl::ExprPtr guard, CheckerOptions options)
    // Sim-time latency from ns-scale (RTL edge-to-edge) up to ~8M ns.
    : PropertyChecker(std::move(name), std::move(formula), std::move(guard),
                      options, support::exponential_bounds(1, 24),
                      /*abstracted=*/false) {
  build_program();
}

PropertyChecker::PropertyChecker(const psl::TlmProperty& property,
                                 psl::TimeNs clock_period_ns,
                                 CheckerOptions options)
    // Sub-period to ~2k-period sim-time latencies; DES56's longest next_e
    // window (170 ns at a 10 ns clock) sits mid-range.
    : PropertyChecker(property.name, property.formula, property.context.guard,
                      options,
                      support::exponential_bounds(clock_period_ns, 12),
                      /*abstracted=*/true) {
  assert(clock_period_ns >= 1);
  witness_depth_ = 8;
  // Sec. IV point 1: the pool is sized by the lifetime of an instance, i.e.
  // the number of instants in (t_fire, t_end] at which a transaction can
  // occur (see compute_lifetime). A property with until/release obligations
  // has no static bound; the pool then grows on demand.
  const LifetimeInfo info = compute_lifetime(body_, clock_period_ns);
  if (info.bounded) lifetime_ = info.instants;
  build_program();
}

void PropertyChecker::build_program() {
  // Compile once; every instance in the pool shares the immutable program.
  // Programs the lockstep kernel accepts (frame-free temporal bodies without
  // next_e: dense RTL and TLM-CA bodies) additionally share a lockstep
  // layout: instances then occupy lanes of 64-wide blocks and each event
  // advances the pending cohort in one pass.
  program_ = Program::compile(body_);
  if (ProgramBatch::supported(*program_)) {
    batch_layout_ = std::make_shared<const ProgramBatch>(program_);
  }
  free_pool_.reserve(lifetime_);
  for (size_t i = 0; i < lifetime_; ++i) free_pool_.push_back(make_instance());
  stats_.pool_capacity = lifetime_;
}

void PropertyChecker::attach(RecordPass& pass) {
  assert(pass_ == nullptr && stats_.events == 0);
  pass_ = &pass;
  if (pass.witnesses().depth() < witness_depth_) {
    pass.witnesses().set_depth(witness_depth_);
  }
  activation_.reset(pass.atoms(), name_, *program_, body_, guard_,
                    antecedent_);
}

void PropertyChecker::count_verdict(Verdict v, bool exercised,
                                    psl::TimeNs time) {
  switch (v) {
    case Verdict::kTrue:
      ++stats_.holds;
      // The vacuity split: a hold whose antecedent never fired at the
      // firing event proves nothing about the consequent.
      if (exercised) {
        ++stats_.real_passes;
      } else {
        ++stats_.vacuous_passes;
      }
      break;
    case Verdict::kFalse:
      ++stats_.failures;
      log_failure(time);
      break;
    case Verdict::kPending:
      ++stats_.uncompleted;
      break;
  }
}

void PropertyChecker::log_failure(psl::TimeNs time) {
  if (failure_log_.size() < options_.failure_log_cap) {
    failure_log_.push_back(
        {time, name_, pass_->witnesses().snapshot(witness_depth_)});
  }
  if (trace_ != nullptr) {
    trace_->instant(trace_tid_, "fail:" + name_, {{"sim_time_ns", time}});
  }
}

void PropertyChecker::retire(std::unique_ptr<Instance> instance, Verdict v,
                             psl::TimeNs time) {
  const psl::TimeNs activated = instance->activated_at();
  latency_ns_.record(time >= activated ? time - activated : 0);
  count_verdict(v, instance->exercised(), time);
  // Sec. IV point 3: reset the instance so it can serve a later session.
  instance->reset();
  free_pool_.push_back(std::move(instance));
}

void PropertyChecker::place(std::unique_ptr<Instance> instance) {
  if (schedulable_) {
    if (auto deadline = instance->next_deadline(deadline_scratch_)) {
      // Behind every entry due at or before *deadline: multimap tie order.
      const auto at = std::upper_bound(
          table_.begin() + static_cast<std::ptrdiff_t>(table_head_),
          table_.end(), *deadline, [](psl::TimeNs t, const Scheduled& entry) {
            return t < entry.deadline;
          });
      table_.insert(at, {*deadline, std::move(instance)});
      stats_.table_peak = std::max(stats_.table_peak, table_live());
      return;
    }
  }
  dense_.push_back(std::move(instance));
}

void PropertyChecker::set_witness_depth(size_t depth) {
  witness_depth_ = depth;
  if (pass_ == nullptr) return;  // attach() sizes the ring
  WitnessRing& ring = pass_->witnesses();
  // A shared ring serves the deepest of its checkers.
  if (pass_ == own_pass_.get() || ring.depth() < depth) ring.set_depth(depth);
}

std::unique_ptr<Instance> PropertyChecker::acquire() {
  if (!free_pool_.empty()) {
    auto instance = std::move(free_pool_.back());
    free_pool_.pop_back();
    ++stats_.reuses;
    return instance;
  }
  ++stats_.pool_capacity;
  return make_instance();
}

std::unique_ptr<Instance> PropertyChecker::make_instance() {
  if (batch_layout_ != nullptr) {
    for (const auto& block : blocks_) {
      if (block->has_free_lane()) {
        return std::make_unique<Instance>(block, block->allocate_lane());
      }
    }
    blocks_.push_back(std::make_shared<BatchState>(batch_layout_));
    ++stats_.lane_blocks;
    return std::make_unique<Instance>(blocks_.back(),
                                      blocks_.back()->allocate_lane());
  }
  return std::make_unique<Instance>(program_);
}

// Lockstep pre-pass: group the dense instances this event is about to step
// by lane block and advance each block once through the 64-wide kernel. A
// lane-backed program has no next_e, so none of its instances is ever on
// the evaluation table. The dense loop in evaluate() then consumes the
// primed verdicts lane by lane, so stats ordering, failure logs and the
// free-pool LIFO are identical to the scalar form by construction; the
// instance anchored at this event self-primes its own lane.
void PropertyChecker::prime_cohorts(const Event& ev) {
  prime_masks_.clear();
  const auto add = [&](const Instance& instance) {
    BatchState* block = instance.batch_block();
    if (block == nullptr) return;
    const uint64_t bit = uint64_t{1} << instance.batch_lane();
    for (auto& [b, mask] : prime_masks_) {
      if (b == block) {
        mask |= bit;
        return;
      }
    }
    prime_masks_.emplace_back(block, bit);
  };
  for (const auto& instance : dense_) add(*instance);
  for (auto& [block, mask] : prime_masks_) {
    const int lanes = std::popcount(mask);
    const uint64_t t0 =
        trace_ != nullptr && lanes > 1 ? trace_->now_ns() : 0;
    block->prime(ev, mask);
    if (lanes > 1) {
      ++stats_.vector_batches;
      stats_.vector_lanes_filled += static_cast<uint64_t>(lanes);
      if (trace_ != nullptr) {
        const uint64_t t1 = trace_->now_ns();
        trace_->span(trace_tid_, "vector_batch", t0, t1 > t0 ? t1 - t0 : 0,
                     {{"lanes", static_cast<uint64_t>(lanes)}});
      }
    }
  }
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
  if (activation_.failed()) return;
  ++stats_.events;
  last_time_ = time;
  const bool activates = repeating_ || !started_;
  const bool due = !table_.empty() && table_.front().deadline <= time;
  const bool steps = due || !dense_.empty();
  if (!activates && !steps) return;  // nothing reads it
  const uint8_t* bits = activation_.bits();
  if (bits == nullptr && activation_.failed()) return;
  // The program's atom bits are gathered only when an instance steps.
  Event ev{time, &values, nullptr};
  if (steps) {
    ev.atoms = activation_.program_bits(bits);
    if (!blocks_.empty()) prime_cohorts(ev);
  }

  // Sec. IV point 2: evaluate every scheduled instance whose deadline is at
  // or before `time`. An instance due strictly earlier missed its evaluation
  // point; feeding it this event lets the next_e nodes resolve it (to kFalse
  // unless the formula absorbs the miss).
  if (due) {
    while (table_head_ < table_.size() &&
           table_[table_head_].deadline <= time) {
      Scheduled& entry = table_[table_head_++];
      if (entry.deadline < time) ++stats_.missed_deadlines;
      auto instance = std::move(entry.instance);
      ++stats_.steps;
      stats_.node_visits += node_cost_;
      const Verdict v = instance->step(ev);
      if (v == Verdict::kPending) {
        place(std::move(instance));
      } else {
        retire(std::move(instance), v, time);
      }
    }
    table_.erase(table_.begin(),
                 table_.begin() + static_cast<std::ptrdiff_t>(table_head_));
    table_head_ = 0;
  }

  // Dense instances observe every event.
  size_t keep = 0;
  for (size_t i = 0; i < dense_.size(); ++i) {
    ++stats_.steps;
    stats_.node_visits += node_cost_;
    const Verdict v = dense_[i]->step(ev);
    if (v == Verdict::kPending) {
      dense_[keep++] = std::move(dense_[i]);
    } else {
      retire(std::move(dense_[i]), v, time);
    }
  }
  dense_.resize(keep);

  // Sec. IV point 4: activate a new session at each event matching the
  // context (for always-properties), or once (otherwise).
  if (!activates || !activation_.guard(bits, values)) return;
  started_ = true;
  const bool exercised = activation_.exercised(bits, values);
  ++stats_.activations;
  ++stats_.steps;
  stats_.node_visits += node_cost_;
  if (!free_pool_.empty()) {
    // A session decided at its firing event would take the top pooled
    // instance (a reuse), step it once, retire it as a trivial verdict at
    // latency 0 and put it back on top. Apply exactly that arithmetic
    // without moving the instance. With an empty pool the full path below
    // allocates, keeping pool_capacity and the lane allocation order exact.
    const Verdict v = activation_.anchor_verdict(exercised, bits, values);
    if (v != Verdict::kPending) {
      ++stats_.reuses;
      ++stats_.trivial;
      ++anchor_latencies_;
      count_verdict(v, exercised, time);
      return;
    }
  }

  if (!steps) ev.atoms = activation_.program_bits(bits);
  auto instance = acquire();
  instance->set_activated_at(time);
  instance->set_exercised(exercised);
  const Verdict v = instance->step(ev);
  if (v == Verdict::kPending) {
    // Register the instance with its required evaluation points; trivially
    // resolved instances (e.g. antecedent false at firing) never get here.
    place(std::move(instance));
  } else {
    ++stats_.trivial;
    retire(std::move(instance), v, time);
  }
}

void PropertyChecker::finish() {
  // End-of-trace retirements are attributed to the last observed event
  // time: a dense instance failed *by* then, and a scheduled instance's
  // deadline may lie beyond the end of the trace.
  for (Scheduled& entry : table_) {
    const Verdict v = entry.instance->finish();
    retire(std::move(entry.instance), v, std::min(entry.deadline, last_time_));
  }
  table_.clear();
  for (auto& instance : dense_) {
    const Verdict v = instance->finish();
    retire(std::move(instance), v, last_time_);
  }
  dense_.clear();
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
  row.missed_deadlines.store(stats_.missed_deadlines, relaxed);
  row.node_visits.store(stats_.node_visits, relaxed);
}

}  // namespace repro::checker
