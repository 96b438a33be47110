#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "sim/kernel.h"
#include "sim/signal.h"
#include "sim/trace.h"
#include "support/rng.h"

namespace repro::sim {
namespace {

TEST(Kernel, RunsTimedEventsInOrder) {
  Kernel kernel;
  std::vector<int> order;
  kernel.schedule_at(30, [&] { order.push_back(3); });
  kernel.schedule_at(10, [&] { order.push_back(1); });
  kernel.schedule_at(20, [&] { order.push_back(2); });
  kernel.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(kernel.now(), 30u);
}

TEST(Kernel, FifoWithinTimestamp) {
  Kernel kernel;
  std::vector<int> order;
  kernel.schedule_at(10, [&] { order.push_back(1); });
  kernel.schedule_at(10, [&] { order.push_back(2); });
  kernel.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, RunStopsAtLimit) {
  Kernel kernel;
  int hits = 0;
  kernel.schedule_at(10, [&] { ++hits; });
  kernel.schedule_at(20, [&] { ++hits; });
  kernel.schedule_at(30, [&] { ++hits; });
  kernel.run(20);
  EXPECT_EQ(hits, 2);
  kernel.run(100);
  EXPECT_EQ(hits, 3);
}

TEST(Kernel, StopEndsSimulation) {
  Kernel kernel;
  int hits = 0;
  kernel.schedule_at(10, [&] {
    ++hits;
    kernel.stop();
  });
  kernel.schedule_at(20, [&] { ++hits; });
  kernel.run_all();
  EXPECT_EQ(hits, 1);
  kernel.run_all();  // resumes after stop
  EXPECT_EQ(hits, 2);
}

TEST(Kernel, EventsScheduledAtCurrentTimeRunInSameTimestamp) {
  Kernel kernel;
  std::vector<int> order;
  kernel.schedule_at(10, [&] {
    order.push_back(1);
    kernel.schedule_at(10, [&] { order.push_back(2); });
  });
  kernel.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(kernel.now(), 10u);
}

TEST(Signal, WriteCommitsInUpdatePhase) {
  Kernel kernel;
  Signal<int> s(kernel, "s", 0);
  int observed_during_evaluate = -1;
  kernel.schedule_at(5, [&] {
    s.write(42);
    observed_during_evaluate = s.read();  // old value: not yet committed
  });
  kernel.run_all();
  EXPECT_EQ(observed_during_evaluate, 0);
  EXPECT_EQ(s.read(), 42);
}

TEST(Signal, LastWriteInDeltaWins) {
  Kernel kernel;
  Signal<int> s(kernel, "s", 0);
  kernel.schedule_at(5, [&] {
    s.write(1);
    s.write(2);
  });
  kernel.run_all();
  EXPECT_EQ(s.read(), 2);
}

TEST(Signal, WatcherRunsAfterCommit) {
  Kernel kernel;
  Signal<int> s(kernel, "s", 0);
  int seen = -1;
  s.on_change([&] { seen = s.read(); });
  kernel.schedule_at(5, [&] { s.write(9); });
  kernel.run_all();
  EXPECT_EQ(seen, 9);
}

TEST(Signal, NoNotificationOnSameValueWrite) {
  Kernel kernel;
  Signal<int> s(kernel, "s", 7);
  int notifications = 0;
  s.on_change([&] { ++notifications; });
  kernel.schedule_at(5, [&] { s.write(7); });
  kernel.run_all();
  EXPECT_EQ(notifications, 0);
}

TEST(Signal, CascadedWatchersUseDeltas) {
  Kernel kernel;
  Signal<int> a(kernel, "a", 0);
  Signal<int> b(kernel, "b", 0);
  a.on_change([&] { b.write(a.read() + 1); });
  int b_seen = -1;
  b.on_change([&] { b_seen = b.read(); });
  kernel.schedule_at(5, [&] { a.write(10); });
  kernel.run_all();
  EXPECT_EQ(b.read(), 11);
  EXPECT_EQ(b_seen, 11);
  EXPECT_EQ(kernel.now(), 5u);  // all within one timestamp
}

TEST(Clock, GeneratesPeriodicRisingEdges) {
  Kernel kernel;
  Clock clock(kernel, "clk", 10, 0);
  std::vector<Time> edges;
  clock.on_posedge([&] { edges.push_back(kernel.now()); });
  kernel.run(35);
  EXPECT_EQ(edges, (std::vector<Time>{0, 10, 20, 30}));
  EXPECT_EQ(clock.cycles(), 4u);
}

TEST(Clock, NegedgeFallsMidPeriod) {
  Kernel kernel;
  Clock clock(kernel, "clk", 10, 0);
  std::vector<Time> falls;
  clock.on_negedge([&] { falls.push_back(kernel.now()); });
  kernel.run(25);
  EXPECT_EQ(falls, (std::vector<Time>{5, 15, 25}));
}

TEST(Clock, PosedgeCallbacksShareTheEvaluatePhase) {
  // A signal written by the first posedge callback must not be visible to
  // the second one in the same edge (register semantics).
  Kernel kernel;
  Signal<int> s(kernel, "s", 0);
  Clock clock(kernel, "clk", 10, 0);
  int second_saw = -1;
  clock.on_posedge([&] { s.write(static_cast<int>(kernel.now())); });
  clock.on_posedge([&] { second_saw = s.read(); });
  kernel.run(10);  // edges at 0 and 10
  EXPECT_EQ(second_saw, 0);  // at edge 10, sees value committed at edge 0
}

TEST(ChangeLog, RecordsCommittedChangesWithTime) {
  Kernel kernel;
  Signal<uint64_t> s(kernel, "data", 1);
  ChangeLog log(kernel);
  log.watch(s);
  kernel.schedule_at(10, [&] { s.write(2); });
  kernel.schedule_at(20, [&] { s.write(2); });  // no change
  kernel.schedule_at(30, [&] { s.write(3); });
  kernel.run_all();
  const auto changes = log.for_signal("data");
  ASSERT_EQ(changes.size(), 3u);
  EXPECT_EQ(changes[0], (Change{0, "data", 1}));
  EXPECT_EQ(changes[1], (Change{10, "data", 2}));
  EXPECT_EQ(changes[2], (Change{30, "data", 3}));
}

TEST(ChangeLog, ExplicitRecordCollapsesRepeats) {
  Kernel kernel;
  ChangeLog log(kernel);
  log.record(5, "x", 1);
  log.record(10, "x", 1);  // collapsed
  log.record(15, "x", 0);
  EXPECT_EQ(log.for_signal("x").size(), 2u);
}

TEST(ChangeLog, DumpIsHumanReadable) {
  Kernel kernel;
  ChangeLog log(kernel);
  log.record(5, "x", 1);
  std::ostringstream os;
  log.dump(os);
  EXPECT_EQ(os.str(), "5 ns  x = 1\n");
}

TEST(Kernel, CountsEventsAndDeltas) {
  Kernel kernel;
  Signal<int> s(kernel, "s", 0);
  s.on_change([] {});
  kernel.schedule_at(5, [&] { s.write(1); });
  kernel.run_all();
  EXPECT_GE(kernel.events_executed(), 2u);  // writer + watcher
  EXPECT_GE(kernel.delta_cycles(), 2u);
}

// ---- Kernel scheduling contract ----------------------------------------------

// One executed callback: which one, at what time, in which delta cycle.
struct Fired {
  int id;
  Time time;
  uint64_t delta;
  bool operator==(const Fired& o) const {
    return id == o.id && time == o.time && delta == o.delta;
  }
};

// What callback `id` schedules when it runs, drawn from a generator seeded by
// (seed, id) so the kernel and the model derive the same children as long as
// they run the callbacks in the same order. Each entry is a delay in ns, or
// kDelta for schedule_delta. Delay 0 is a same-time schedule_at from inside a
// callback.
constexpr int kDelta = -1;
constexpr int kMaxIds = 1500;

std::vector<int> children_of(uint64_t seed, int id) {
  std::vector<int> out;
  if (id >= kMaxIds) return out;
  Rng rng(seed * 1000003 + static_cast<uint64_t>(id));
  const uint64_t n = rng.below(4);
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.chance(1, 3)) {
      out.push_back(kDelta);
    } else {
      out.push_back(static_cast<int>(rng.below(4) * 10));
    }
  }
  return out;
}

// Reference model: the timed queue is a plain list kept in insertion order
// and stable-sorted by time before each timestamp, so ties run FIFO.
struct ModelRun {
  std::vector<Fired> fired;
  uint64_t deltas = 0;
};

ModelRun run_model(uint64_t seed, const std::vector<Time>& initial) {
  struct Timed {
    Time time;
    int id;
  };
  ModelRun run;
  std::vector<Timed> timed;
  int next_id = 0;
  for (Time t : initial) timed.push_back({t, next_id++});
  while (!timed.empty()) {
    std::stable_sort(timed.begin(), timed.end(),
                     [](const Timed& a, const Timed& b) { return a.time < b.time; });
    const Time now = timed.front().time;
    std::vector<int> runnable;
    size_t k = 0;
    while (k < timed.size() && timed[k].time == now) runnable.push_back(timed[k++].id);
    timed.erase(timed.begin(), timed.begin() + static_cast<ptrdiff_t>(k));
    while (!runnable.empty()) {
      ++run.deltas;
      std::vector<int> next;
      for (int id : runnable) {
        run.fired.push_back({id, now, run.deltas});
        for (int c : children_of(seed, id)) {
          if (c == kDelta) {
            next.push_back(next_id++);
          } else {
            timed.push_back({now + static_cast<Time>(c), next_id++});
          }
        }
      }
      runnable = std::move(next);
    }
  }
  return run;
}

struct KernelRun {
  Kernel kernel;
  uint64_t seed = 0;
  int next_id = 0;
  std::vector<Fired> fired;

  std::function<void()> callback(int id) {
    return [this, id] {
      fired.push_back({id, kernel.now(), kernel.delta_cycles()});
      for (int c : children_of(seed, id)) {
        if (c == kDelta) {
          kernel.schedule_delta(callback(next_id++));
        } else {
          kernel.schedule_at(kernel.now() + static_cast<Time>(c),
                             callback(next_id++));
        }
      }
    };
  }
};

TEST(Kernel, RandomScheduleMatchesStableSortModel) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<Time> initial(rng.range(1, 12));
    for (Time& t : initial) t = rng.below(8) * 10;  // unordered, with ties
    const ModelRun want = run_model(seed, initial);

    KernelRun run;
    run.seed = seed;
    for (Time t : initial) run.kernel.schedule_at(t, run.callback(run.next_id++));
    run.kernel.run_all();

    ASSERT_EQ(run.fired.size(), want.fired.size());
    for (size_t i = 0; i < want.fired.size(); ++i) {
      ASSERT_EQ(run.fired[i], want.fired[i]) << "callback #" << i;
    }
    EXPECT_EQ(run.kernel.events_executed(), want.fired.size());
    EXPECT_EQ(run.kernel.delta_cycles(), want.deltas);
  }
}

// stop() inside a delta drops the rest of that evaluate batch for good. The
// signal write and the delta scheduled before the stop stay queued: they take
// effect in the first delta cycles of the next timestamp that runs.
TEST(Kernel, StopMidDeltaDropsTheBatchAndDefersWritesAndDeltas) {
  Kernel kernel;
  Signal<int> s(kernel, "s", 0);
  std::vector<std::string> log;
  s.on_change([&] { log.push_back("watch s=" + std::to_string(s.read())); });
  kernel.schedule_at(10, [&] {
    log.push_back("a");
    s.write(1);
    kernel.schedule_delta([&] { log.push_back("d"); });
  });
  kernel.schedule_at(10, [&] {
    log.push_back("b");
    kernel.stop();
  });
  kernel.schedule_at(10, [&] { log.push_back("c"); });
  kernel.run_all();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(s.read(), 0);  // the update phase did not run
  EXPECT_EQ(kernel.now(), 10u);
  EXPECT_EQ(kernel.events_executed(), 2u);
  EXPECT_EQ(kernel.delta_cycles(), 1u);

  // Nothing is timed: resuming runs nothing, the deferred work waits.
  kernel.run_all();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(s.read(), 0);

  kernel.schedule_at(20, [&] { log.push_back("e s=" + std::to_string(s.read())); });
  kernel.run_all();
  // "e" runs first and still sees the old value; the pending write commits
  // in that delta's update phase; the deferred delta "d" runs before the
  // watcher it woke. "c" never runs.
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "e s=0", "d", "watch s=1"}));
  EXPECT_EQ(s.read(), 1);
  EXPECT_EQ(kernel.now(), 20u);
  EXPECT_EQ(kernel.events_executed(), 5u);
  EXPECT_EQ(kernel.delta_cycles(), 3u);
}

// A pending stop also makes step() refuse to advance, without clearing it.
TEST(Kernel, StepRefusesWhileAStopIsPending) {
  Kernel kernel;
  int hits = 0;
  kernel.schedule_at(10, [&] {
    ++hits;
    kernel.stop();
  });
  kernel.schedule_at(20, [&] { ++hits; });
  EXPECT_TRUE(kernel.step(100));
  EXPECT_FALSE(kernel.step(100));
  EXPECT_FALSE(kernel.step(100));
  EXPECT_EQ(hits, 1);
  kernel.run(100);  // run() clears the stop
  EXPECT_EQ(hits, 2);
  EXPECT_FALSE(kernel.step(100));  // queue empty
}

// Exact totals over a clocked register chain: every clock edge is one timed
// event; a committed change wakes its watchers in the next delta.
TEST(Kernel, EventAndDeltaTotalsOverAClockedChain) {
  Kernel kernel;
  Clock clock(kernel, "clk", 10, 0);
  Signal<int> a(kernel, "a", 0);
  Signal<int> b(kernel, "b", 0);
  clock.on_posedge([&] { a.write(static_cast<int>(clock.cycles())); });
  a.on_change([&] { b.write(a.read() % 2); });
  b.on_change([] {});
  kernel.run(95);  // rising edges at 0, 10, ..., 90
  ASSERT_EQ(clock.cycles(), 10u);
  // Each edge: delta 1 runs the edge (a changes), delta 2 runs a's watcher
  // (b flips from the previous edge's parity), delta 3 runs b's watcher.
  EXPECT_EQ(kernel.events_executed(), 30u);
  EXPECT_EQ(kernel.delta_cycles(), 30u);
  EXPECT_EQ(b.read(), 0);
}

}  // namespace
}  // namespace repro::sim
