// End-to-end integration tests: the dynamic-ABV analogue of Theorems III.1
// and III.2, run through the full simulation harness at every abstraction
// level, plus the negative results (naive reuse and the paper-exact push
// mode spuriously failing at TLM-AT) and bug detection.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "models/properties.h"
#include "models/testbench.h"
#include "rewrite/methodology.h"

namespace repro::models {
namespace {

RunResult run(Design design, Level level, size_t checkers, size_t workload,
              rewrite::PushMode mode = rewrite::PushMode::kOpaqueFixpoints) {
  RunConfig config;
  config.design = design;
  config.level = level;
  config.checkers = checkers;
  config.workload = workload;
  config.abstraction.push_mode = mode;
  return run_simulation(config);
}

// ---- Suites sanity -----------------------------------------------------------

TEST(Suites, HavePaperCardinalities) {
  EXPECT_EQ(des56_suite().properties.size(), 9u);        // Sec. V: 9 properties
  EXPECT_EQ(colorconv_suite().properties.size(), 12u);   // Sec. V: 12 properties
}

TEST(Suites, NoPropertyIsDeletedByAbstraction) {
  // Sec. V: "All properties were preserved during the abstraction process."
  for (const PropertySuite& suite : {des56_suite(), colorconv_suite()}) {
    rewrite::AbstractionOptions options;
    options.clock_period_ns = suite.clock_period_ns;
    options.abstracted_signals = suite.abstracted_signals;
    for (const auto& outcome : rewrite::abstract_suite(suite.properties, options)) {
      EXPECT_FALSE(outcome.deleted());
    }
  }
}

// ---- Theorem III.2, dynamically ---------------------------------------------------

class FullFlow : public ::testing::TestWithParam<Design> {};

TEST_P(FullFlow, PropertiesHoldAtRtl) {
  const size_t n = GetParam() == Design::kDes56 ? 9 : 12;
  const RunResult r = run(GetParam(), Level::kRtl, n, 120);
  EXPECT_TRUE(r.functional_ok) << r.mismatches << " mismatches";
  EXPECT_TRUE(r.properties_ok);
  EXPECT_EQ(r.report.total_failures(), 0u);
}

TEST_P(FullFlow, UnabstractedPropertiesHoldAtTlmCa) {
  // Theorem III.1 territory: per-cycle transactions stand for clock edges.
  const size_t n = GetParam() == Design::kDes56 ? 9 : 12;
  const RunResult r = run(GetParam(), Level::kTlmCa, n, 120);
  EXPECT_TRUE(r.functional_ok);
  EXPECT_TRUE(r.properties_ok);
}

TEST_P(FullFlow, AbstractedPropertiesHoldAtTlmAt) {
  // Theorem III.2: every property that holds at RTL holds, after
  // Methodology III.1, on the timing-equivalent TLM-AT model.
  const size_t n = GetParam() == Design::kDes56 ? 9 : 12;
  const RunResult r = run(GetParam(), Level::kTlmAt, n, 120);
  EXPECT_TRUE(r.functional_ok);
  EXPECT_TRUE(r.properties_ok);
  EXPECT_EQ(r.properties_deleted, 0u);
  // Non-vacuity: every property must actually have been activated.
  for (const auto& p : r.report.properties()) {
    EXPECT_GT(p.activations, 0u) << p.name;
  }
}

TEST_P(FullFlow, CheckersDoNotPerturbSimulation) {
  // The instrumented run must produce the same functional results and the
  // same simulated end time as the bare run.
  const RunResult bare = run(GetParam(), Level::kTlmAt, 0, 80);
  const size_t n = GetParam() == Design::kDes56 ? 9 : 12;
  const RunResult checked = run(GetParam(), Level::kTlmAt, n, 80);
  EXPECT_EQ(bare.sim_end_ns, checked.sim_end_ns);
  EXPECT_EQ(bare.ops_completed, checked.ops_completed);
  EXPECT_TRUE(checked.functional_ok);
}

INSTANTIATE_TEST_SUITE_P(BothDesigns, FullFlow,
                         ::testing::Values(Design::kDes56, Design::kColorConv),
                         [](const ::testing::TestParamInfo<Design>& info) {
                           return std::string(to_string(info.param));
                         });

// ---- Determinism -------------------------------------------------------------------

TEST(Determinism, SameSeedSameOutcome) {
  const RunResult a = run(Design::kDes56, Level::kRtl, 9, 60);
  const RunResult b = run(Design::kDes56, Level::kRtl, 9, 60);
  EXPECT_EQ(a.sim_end_ns, b.sim_end_ns);
  EXPECT_EQ(a.kernel_events, b.kernel_events);
  EXPECT_EQ(a.report.total_activations(), b.report.total_activations());
}

TEST(Determinism, DifferentSeedDifferentSchedule) {
  RunConfig config;
  config.design = Design::kDes56;
  config.level = Level::kRtl;
  config.workload = 60;
  const RunResult a = run_simulation(config);
  config.seed = 4711;
  const RunResult b = run_simulation(config);
  EXPECT_NE(a.sim_end_ns, b.sim_end_ns);
  EXPECT_TRUE(a.functional_ok);
  EXPECT_TRUE(b.functional_ok);
}

// ---- Negative results: the ablations of Sec. III-A ------------------------------------

TEST(Ablation, NaiveEventCountingFailsSpuriouslyAtTlmAt) {
  // Reusing unabstracted next[n] properties at TLM-AT counts transactions
  // instead of cycles: p7 (next[17](rdy)) must fail on a CORRECT model.
  RunConfig config;
  config.design = Design::kDes56;
  config.level = Level::kTlmAt;
  config.workload = 60;
  config.property_indices = {6};  // p7
  config.abstraction.at_replay_unabstracted = true;
  const RunResult r = run_simulation(config);
  EXPECT_TRUE(r.functional_ok);      // the model is correct...
  EXPECT_FALSE(r.properties_ok);     // ...yet the naive checker fails
  EXPECT_GT(r.report.total_failures(), 0u);
}

TEST(Ablation, PaperPushModeFailsOnUntilUnderNextAtTlmAt) {
  // Fig. 3's q2 shape: distributing next into the until produces
  // per-position next_e deadlines that no sparse AT stream can satisfy.
  const RunResult paper =
      run(Design::kDes56, Level::kTlmAt, 2, 60,
          rewrite::PushMode::kDistributeThroughFixpoints);  // p1, p2
  EXPECT_TRUE(paper.functional_ok);
  EXPECT_FALSE(paper.properties_ok);

  // The opaque-fixpoint mode keeps the same two properties sound.
  const RunResult sound = run(Design::kDes56, Level::kTlmAt, 2, 60);
  EXPECT_TRUE(sound.properties_ok);
}

TEST(Ablation, AbstractedCheckersStillHoldAtTlmCa) {
  // Sanity for the push-mode comparison: at TLM-CA every grid instant has a
  // transaction, so even the paper-exact q2 deadlines are all observable.
  const auto suite = des56_suite();
  rewrite::AbstractionOptions options;
  options.clock_period_ns = suite.clock_period_ns;
  options.push_mode = rewrite::PushMode::kDistributeThroughFixpoints;
  const auto outcome = rewrite::abstract_property(des56_p2_paper(), options);
  ASSERT_FALSE(outcome.deleted());
  EXPECT_EQ(psl::to_string(outcome.property->formula),
            "always !ds || (next_e[1,10](!ds) until next_e[2,20](rdy))");
}

// ---- Workload scaling ----------------------------------------------------------------

TEST(Scaling, TransactionCountsMatchProtocol) {
  const RunResult des = run(Design::kDes56, Level::kTlmAt, 9, 50);
  // 4 timing points per operation (Sec. IV structure).
  EXPECT_EQ(des.transactions, 50u * 4u);

  const RunResult ca = run(Design::kDes56, Level::kTlmCa, 0, 50);
  // One transaction per cycle: at least 18 cycles per op.
  EXPECT_GT(ca.transactions, 50u * 18u);
}

// ---- Golden run scalars ------------------------------------------------------------

// The scalar outcome of every (design, level) cell at 0 and all checkers
// (DES56 100 ops, ColorConv 150 pixels, seed 42). Kernel event and delta
// counts pin the scheduling each level's bench and ingest path produce. With
// checkers the TLM recorder is active, so the kernel is stepped through the
// live record source and the TLM-AT targets emit their extra timing-point
// records: both counts differ from the bare run.
struct GoldenRun {
  Design design;
  Level level;
  size_t checkers;
  sim::Time sim_end_ns;
  uint64_t kernel_events;
  uint64_t delta_cycles;
  uint64_t transactions;
  size_t ops_completed;
  size_t mismatches;
  size_t properties_deleted;
  bool functional_ok;
};

constexpr GoldenRun kGoldenRuns[] = {
    {Design::kDes56, Level::kRtl, 0, 19635, 3928, 3928, 0, 100, 0, 0, true},
    {Design::kDes56, Level::kRtl, 9, 19635, 9820, 9820, 0, 100, 0, 0, true},
    {Design::kDes56, Level::kTlmCa, 0, 19630, 1964, 1964, 1963, 100, 0, 0, true},
    {Design::kDes56, Level::kTlmCa, 9, 19630, 3927, 3927, 1963, 100, 0, 0, true},
    {Design::kDes56, Level::kTlmAt, 0, 19630, 101, 101, 200, 100, 0, 0, true},
    {Design::kDes56, Level::kTlmAt, 9, 19630, 501, 478, 400, 100, 0, 0, true},
    {Design::kColorConv, Level::kRtl, 0, 2435, 488, 488, 0, 150, 0, 0, true},
    {Design::kColorConv, Level::kRtl, 12, 2435, 1220, 1220, 0, 150, 0, 0, true},
    {Design::kColorConv, Level::kTlmCa, 0, 2430, 244, 244, 243, 150, 0, 0, true},
    {Design::kColorConv, Level::kTlmCa, 12, 2430, 487, 487, 243, 150, 0, 0, true},
    {Design::kColorConv, Level::kTlmAt, 0, 2430, 8, 8, 300, 150, 0, 0, true},
    {Design::kColorConv, Level::kTlmAt, 12, 2430, 228, 221, 314, 150, 0, 0, true},
};

TEST(GoldenRunResult, EveryCellAtZeroAndAllCheckers) {
  for (const GoldenRun& g : kGoldenRuns) {
    const size_t workload = g.design == Design::kDes56 ? 100 : 150;
    const RunResult r = run(g.design, g.level, g.checkers, workload);
    SCOPED_TRACE(std::string(to_string(g.design)) + " " + to_string(g.level) +
                 " checkers=" + std::to_string(g.checkers));
    EXPECT_EQ(r.sim_end_ns, g.sim_end_ns);
    EXPECT_EQ(r.kernel_events, g.kernel_events);
    EXPECT_EQ(r.delta_cycles, g.delta_cycles);
    EXPECT_EQ(r.transactions, g.transactions);
    EXPECT_EQ(r.ops_completed, g.ops_completed);
    EXPECT_EQ(r.mismatches, g.mismatches);
    EXPECT_EQ(r.properties_deleted, g.properties_deleted);
    EXPECT_EQ(r.functional_ok, g.functional_ok);
    EXPECT_TRUE(r.ingest_error.empty()) << r.ingest_error;
  }
}

// ---- Paper shape on deterministic counters --------------------------------------

// Table I's shape, on counters rather than wall time: checking the
// abstracted properties at TLM-AT costs fewer checker node visits than
// checking the original properties per clock cycle at TLM-CA or at RTL.
// node_visits = steps x formula size, identical for any host and any jobs.
uint64_t summed_node_visits(Design design, Level level, size_t workload) {
  const size_t checkers = design == Design::kDes56 ? 9 : 12;
  const RunResult r = run(design, level, checkers, workload);
  EXPECT_TRUE(r.properties_ok);
  uint64_t visits = 0;
  for (const abv::PropertyReport& row : r.report.properties()) {
    visits += row.node_visits;
  }
  return visits;
}

TEST(PaperShape, TlmAtVisitsFewerNodesThanTlmCaAndRtl) {
  for (const Design design : {Design::kDes56, Design::kColorConv}) {
    const size_t workload = design == Design::kDes56 ? 100 : 150;
    const uint64_t at = summed_node_visits(design, Level::kTlmAt, workload);
    const uint64_t ca = summed_node_visits(design, Level::kTlmCa, workload);
    const uint64_t rtl = summed_node_visits(design, Level::kRtl, workload);
    EXPECT_GT(at, 0u) << to_string(design);
    EXPECT_LT(at, ca) << to_string(design);
    EXPECT_LT(at, rtl) << to_string(design);
  }
}

}  // namespace
}  // namespace repro::models
