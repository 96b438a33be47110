// Golden report digests: the deterministic part of Report::write_json (no
// timing section) for a small cell of each design at each level, with prune
// off, safe and aggressive, pinned as a 64-bit FNV-1a digest. The digests
// hold across evaluation job counts, so a change that alters any counter,
// failure log, witness, latency histogram or derived prune row of these runs
// shows up here, from one commit to the next.
//
// A digest changes only with a deliberate behaviour change; update it then,
// and say in the commit which rows moved and why.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/prune.h"
#include "models/testbench.h"
#include "psl/parser.h"

namespace repro {
namespace {

using analysis::PruneMode;
using models::Design;
using models::Level;

uint64_t fnv1a64(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct Golden {
  Design design;
  Level level;
  uint64_t digest;
  PruneMode prune = PruneMode::kOff;
};

void PrintTo(const Golden& g, std::ostream* os) {
  *os << models::to_string(g.design) << ' ' << models::to_string(g.level);
  if (g.prune != PruneMode::kOff) {
    *os << " prune " << analysis::to_string(g.prune);
  }
}

std::string golden_name(const testing::TestParamInfo<Golden>& info) {
  std::string name = std::string(models::to_string(info.param.design)) + "_" +
                     models::to_string(info.param.level);
  if (info.param.prune != PruneMode::kOff) {
    name += std::string("_prune_") + analysis::to_string(info.param.prune);
  }
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

// Fails at every accepted operation of both designs (rdy rises cycles after
// ds), so every cell logs failures and TLM-AT captures witness rings.
const char kAlwaysFails[] = "gfail: always (!ds || next[1](rdy)) @clk_pos";

models::RunConfig golden_config(const Golden& g, size_t jobs) {
  models::RunConfig config;
  config.design = g.design;
  config.level = g.level;
  const bool des56 = g.design == Design::kDes56;
  config.workload = des56 ? 100 : 150;
  config.seed = 42;
  config.checkers = des56 ? 9 : 12;  // the whole suite
  config.engine.jobs = jobs;
  config.analysis.prune = g.prune;
  auto parsed = psl::parse_rtl_property(kAlwaysFails);
  EXPECT_TRUE(parsed.ok());
  config.extra_properties.push_back(std::move(parsed).take());
  return config;
}

class ReportGolden : public testing::TestWithParam<Golden> {};

TEST_P(ReportGolden, DigestIsPinned) {
  const Golden g = GetParam();
  std::vector<size_t> jobs{1};
  if (g.level != Level::kRtl) jobs.push_back(2);
  for (const size_t j : jobs) {
    SCOPED_TRACE("jobs " + std::to_string(j));
    const models::RunResult r = models::run_simulation(golden_config(g, j));
    ASSERT_TRUE(r.ingest_error.empty()) << r.ingest_error;
    ASSERT_TRUE(r.functional_ok);
    bool failed = false;
    bool witnessed = false;
    for (const auto& row : r.report.properties()) {
      if (row.name != "gfail" || row.failure_log.empty()) continue;
      failed = row.failures > 0;
      witnessed = !row.failure_log.front().witness.empty();
    }
    EXPECT_TRUE(failed) << "the always-failing property did not fail";
    EXPECT_EQ(witnessed, g.level == Level::kTlmAt);
    std::ostringstream json;
    r.report.write_json(json);
    EXPECT_EQ(fnv1a64(json.str()), g.digest)
        << "digest 0x" << std::hex << fnv1a64(json.str()) << std::dec
        << " of:\n"
        << json.str();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, ReportGolden,
    testing::Values(
        Golden{Design::kDes56, Level::kRtl, 0x313e8c30109fbb1bull},
        Golden{Design::kDes56, Level::kTlmCa, 0xc520648a3300f7c3ull},
        Golden{Design::kDes56, Level::kTlmAt, 0x922c4b8725f9bc53ull},
        Golden{Design::kColorConv, Level::kRtl, 0x715d48ac6aeff845ull},
        Golden{Design::kColorConv, Level::kTlmCa, 0x5403fb238d7a1564ull},
        Golden{Design::kColorConv, Level::kTlmAt, 0xddec63dd9a19e8c7ull},
        // Neither suite has a statically contradictory property, so safe and
        // aggressive plans coincide and so do their digests.
        Golden{Design::kDes56, Level::kRtl, 0x182edd42effd19d1ull,
               PruneMode::kSafe},
        Golden{Design::kDes56, Level::kTlmCa, 0xcc1f563142adeaa8ull,
               PruneMode::kSafe},
        Golden{Design::kDes56, Level::kTlmAt, 0xd57fb4e03bf17579ull,
               PruneMode::kSafe},
        Golden{Design::kColorConv, Level::kRtl, 0xd13b6b8fe95a63e2ull,
               PruneMode::kSafe},
        Golden{Design::kColorConv, Level::kTlmCa, 0xc69d96849db0c349ull,
               PruneMode::kSafe},
        Golden{Design::kColorConv, Level::kTlmAt, 0xf4becc44d3907852ull,
               PruneMode::kSafe},
        Golden{Design::kDes56, Level::kRtl, 0x182edd42effd19d1ull,
               PruneMode::kAggressive},
        Golden{Design::kDes56, Level::kTlmCa, 0xcc1f563142adeaa8ull,
               PruneMode::kAggressive},
        Golden{Design::kDes56, Level::kTlmAt, 0xd57fb4e03bf17579ull,
               PruneMode::kAggressive},
        Golden{Design::kColorConv, Level::kRtl, 0xd13b6b8fe95a63e2ull,
               PruneMode::kAggressive},
        Golden{Design::kColorConv, Level::kTlmCa, 0xc69d96849db0c349ull,
               PruneMode::kAggressive},
        Golden{Design::kColorConv, Level::kTlmAt, 0xf4becc44d3907852ull,
               PruneMode::kAggressive}),
    golden_name);

}  // namespace
}  // namespace repro
