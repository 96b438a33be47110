#include <gtest/gtest.h>

#include "des_reference.h"
#include "models/des56/des56_cycle.h"
#include "models/des56/des56_rtl.h"
#include "models/des56/des_core.h"
#include "models/stimulus.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "support/rng.h"

namespace repro::models {
namespace {

// ---- DES core against published vectors -------------------------------------

TEST(DesCore, Fips46TestVector) {
  EXPECT_EQ(des_encrypt(0x0123456789ABCDEFull, 0x133457799BBCDFF1ull),
            0x85E813540F0AB405ull);
  EXPECT_EQ(des_decrypt(0x85E813540F0AB405ull, 0x133457799BBCDFF1ull),
            0x0123456789ABCDEFull);
}

TEST(DesCore, KnownZeroCiphertextVector) {
  EXPECT_EQ(des_encrypt(0x8787878787878787ull, 0x0E329232EA6D0D73ull), 0ull);
}

TEST(DesCore, WeakKeySelfInverse) {
  // With the all-ones weak key, all round keys are equal; encryption is an
  // involution.
  const uint64_t weak = 0xFFFFFFFFFFFFFFFFull;
  const uint64_t block = 0x0123456789ABCDEFull;
  EXPECT_EQ(des_encrypt(des_encrypt(block, weak), weak), block);
}

class DesRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DesRoundTrip, DecryptInvertsEncrypt) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  const uint64_t block = rng.next();
  const uint64_t key = rng.next();
  EXPECT_EQ(des_decrypt(des_encrypt(block, key), key), block);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DesRoundTrip, ::testing::Range(0, 50));

TEST(DesCore, StagedApiMatchesOneShot) {
  const uint64_t block = 0xFEDCBA9876543210ull;
  const uint64_t key = 0x0F1571C947D9E859ull;
  const DesKeySchedule schedule = des_key_schedule(key);
  DesState state = des_load(block);
  for (int round = 0; round < 16; ++round) {
    state = des_round(state, schedule[round]);
  }
  EXPECT_EQ(des_unload(state), des_encrypt(block, key));
}

TEST(DesCore, RotatingKeyPathReproducesSchedule) {
  const uint64_t key = 0x133457799BBCDFF1ull;
  const DesKeySchedule schedule = des_key_schedule(key);
  DesCd cd = des_key_load(key);
  for (int round = 0; round < 16; ++round) {
    cd = des_cd_rotate_left(cd, kDesEncShifts[round]);
    EXPECT_EQ(des_round_key(cd), schedule[round]) << "round " << round;
  }
  // After 16 rounds the total rotation is 28: back to C0/D0.
  EXPECT_EQ(cd, des_key_load(key));
}

TEST(DesCore, ReverseKeyPathReproducesScheduleBackwards) {
  const uint64_t key = 0xAABB09182736CCDDull;
  const DesKeySchedule schedule = des_key_schedule(key);
  DesCd cd = des_key_load(key);  // == C16/D16
  for (int round = 0; round < 16; ++round) {
    cd = des_cd_rotate_right(cd, kDesDecShifts[round]);
    EXPECT_EQ(des_round_key(cd), schedule[15 - round]) << "round " << round;
  }
}

// The table-driven core against the bit-serial oracle in des_reference.h,
// function by function, on seeded random inputs: full 64-bit blocks and
// keys (parity bits included), full 48-bit round keys, arbitrary (L, R)
// states and 28-bit C/D registers.
TEST(DesCore, TableDrivenMatchesBitSerialReference) {
  namespace ref = des_reference;
  Rng rng(0xDE556u);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t block = rng.next();
    const uint64_t key = rng.next();
    const uint64_t round_key = rng.next() & 0xFFFFFFFFFFFFull;
    const uint64_t lr = rng.next();
    const DesState state{static_cast<uint32_t>(lr >> 32),
                         static_cast<uint32_t>(lr)};
    const uint64_t cd_bits = rng.next();
    const DesCd cd{static_cast<uint32_t>(cd_bits >> 36),
                   static_cast<uint32_t>(cd_bits) & 0x0FFFFFFFu};
    const int amount = static_cast<int>(rng.below(3));
    ASSERT_EQ(des_encrypt(block, key), ref::des_encrypt(block, key))
        << std::hex << "block " << block << " key " << key;
    ASSERT_EQ(des_decrypt(block, key), ref::des_decrypt(block, key))
        << std::hex << "block " << block << " key " << key;
    ASSERT_EQ(des_key_schedule(key), ref::des_key_schedule(key))
        << std::hex << "key " << key;
    ASSERT_EQ(des_load(block), ref::des_load(block))
        << std::hex << "block " << block;
    ASSERT_EQ(des_round(state, round_key), ref::des_round(state, round_key))
        << std::hex << "state " << lr << " round key " << round_key;
    ASSERT_EQ(des_unload(state), ref::des_unload(state))
        << std::hex << "state " << lr;
    ASSERT_EQ(des_feistel(state.r, round_key),
              ref::des_feistel(state.r, round_key))
        << std::hex << "r " << state.r << " round key " << round_key;
    ASSERT_EQ(des_key_load(key), ref::des_key_load(key))
        << std::hex << "key " << key;
    ASSERT_EQ(des_round_key(cd), ref::des_round_key(cd))
        << std::hex << "cd " << cd_bits;
    ASSERT_EQ(des_cd_rotate_left(cd, amount),
              ref::des_cd_rotate_left(cd, amount))
        << std::hex << "cd " << cd_bits << " amount " << amount;
    ASSERT_EQ(des_cd_rotate_right(cd, amount),
              ref::des_cd_rotate_right(cd, amount))
        << std::hex << "cd " << cd_bits << " amount " << amount;
  }
}

// ---- Cycle-accurate core ------------------------------------------------------

// Runs one operation through the cycle model; returns the number of edges
// from acceptance to rdy and checks the handshake staging.
int run_op(Des56Cycle& core, uint64_t block, uint64_t key, bool decrypt,
           uint64_t& result) {
  Des56Inputs in;
  in.ds = true;
  in.indata = block;
  in.key = key;
  in.decrypt = decrypt;
  Des56Outputs out = core.step(in);  // acceptance edge
  EXPECT_FALSE(out.rdy);
  in = Des56Inputs{};  // ds low afterwards
  for (int edge = 1; edge <= 32; ++edge) {
    out = core.step(in);
    EXPECT_EQ(out.rdy_next_next_cycle, edge == 15) << "edge " << edge;
    EXPECT_EQ(out.rdy_next_cycle, edge == 16) << "edge " << edge;
    if (out.rdy) {
      result = out.out;
      return edge;
    }
  }
  ADD_FAILURE() << "no rdy within 32 edges";
  return -1;
}

TEST(Des56Cycle, SeventeenCycleLatencyAndCorrectResult) {
  Des56Cycle core;
  uint64_t result = 0;
  const int latency =
      run_op(core, 0x0123456789ABCDEFull, 0x133457799BBCDFF1ull, false, result);
  EXPECT_EQ(latency, 17);
  EXPECT_EQ(result, 0x85E813540F0AB405ull);
}

TEST(Des56Cycle, DecryptMode) {
  Des56Cycle core;
  uint64_t result = 0;
  run_op(core, 0x85E813540F0AB405ull, 0x133457799BBCDFF1ull, true, result);
  EXPECT_EQ(result, 0x0123456789ABCDEFull);
}

TEST(Des56Cycle, BackToBackOperations) {
  Des56Cycle core;
  Rng rng(7);
  for (int op = 0; op < 8; ++op) {
    const uint64_t block = rng.next();
    const uint64_t key = rng.next();
    uint64_t result = 0;
    EXPECT_EQ(run_op(core, block, key, false, result), 17);
    EXPECT_EQ(result, des_encrypt(block, key));
  }
}

TEST(Des56Cycle, DsIgnoredWhileBusy) {
  Des56Cycle core;
  Des56Inputs in;
  in.ds = true;
  in.indata = 0x1111;
  in.key = 0x2222;
  core.step(in);  // accepted
  // A second ds mid-operation must be ignored (one-outstanding protocol).
  in.indata = 0x9999;
  core.step(in);
  in = Des56Inputs{};
  Des56Outputs out{};
  for (int edge = 3; edge <= 18; ++edge) out = core.step(in);
  EXPECT_TRUE(out.rdy);
  EXPECT_EQ(out.out, des_encrypt(0x1111, 0x2222));
}

TEST(Des56Cycle, OutHoldsAfterRdy) {
  Des56Cycle core;
  uint64_t result = 0;
  run_op(core, 42, 43, false, result);
  const Des56Outputs after = core.step(Des56Inputs{});
  EXPECT_FALSE(after.rdy);         // single-cycle pulse
  EXPECT_EQ(after.out, result);    // data held
}

// ---- RTL model vs. cycle model ---------------------------------------------------

// The RTL model (3 signal-connected processes) must be cycle-equivalent to
// the behavioural Des56Cycle core for a whole random schedule.
TEST(Des56Rtl, MatchesCycleModelOverRandomSchedule) {
  sim::Kernel kernel;
  sim::Clock clock(kernel, "clk", 10, 0);
  Des56Rtl rtl(kernel, clock);
  Des56Cycle reference;

  const std::vector<DesOp> ops = make_des_ops(20, 99);
  Des56DriverModel driver(ops);
  auto last_inputs = std::make_shared<Des56Inputs>();
  size_t divergences = 0;

  // Falling edge: drive both models' inputs for the next rising edge.
  clock.on_negedge([&] {
    if (driver.done()) {
      kernel.stop();
      return;
    }
    const Des56Inputs in = driver.tick(rtl.rdy.read(), rtl.out.read());
    rtl.ds.write(in.ds);
    rtl.indata.write(in.indata);
    rtl.key.write(in.key);
    rtl.decrypt.write(in.decrypt);
    *last_inputs = in;
  });
  // Rising edge: step the reference with the same inputs the RTL model
  // samples, then compare outputs one delta later (after commits).
  clock.on_posedge([&] {
    const Des56Outputs expect = reference.step(*last_inputs);
    kernel.schedule_delta([&rtl, expect, &divergences, &kernel] {
      kernel.schedule_delta([&rtl, expect, &divergences] {
        if (rtl.rdy.read() != expect.rdy || rtl.out.read() != expect.out ||
            rtl.rdy_next_cycle.read() != expect.rdy_next_cycle ||
            rtl.rdy_next_next_cycle.read() != expect.rdy_next_next_cycle) {
          ++divergences;
        }
      });
    });
  });

  kernel.run(10'000'000);
  EXPECT_EQ(divergences, 0u);
  EXPECT_EQ(driver.mismatches(), 0u);
  EXPECT_EQ(driver.ops_completed(), ops.size());
}

// ---- Stimulus / driver model -------------------------------------------------------

TEST(Stimulus, DesOpsDeterministicAndSeedSensitive) {
  const auto a = make_des_ops(50, 1);
  const auto b = make_des_ops(50, 1);
  const auto c = make_des_ops(50, 2);
  ASSERT_EQ(a.size(), 50u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].indata, b[i].indata);
    EXPECT_EQ(a[i].key, b[i].key);
  }
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].indata != c[i].indata) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Stimulus, DesOpsIncludeZeroBlocks) {
  const auto ops = make_des_ops(200, 42);
  size_t zeros = 0;
  for (const auto& op : ops) zeros += op.indata == 0;
  EXPECT_GT(zeros, 5u);  // p1 must fire non-vacuously
  EXPECT_LT(zeros, 100u);
}

TEST(Stimulus, DriverModelEnforcesOneOutstanding) {
  const auto ops = make_des_ops(5, 3);
  Des56DriverModel driver(ops);
  Des56Cycle core;
  Des56Inputs in;
  int ds_while_busy = 0;
  for (int edge = 0; edge < 400 && !driver.done(); ++edge) {
    const bool was_busy = core.busy();
    const Des56Outputs out = core.step(in);
    if (in.ds && was_busy) {
      // ds was asserted while the core is mid-operation: protocol violation.
      ++ds_while_busy;
    }
    in = driver.tick(out.rdy, out.out);
  }
  EXPECT_TRUE(driver.done());
  EXPECT_EQ(driver.mismatches(), 0u);
  EXPECT_EQ(driver.ops_completed(), ops.size());
  EXPECT_EQ(ds_while_busy, 0);
}

}  // namespace
}  // namespace repro::models
