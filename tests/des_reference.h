// Bit-serial DES-56 (FIPS 46-3): the straightforward implementation that
// permutes one bit per loop step, kept as an independent oracle for the
// table-driven core in src/models/des56/des_core.cc. Test-only; it mirrors
// every public function of des_core.h under the des_reference namespace.
// Calls that take a DesState are qualified, since argument-dependent lookup
// would also find the des_core.h overloads.
#ifndef REPRO_TESTS_DES_REFERENCE_H_
#define REPRO_TESTS_DES_REFERENCE_H_

#include <cstdint>

#include "models/des56/des_core.h"

namespace repro::models::des_reference {

// All tables use the FIPS 46-3 1-based big-endian bit numbering: bit 1 is
// the most significant bit of the input word.

constexpr int kIp[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9,  1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7};

constexpr int kFp[64] = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};

constexpr int kExpansion[48] = {
    32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,  8,  9,  10, 11,
    12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21,
    22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};

constexpr int kPerm[32] = {16, 7, 20, 21, 29, 12, 28, 17, 1,  15, 23, 26,
                           5,  18, 31, 10, 2,  8,  24, 14, 32, 27, 3,  9,
                           19, 13, 30, 6,  22, 11, 4,  25};

constexpr int kPc1[56] = {57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34, 26, 18,
                          10, 2,  59, 51, 43, 35, 27, 19, 11, 3,  60, 52, 44, 36,
                          63, 55, 47, 39, 31, 23, 15, 7,  62, 54, 46, 38, 30, 22,
                          14, 6,  61, 53, 45, 37, 29, 21, 13, 5,  28, 20, 12, 4};

constexpr int kPc2[48] = {14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10,
                          23, 19, 12, 4,  26, 8,  16, 7,  27, 20, 13, 2,
                          41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
                          44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

constexpr int kShifts[16] = {1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1};

constexpr uint8_t kSbox[8][64] = {
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6, 1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8, 6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9, 2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3, 12},
    {13, 2,  8,  4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4,  1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11}};

// Generic bit permutation: output bit i (1-based from MSB of an out_bits
// word) takes input bit table[i] (1-based from MSB of an in_bits word).
template <int out_bits, int in_bits>
uint64_t permute(uint64_t value, const int* table) {
  uint64_t out = 0;
  for (int i = 0; i < out_bits; ++i) {
    out <<= 1;
    out |= (value >> (in_bits - table[i])) & 1;
  }
  return out;
}

// 28-bit left rotation.
inline uint32_t rotl28(uint32_t v, int n) {
  return ((v << n) | (v >> (28 - n))) & 0x0fffffffu;
}

// The Feistel function: expansion, key mix, S-boxes, permutation.
inline uint32_t feistel(uint32_t r, uint64_t round_key) {
  const uint64_t expanded = permute<48, 32>(r, kExpansion) ^ round_key;
  uint32_t s_out = 0;
  for (int box = 0; box < 8; ++box) {
    const uint32_t chunk =
        static_cast<uint32_t>((expanded >> (42 - 6 * box)) & 0x3f);
    // Row = outer bits, column = inner four bits.
    const uint32_t row = ((chunk & 0x20) >> 4) | (chunk & 1);
    const uint32_t col = (chunk >> 1) & 0xf;
    s_out = (s_out << 4) | kSbox[box][row * 16 + col];
  }
  return static_cast<uint32_t>(permute<32, 32>(s_out, kPerm));
}

inline DesKeySchedule des_key_schedule(uint64_t key) {
  const uint64_t pc1 = permute<56, 64>(key, kPc1);
  uint32_t c = static_cast<uint32_t>(pc1 >> 28);
  uint32_t d = static_cast<uint32_t>(pc1 & 0x0fffffffu);
  DesKeySchedule schedule{};
  for (int round = 0; round < 16; ++round) {
    c = rotl28(c, kShifts[round]);
    d = rotl28(d, kShifts[round]);
    const uint64_t cd = (static_cast<uint64_t>(c) << 28) | d;
    schedule[round] = permute<48, 56>(cd, kPc2);
  }
  return schedule;
}

inline DesState des_load(uint64_t block) {
  const uint64_t ip = permute<64, 64>(block, kIp);
  return DesState{static_cast<uint32_t>(ip >> 32), static_cast<uint32_t>(ip)};
}

inline DesState des_round(DesState state, uint64_t round_key) {
  return DesState{state.r, state.l ^ feistel(state.r, round_key)};
}

inline uint64_t des_unload(DesState state) {
  // Note the half swap: after round 16 the pre-output is (R16, L16).
  const uint64_t pre =
      (static_cast<uint64_t>(state.r) << 32) | static_cast<uint64_t>(state.l);
  return permute<64, 64>(pre, kFp);
}

inline uint64_t des_encrypt(uint64_t block, uint64_t key) {
  const DesKeySchedule schedule = des_key_schedule(key);
  DesState state = des_load(block);
  for (int round = 0; round < 16; ++round) {
    state = des_reference::des_round(state, schedule[round]);
  }
  return des_reference::des_unload(state);
}

inline uint64_t des_decrypt(uint64_t block, uint64_t key) {
  const DesKeySchedule schedule = des_key_schedule(key);
  DesState state = des_load(block);
  for (int round = 15; round >= 0; --round) {
    state = des_reference::des_round(state, schedule[round]);
  }
  return des_reference::des_unload(state);
}

inline DesCd des_key_load(uint64_t key) {
  const uint64_t pc1 = permute<56, 64>(key, kPc1);
  return DesCd{static_cast<uint32_t>(pc1 >> 28),
               static_cast<uint32_t>(pc1 & 0x0fffffffu)};
}

inline DesCd des_cd_rotate_left(DesCd cd, int amount) {
  if (amount == 0) return cd;
  return DesCd{rotl28(cd.c, amount), rotl28(cd.d, amount)};
}

inline DesCd des_cd_rotate_right(DesCd cd, int amount) {
  if (amount == 0) return cd;
  return DesCd{rotl28(cd.c, 28 - amount), rotl28(cd.d, 28 - amount)};
}

inline uint64_t des_round_key(DesCd cd) {
  const uint64_t combined =
      (static_cast<uint64_t>(cd.c) << 28) | static_cast<uint64_t>(cd.d);
  return permute<48, 56>(combined, kPc2);
}

inline uint32_t des_feistel(uint32_t r, uint64_t round_key) {
  return feistel(r, round_key);
}

}  // namespace repro::models::des_reference

#endif  // REPRO_TESTS_DES_REFERENCE_H_
