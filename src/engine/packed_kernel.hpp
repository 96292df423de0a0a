#pragma once

// The multi-word packed kernel and the bool boundary's bit transpose: one
// source, instantiated per ISA in compiled_netlist.cpp (AVX-512F and AVX2
// behind target attributes when the WAVEMIG_ENABLE_AVX2 CMake option is
// on, plus the baseline ISA, which is SSE2 on x86-64 and NEON on arm64),
// and picked once per process by CPU support. Not installed; only
// src/engine and the kernel tests include it.
//
// Slot layout of a W-word block: `slots[s * W + j]` is word j (= chunk j of
// the block) of value slot s. Every op reads all three operand words of a
// lane before storing that lane, which is what makes the slot-recycling
// optimizer's operand-overwriting targets safe.
//
// Every compiled program keeps its ops in one polarity form: at most one
// complemented operand, and it is `a` (`flip_to_one_complement`, then
// `complemented_first`, applied by lowering and by the optimizer). So an op
// XORs one complement mask and takes the majority of three words.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "wavemig/engine/compiled_netlist.hpp"

namespace wavemig::engine::detail {

/// Self-duality, M(!a,!b,!c) = !M(a,b,c): flips all three operands when two
/// or three are complemented and returns 1, the complement the op's output
/// reference then carries; returns 0 and changes nothing otherwise. The
/// slots, and so the order of refs over distinct slots, do not change.
[[gnu::always_inline]] inline slot_ref flip_to_one_complement(slot_ref& a, slot_ref& b,
                                                              slot_ref& c) {
  const slot_ref flip = ((a & 1u) + (b & 1u) + (c & 1u)) >> 1;
  a ^= flip;
  b ^= flip;
  c ^= flip;
  return flip;
}

/// Swaps the one complemented operand, if any, into `a`; at most one may be
/// complemented, as `flip_to_one_complement` leaves them. Branch-free,
/// since which operand it is follows no pattern a predictor could learn.
[[gnu::always_inline]] inline void complemented_first(slot_ref& a, slot_ref& b, slot_ref& c) {
  const slot_ref xb = (a ^ b) & (0u - (b & 1u));
  a ^= xb;
  b ^= xb;
  const slot_ref xc = (a ^ c) & (0u - (c & 1u));
  a ^= xc;
  c ^= xc;
}

/// True when every op is in the form the two steps above leave: `b` and `c`
/// are plain.
inline bool one_complement_each(std::span<const compiled_netlist::maj_op> ops) {
  return std::all_of(ops.begin(), ops.end(), [](const compiled_netlist::maj_op& o) {
    return ((o.b | o.c) & 1u) == 0;
  });
}

/// Evaluates `num_ops` majority ops, each in the form above, over W-word
/// slot blocks. W = 2, 4 and 8 run on a W-word GCC/Clang vector type, which
/// each instance lowers to its own registers (one zmm, two ymm or four xmm
/// per 8-word slot); other widths run a fully unrolled scalar loop. Always
/// inlined, so the code is generated under the target of the instance that
/// calls it. The vector type never crosses a call boundary, whose ABI would
/// depend on the ISA.
template <std::size_t W>
[[gnu::always_inline]] inline void eval_ops(const compiled_netlist::maj_op* ops,
                                            std::size_t num_ops, std::uint64_t* slots) {
  if constexpr (W == 2 || W == 4 || W == 8) {
    // Slots are 8-byte aligned as far as the type knows: loads and stores
    // stay unaligned-safe when a block is not on a W-word boundary.
    typedef std::uint64_t word_vec
        __attribute__((vector_size(W * sizeof(std::uint64_t)), aligned(8), may_alias));
    word_vec* v = reinterpret_cast<word_vec*>(slots);
    for (std::size_t i = 0; i < num_ops; ++i) {
      const auto& o = ops[i];
      const word_vec a = v[o.a >> 1] ^ complement_mask(o.a);
      const word_vec b = v[o.b >> 1];
      const word_vec c = v[o.c >> 1];
      v[o.target] = (a & (b | c)) | (b & c);  // 4-op majority
    }
  } else {
    for (std::size_t i = 0; i < num_ops; ++i) {
      const auto& o = ops[i];
      const std::uint64_t* a = slots + static_cast<std::size_t>(o.a >> 1) * W;
      const std::uint64_t* b = slots + static_cast<std::size_t>(o.b >> 1) * W;
      const std::uint64_t* c = slots + static_cast<std::size_t>(o.c >> 1) * W;
      std::uint64_t* t = slots + static_cast<std::size_t>(o.target) * W;
      const std::uint64_t ma = complement_mask(o.a);
      for (std::size_t j = 0; j < W; ++j) {
        const std::uint64_t av = a[j] ^ ma;
        t[j] = (av & (b[j] | c[j])) | (b[j] & c[j]);
      }
    }
  }
}

/// In-place LSB-first transpose of a 64 x 64 bit matrix (row r = a[r], column
/// c = bit c): afterwards bit c of a[r] is the former bit r of a[c]. Six
/// rounds of masked block swaps; in round j, for every row r with bit j
/// clear, the columns with bit j set in row r trade places with the
/// columns with bit j clear in row r + j. The baseline instance's
/// transpose, and the reference for the others.
inline void transpose64(std::uint64_t* a) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned r0 = 0; r0 < 64; r0 += 2 * j) {
      for (unsigned r = r0; r < r0 + j; ++r) {
        const std::uint64_t t = ((a[r] >> j) ^ a[r + j]) & mask;
        a[r] ^= t << j;
        a[r + j] ^= t;
      }
    }
  }
}

/// `transpose64` on eight 8-row vectors: vector k holds rows 8k .. 8k + 7.
/// Rounds 32, 16 and 8 swap between vectors, lane by lane; rounds 4, 2 and
/// 1 swap between the lanes of each vector. For the AVX-512F instance, where
/// a vector is one zmm register. Under AVX2 or the baseline ISA, which split
/// each into two ymm or four xmm registers, it spills and runs slower than
/// `transpose64`, which those instances keep. Always inlined, like
/// `eval_ops`. `__builtin_shufflevector` needs GCC 12 or Clang.
[[gnu::always_inline]] inline void transpose64_rows8(std::uint64_t* a) {
  typedef std::uint64_t rows
      __attribute__((vector_size(8 * sizeof(std::uint64_t)), aligned(8), may_alias));
  rows* tile = reinterpret_cast<rows*>(a);
  rows v[8] = {tile[0], tile[1], tile[2], tile[3], tile[4], tile[5], tile[6], tile[7]};

  const auto swap_vectors = [&v](unsigned k, unsigned other, unsigned j, std::uint64_t mask) {
    const rows t = ((v[k] >> j) ^ v[other]) & mask;
    v[k] ^= t << j;
    v[other] ^= t;
  };
  for (const unsigned k : {0u, 1u, 2u, 3u}) {
    swap_vectors(k, k + 4, 32, 0x00000000FFFFFFFFull);
  }
  for (const unsigned k : {0u, 1u, 4u, 5u}) {
    swap_vectors(k, k + 2, 16, 0x0000FFFF0000FFFFull);
  }
  for (const unsigned k : {0u, 2u, 4u, 6u}) {
    swap_vectors(k, k + 1, 8, 0x00FF00FF00FF00FFull);
  }

  // Lane l, with bit j of l clear, pairs with lane l + j of the same
  // vector (`partner` holds each lane's pair). The low lane takes its
  // partner's bits under mask, shifted up by j; the high lane its
  // partner's bits under mask << j, shifted down.
  const auto swap_lanes = [](rows& x, const rows& partner, const rows& low, unsigned j,
                             std::uint64_t mask) {
    const rows up = low & (mask << j);
    const rows down = ~low & mask;
    x = (x & ~(up | down)) | ((partner << j) & up) | ((partner >> j) & down);
  };
  constexpr std::uint64_t on = ~std::uint64_t{0};
  for (rows& x : v) {
    swap_lanes(x, __builtin_shufflevector(x, x, 4, 5, 6, 7, 0, 1, 2, 3),
               rows{on, on, on, on, 0, 0, 0, 0}, 4, 0x0F0F0F0F0F0F0F0Full);
    swap_lanes(x, __builtin_shufflevector(x, x, 2, 3, 0, 1, 6, 7, 4, 5),
               rows{on, on, 0, 0, on, on, 0, 0}, 2, 0x3333333333333333ull);
    swap_lanes(x, __builtin_shufflevector(x, x, 1, 0, 3, 2, 5, 4, 7, 6),
               rows{on, 0, on, 0, on, 0, on, 0}, 1, 0x5555555555555555ull);
  }
  for (unsigned k = 0; k < 8; ++k) {
    tile[k] = v[k];
  }
}

/// One instance of the kernel: `eval` at every width 1..8 (anything else
/// runs as 1) and a 64 x 64 bit `transpose`, compiled for one ISA.
/// Bit-identical across instances.
struct kernel_instance {
  const char* isa;
  void (*eval)(const compiled_netlist::maj_op* ops, std::size_t num_ops, std::uint64_t* slots,
               std::size_t width);
  void (*transpose)(std::uint64_t* tile);
};

/// The instances this build holds that the running CPU supports, widest
/// ISA first; the last is always the baseline. Checked once per process.
/// `eval_planes_block`, `wave_batch::from_waves` and
/// `packed_wave_result::unpack` run the first.
std::span<const kernel_instance> supported_kernels();

}  // namespace wavemig::engine::detail
