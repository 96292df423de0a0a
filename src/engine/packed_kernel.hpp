#pragma once

// The multi-word packed kernel: one source, instantiated per ISA in
// compiled_netlist.cpp (AVX-512F and AVX2 behind target attributes when the
// WAVEMIG_ENABLE_AVX2 CMake option is on, plus the baseline ISA, which is
// SSE2 on x86-64 and NEON on arm64), and picked once per process by CPU
// support. Not installed; only src/engine and the kernel tests include it.
//
// Slot layout of a W-word block: `slots[s * W + j]` is word j (= chunk j of
// the block) of value slot s. Every op reads all three operand words of a
// lane before storing that lane, which is what makes the slot-recycling
// optimizer's operand-overwriting targets safe.

#include <cstddef>
#include <cstdint>
#include <span>

#include "wavemig/engine/compiled_netlist.hpp"

namespace wavemig::engine::detail {

/// Evaluates `num_ops` majority ops over W-word slot blocks. W = 2, 4 and 8
/// run on a W-word GCC/Clang vector type, which each instance lowers to its
/// own registers (one zmm, two ymm or four xmm per 8-word slot); other
/// widths run a fully unrolled scalar loop. Always inlined, so the code is
/// generated under the target of the instance that calls it. The vector
/// type never crosses a call boundary, whose ABI would depend on the ISA.
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
      const word_vec b = v[o.b >> 1] ^ complement_mask(o.b);
      const word_vec c = v[o.c >> 1] ^ complement_mask(o.c);
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
      const std::uint64_t mb = complement_mask(o.b);
      const std::uint64_t mc = complement_mask(o.c);
      for (std::size_t j = 0; j < W; ++j) {
        const std::uint64_t av = a[j] ^ ma;
        const std::uint64_t bv = b[j] ^ mb;
        const std::uint64_t cv = c[j] ^ mc;
        t[j] = (av & (bv | cv)) | (bv & cv);
      }
    }
  }
}

/// One instance of the kernel: every width 1..8 (anything else runs as 1),
/// compiled for one ISA. Bit-identical across instances.
struct kernel_instance {
  const char* isa;
  void (*eval)(const compiled_netlist::maj_op* ops, std::size_t num_ops, std::uint64_t* slots,
               std::size_t width);
};

/// The instances this build holds that the running CPU supports, widest
/// ISA first; the last is always the baseline. Checked once per process.
/// `eval_planes_block` runs the first.
std::span<const kernel_instance> supported_kernels();

}  // namespace wavemig::engine::detail
