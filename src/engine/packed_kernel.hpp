#pragma once

// Internal kernel interface between the portable block evaluator
// (compiled_netlist.cpp) and the SIMD translation units (kernel_avx2.cpp,
// compiled with -mavx2 behind the WAVEMIG_ENABLE_AVX2 CMake option, and
// kernel_neon.cpp behind WAVEMIG_ENABLE_NEON on arm64). Not installed;
// nothing outside src/engine includes this.
//
// Slot layout of a W-word block: `slots[s * W + j]` is word j (= chunk j of
// the block) of value slot s. Every kernel reads all three operand words of
// a lane before storing that lane, which is what makes the slot-recycling
// optimizer's operand-overwriting targets safe.

#include <cstddef>
#include <cstdint>

#include "wavemig/engine/compiled_netlist.hpp"

namespace wavemig::engine::detail {

/// Portable unrolled kernel: evaluates `num_ops` majority ops over W-word
/// slot blocks. W is a compile-time constant so the inner loop fully
/// unrolls (and auto-vectorizes where the target allows).
template <std::size_t W>
void eval_ops_portable(const compiled_netlist::maj_op* ops, std::size_t num_ops,
                       std::uint64_t* slots) {
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
      t[j] = (av & (bv | cv)) | (bv & cv);  // 4-op majority
    }
  }
}

#if defined(WAVEMIG_HAVE_AVX2)
/// True when the running CPU supports AVX2 (checked once).
bool avx2_supported();

/// AVX2 kernels over 4- and 8-word slot blocks (one / two __m256i lanes per
/// slot). Bit-identical to eval_ops_portable<4|8>.
void eval_ops_avx2_w4(const compiled_netlist::maj_op* ops, std::size_t num_ops,
                      std::uint64_t* slots);
void eval_ops_avx2_w8(const compiled_netlist::maj_op* ops, std::size_t num_ops,
                      std::uint64_t* slots);
#endif

#if defined(WAVEMIG_HAVE_NEON)
/// True when the running CPU supports NEON/ASIMD. On AArch64 it is part of
/// the baseline ISA, so this is a constant — kept as a function to mirror
/// the AVX2 dispatch shape.
bool neon_supported();

/// NEON kernels over 4- and 8-word slot blocks (two / four uint64x2_t lanes
/// per slot). Bit-identical to eval_ops_portable<4|8>.
void eval_ops_neon_w4(const compiled_netlist::maj_op* ops, std::size_t num_ops,
                      std::uint64_t* slots);
void eval_ops_neon_w8(const compiled_netlist::maj_op* ops, std::size_t num_ops,
                      std::uint64_t* slots);
#endif

}  // namespace wavemig::engine::detail
