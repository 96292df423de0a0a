#pragma once

// Internal helpers shared by the packed front-ends (wave_engine.cpp,
// parallel_executor.cpp, serving.cpp) for filling and finishing plane-major
// words.
// Not installed; nothing outside src/engine includes this.

#include <cstdint>
#include <cstring>

#include "wavemig/engine/wave_engine.hpp"

namespace wavemig::engine::detail {

/// Copies `n` words, sized for the per-plane copies of the packed layouts:
/// short copies (a handful of chunk words — the shape of wide-PI/few-wave
/// appends) use a plain loop, because a
/// runtime-sized memcpy call costs more than the copy itself (measured in
/// PR 5 on exactly this pattern); long copies keep memcpy's bulk path.
inline void copy_words_small(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  if (n <= 2 * compiled_netlist::max_block_chunks) {
    for (std::size_t j = 0; j < n; ++j) {
      dst[j] = src[j];
    }
  } else {
    std::memcpy(dst, src, n * sizeof(std::uint64_t));
  }
}

/// Zeroes the bits above `num_waves` in each plane's last chunk of a
/// finished result. The kernel computes tail lanes like any other lane
/// (deterministically, from the batch's zeroed tail inputs — complemented
/// outputs make them 1), so every front-end masks once at assembly to
/// uphold the containers' tail-zero invariant.
inline void mask_result_tail(packed_wave_result& result) {
  const std::size_t tail = result.num_waves % 64;
  if (tail == 0 || result.words.empty()) {
    return;
  }
  const std::uint64_t mask = (std::uint64_t{1} << tail) - 1;
  const std::size_t chunks = result.num_chunks();
  for (std::size_t p = 0; p < result.num_pos; ++p) {
    result.words[p * chunks + chunks - 1] &= mask;
  }
}

}  // namespace wavemig::engine::detail
