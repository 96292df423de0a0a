// The packed kernel below `eval_planes_block`: every instance the running
// CPU supports (not only the one the engine picks), its eval against the
// generic program evaluation and its transpose against the scalar one,
// and the scratch alignment at every 8-byte offset from a cache line. The
// last needs scratch placed at offsets the system allocator never returns
// (it aligns to 16 bytes), so this binary replaces the global `operator
// new` with one that can place the next allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "../src/engine/packed_kernel.hpp"
#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/gen/random_mig.hpp"

namespace {

constexpr std::size_t default_placement = ~std::size_t{0};

/// Bytes past a 64-byte boundary at which the next `operator new` returns
/// its block, or `default_placement` for plain `malloc`.
std::size_t next_placement = default_placement;

/// The live placed allocation (one at a time): what `operator new`
/// returned, and the block to free.
void* placed_data = nullptr;
void* placed_block = nullptr;

}  // namespace

void* operator new(std::size_t size) {
  if (next_placement != default_placement) {
    const std::size_t offset = next_placement;
    next_placement = default_placement;
    // Exactly offset + size bytes, so under ASan the first byte past the
    // requested size is already outside the allocation.
    if (placed_block != nullptr || posix_memalign(&placed_block, 64, offset + size) != 0) {
      std::abort();
    }
    placed_data = static_cast<char*>(placed_block) + offset;
    return placed_data;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept {
  if (p != nullptr && p == placed_data) {
    std::free(placed_block);
    placed_data = placed_block = nullptr;
    return;
  }
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace wavemig {
namespace {

using engine::compiled_netlist;

/// Random words for every PI plane of `chunks` chunks, plane-major.
std::vector<std::uint64_t> random_planes(std::size_t pis, std::size_t chunks,
                                         std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::vector<std::uint64_t> planes(pis * chunks);
  for (auto& word : planes) {
    word = rng();
  }
  return planes;
}

/// The generic `compiled_netlist::eval` once per chunk: plane-major PO
/// words. It reads the complements of all three operands, so it also checks
/// the one-mask form of the programs, which every kernel instance (and
/// `eval_words_into`) relies on.
std::vector<std::uint64_t> generic_reference(const compiled_netlist& program,
                                             const std::vector<std::uint64_t>& planes,
                                             std::size_t chunks) {
  std::vector<std::uint64_t> out(program.num_pos() * chunks);
  std::vector<std::uint64_t> slots;
  for (std::size_t c = 0; c < chunks; ++c) {
    program.eval([&](std::uint32_t i) { return planes[i * chunks + c]; }, std::uint64_t{0},
                 slots);
    for (std::size_t p = 0; p < program.num_pos(); ++p) {
      out[p * chunks + c] = program.po_value(slots, p);
    }
  }
  return out;
}

TEST(kernel_instances, every_supported_instance_matches_the_generic_program) {
  const auto instances = engine::detail::supported_kernels();
  ASSERT_FALSE(instances.empty());
  EXPECT_STREQ(instances.back().isa, "baseline");

  std::vector<bool> mismatched(instances.size(), false);
  bool saw_complement = false;
  bool saw_in_place = false;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    // Balanced, so buffer chains fold away and the optimizer finds work.
    const auto net = insert_buffers(gen::random_mig({8 + 2 * static_cast<unsigned>(seed),
                                                     100 * static_cast<unsigned>(seed), 0.5,
                                                     6 + static_cast<unsigned>(seed),
                                                     seed * 7919}))
                         .net;
    for (const unsigned level : {0u, 2u}) {
      const auto program = compiled_netlist::comb_only(net, {.opt_level = level});
      for (const auto& o : program.comb_ops()) {
        saw_complement |= ((o.a | o.b | o.c) & 1u) != 0;
        saw_in_place |= o.target == o.a >> 1 || o.target == o.b >> 1 || o.target == o.c >> 1;
      }
      for (std::size_t w = 1; w <= compiled_netlist::max_block_chunks; ++w) {
        const std::string what = "seed " + std::to_string(seed) + " opt " +
                                 std::to_string(level) + " width " + std::to_string(w);
        const auto planes = random_planes(program.num_pis(), w, seed * 31 + w);
        const auto expected = generic_reference(program, planes, w);

        // One slot block as eval_planes_block lays it out; the gate slots
        // start as garbage, which the program must overwrite before reading.
        std::vector<std::uint64_t> initial = random_planes(program.comb_slot_count(), w, w);
        std::fill(initial.begin(), initial.begin() + static_cast<std::ptrdiff_t>(w), 0);
        for (std::size_t i = 0; i < program.num_pis(); ++i) {
          for (std::size_t j = 0; j < w; ++j) {
            initial[(1 + i) * w + j] = planes[i * w + j];
          }
        }

        std::vector<std::uint64_t> first_block;
        for (std::size_t k = 0; k < instances.size(); ++k) {
          const auto& instance = instances[k];
          std::vector<std::uint64_t> block = initial;
          instance.eval(program.comb_ops().data(), program.num_comb_ops(), block.data(), w);
          std::vector<std::uint64_t> outputs(program.num_pos() * w);
          std::vector<std::uint64_t> lane(program.comb_slot_count());
          for (std::size_t j = 0; j < w; ++j) {
            for (std::size_t s = 0; s < lane.size(); ++s) {
              lane[s] = block[s * w + j];
            }
            for (std::size_t p = 0; p < program.num_pos(); ++p) {
              outputs[p * w + j] = program.po_value(lane, p);
            }
          }
          EXPECT_EQ(outputs, expected) << instance.isa << ", " << what;
          if (outputs != expected) {
            mismatched[k] = true;
          }
          // Bit-identical in every slot, not only at the outputs.
          if (first_block.empty()) {
            first_block = block;
          } else {
            EXPECT_EQ(block, first_block) << instance.isa << ", " << what;
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_complement);
  EXPECT_TRUE(saw_in_place);  // slot recycling retargets an operand's slot
  for (std::size_t k = 0; k < instances.size(); ++k) {
    std::printf("kernel instance %s: widths 1-8 %s compiled_netlist::eval\n", instances[k].isa,
                mismatched[k] ? "DIFFER from" : "match");
  }
}

TEST(kernel_instances, every_supported_transpose_matches_the_scalar_one) {
  // Every single-bit tile, then random tiles of three densities.
  std::vector<std::array<std::uint64_t, 64>> tiles(64 * 64 + 3 * 32);
  for (std::size_t bit = 0; bit < 64 * 64; ++bit) {
    tiles[bit][bit / 64] = std::uint64_t{1} << (bit % 64);
  }
  std::mt19937_64 rng{64};
  for (std::size_t t = 64 * 64; t < tiles.size(); ++t) {
    for (auto& row : tiles[t]) {
      const std::uint64_t x = rng();
      row = t % 3 == 0 ? x : t % 3 == 1 ? x & rng() : x | rng();
    }
  }

  // The reference itself: bit c of row r moves to bit r of row c.
  std::vector<std::array<std::uint64_t, 64>> expected = tiles;
  for (std::size_t bit = 0; bit < 64 * 64; ++bit) {
    engine::detail::transpose64(expected[bit].data());
    std::array<std::uint64_t, 64> moved{};
    moved[bit % 64] = std::uint64_t{1} << (bit / 64);
    ASSERT_EQ(expected[bit], moved) << "bit " << bit;
  }
  for (std::size_t t = 64 * 64; t < tiles.size(); ++t) {
    engine::detail::transpose64(expected[t].data());
  }

  for (const auto& instance : engine::detail::supported_kernels()) {
    std::size_t mismatches = 0;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      auto tile = tiles[t];
      instance.transpose(tile.data());
      if (tile != expected[t]) {
        ++mismatches;
        ADD_FAILURE() << instance.isa << ": transpose differs on tile " << t;
      }
    }
    std::printf("kernel instance %s: transpose matches transpose64 on %zu of %zu tiles\n",
                instance.isa, tiles.size() - mismatches, tiles.size());
  }
}

TEST(kernel_scratch, blocks_give_the_same_words_at_every_scratch_offset) {
  // Two full 8-chunk blocks and a 3-chunk tail at opt level 2. The scratch
  // holds exactly what eval_planes_block asks for, starting at each 8-byte
  // offset from a 64-byte boundary: the aligned blocks must fit inside it
  // (under ASan any overrun of the alignment pad is a heap overflow) and
  // give the same words as the generic evaluation.
  const auto net = insert_buffers(gen::random_mig({16, 400, 0.5, 12, 99})).net;
  const compiled_netlist program{net, {.opt_level = 2}};
  constexpr std::size_t chunks = 19;
  const auto planes = random_planes(program.num_pis(), chunks, 2026);
  const auto expected = generic_reference(program, planes, chunks);

  std::vector<std::uint64_t> sizing;
  std::vector<std::uint64_t> outputs(program.num_pos() * chunks);
  program.eval_planes_block(planes.data(), chunks, outputs.data(), chunks, chunks, sizing);
  ASSERT_EQ(outputs, expected);

  for (std::size_t offset = 0; offset < 64; offset += 8) {
    std::vector<std::uint64_t> scratch;
    next_placement = offset;
    scratch.reserve(sizing.size());
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(scratch.data()) % 64, offset);
    const std::uint64_t* start = scratch.data();

    std::fill(outputs.begin(), outputs.end(), 0);
    program.eval_planes_block(planes.data(), chunks, outputs.data(), chunks, chunks, scratch);
    EXPECT_EQ(scratch.data(), start) << "offset " << offset;  // asked for no more
    EXPECT_EQ(outputs, expected) << "offset " << offset;
  }
}

}  // namespace
}  // namespace wavemig
