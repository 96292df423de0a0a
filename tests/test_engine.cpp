#include "wavemig/engine/wave_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/serving.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/gen/misc.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/simulation.hpp"
#include "wavemig/wave_simulator.hpp"

namespace wavemig {
namespace {

std::vector<std::vector<bool>> random_waves(std::size_t count, std::size_t pis,
                                            std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::vector<std::vector<bool>> waves(count, std::vector<bool>(pis));
  for (auto& wave : waves) {
    for (std::size_t i = 0; i < pis; ++i) {
      wave[i] = (rng() & 1u) != 0;
    }
  }
  return waves;
}

TEST(compiled_netlist, folds_identity_components_out_of_the_comb_program) {
  const auto net = gen::ripple_adder_circuit(8);
  const auto balanced = insert_buffers(net).net;
  ASSERT_GT(balanced.num_buffers(), 0u);

  const engine::compiled_netlist compiled{balanced};
  EXPECT_EQ(compiled.num_comb_ops(), balanced.num_majorities());
  EXPECT_EQ(compiled.num_pis(), balanced.num_pis());
  EXPECT_EQ(compiled.num_pos(), balanced.num_pos());
  EXPECT_EQ(compiled.depth(), compute_levels(balanced).depth);

  // The tick program keeps every physical component instead.
  const engine::tick_program ticks{balanced, compute_levels(balanced)};
  EXPECT_EQ(ticks.num_ops(), balanced.num_components());
  EXPECT_EQ(ticks.depth(), compiled.depth());
  EXPECT_EQ(ticks.po_levels(), compiled.po_levels());
}

/// True when `engine::run_waves` accepts a `Program` — false, rather than a
/// compile error, for a type it does not.
template <typename Program>
concept runs_waves = requires(const Program& program,
                              const std::vector<std::vector<bool>>& waves) {
  engine::run_waves(program, waves, 3u);
};

TEST(tick_program, is_the_only_program_run_waves_accepts) {
  // A compiled_netlist carries no tick program, and comb_only not even a
  // clock (every PO level 0), so run_waves must refuse one at compile time
  // rather than simulate it wrongly.
  static_assert(runs_waves<engine::tick_program>);
  static_assert(!runs_waves<engine::compiled_netlist>);
  static_assert(!runs_waves<mig_network>);

  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  net.create_po(net.create_maj(a, b, c));
  const std::vector<std::vector<bool>> waves{{true, true, false}, {true, true, true}};
  const auto run = engine::run_waves(engine::tick_program{net, compute_levels(net)}, waves, 3);
  EXPECT_EQ(run.outputs, (std::vector<std::vector<bool>>{{true}, {true}}));
}

TEST(tick_program, validates_the_schedule) {
  const auto net = gen::ripple_adder_circuit(4);
  level_map bad_schedule;
  bad_schedule.level.assign(net.num_nodes() - 1, 0);
  EXPECT_THROW((engine::tick_program{net, bad_schedule}), std::invalid_argument);
}

TEST(compiled_netlist, eval_words_matches_interpreter) {
  std::mt19937_64 rng{99};
  for (const auto& net :
       {gen::ripple_adder_circuit(12), gen::multiplier_circuit(5), gen::parity_circuit(16)}) {
    const engine::compiled_netlist compiled{net};
    for (int round = 0; round < 8; ++round) {
      std::vector<std::uint64_t> words(net.num_pis());
      for (auto& w : words) {
        w = rng();
      }
      EXPECT_EQ(compiled.eval_words(words), simulate_words(net, words));
    }
  }
}

TEST(compiled_netlist, coherence_metadata) {
  const auto net = gen::ripple_adder_circuit(6);
  const engine::compiled_netlist raw{net};
  EXPECT_GT(raw.max_edge_span(), 1u) << "unbalanced adder must have long edges";
  EXPECT_FALSE(raw.wave_coherent(3));

  const engine::compiled_netlist balanced{insert_buffers(net).net};
  EXPECT_EQ(balanced.min_edge_span(), 1u);
  EXPECT_EQ(balanced.max_edge_span(), 1u);
  EXPECT_TRUE(balanced.wave_coherent(1));
  EXPECT_TRUE(balanced.wave_coherent(5));
}

TEST(compiled_netlist, input_width_validation) {
  const engine::compiled_netlist compiled{gen::ripple_adder_circuit(4)};
  EXPECT_THROW((void)compiled.eval_words({1ull, 2ull}), std::invalid_argument);
}

/// The tentpole property: packed execution is wave-for-wave identical to the
/// cycle-accurate reference on randomly generated MIGs, across chain/tree
/// buffer strategies and 2-5 clock phases.
TEST(packed_waves, equals_scalar_reference_on_random_migs) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    gen::random_mig_profile profile;
    profile.inputs = 6;
    profile.gates = 40 + static_cast<unsigned>(seed) * 17;
    profile.outputs = 6;
    profile.locality = 0.3 + 0.15 * static_cast<double>(seed);
    profile.seed = seed;
    const auto net = gen::random_mig(profile);

    for (const auto strategy : {buffer_strategy::chain, buffer_strategy::tree}) {
      buffer_insertion_options options;
      options.strategy = strategy;
      const auto balanced = insert_buffers(net, options);

      const auto waves = random_waves(20, balanced.net.num_pis(), seed * 31 + 7);
      for (unsigned phases = 2; phases <= 5; ++phases) {
        const auto scalar = run_waves(balanced.net, waves, phases, balanced.schedule);
        const auto packed = run_waves_packed(balanced.net, waves, phases, balanced.schedule);
        EXPECT_EQ(packed.outputs, scalar.outputs)
            << "seed " << seed << " strategy " << static_cast<int>(strategy) << " phases "
            << phases;
        EXPECT_EQ(packed.ticks, scalar.ticks);
        EXPECT_EQ(packed.latency_ticks, scalar.latency_ticks);
        EXPECT_EQ(packed.initiation_interval, scalar.initiation_interval);
        EXPECT_EQ(packed.waves_in_flight, scalar.waves_in_flight);
      }
    }
  }
}

TEST(packed_waves, equals_scalar_reference_under_tolerance_schedules) {
  // Tolerance-balanced netlists are coherent only under the schedule
  // returned by buffer insertion; both engines must honor it.
  const auto net = gen::random_mig({8, 60, 0.5, 8, 11});
  for (const unsigned tolerance : {1u, 2u}) {
    buffer_insertion_options options;
    options.tolerance = tolerance;
    const auto balanced = insert_buffers(net, options);
    const auto waves = random_waves(16, balanced.net.num_pis(), 13);
    for (unsigned phases = tolerance + 2; phases <= 5; ++phases) {
      const auto scalar = run_waves(balanced.net, waves, phases, balanced.schedule);
      const auto packed = run_waves_packed(balanced.net, waves, phases, balanced.schedule);
      EXPECT_EQ(packed.outputs, scalar.outputs) << "tolerance " << tolerance << " phases "
                                                << phases;
    }
  }
}

TEST(packed_waves, matches_combinational_reference_on_suite_circuit) {
  const auto balanced = insert_buffers(gen::multiplier_circuit(4)).net;
  const auto waves = random_waves(130, balanced.num_pis(), 5);  // > 2 chunks
  const auto packed = run_waves_packed(balanced, waves, 3);
  ASSERT_EQ(packed.outputs.size(), waves.size());
  for (std::size_t w = 0; w < waves.size(); ++w) {
    EXPECT_EQ(packed.outputs[w], simulate_pattern(balanced, waves[w])) << "wave " << w;
  }
}

TEST(packed_waves, rejects_incoherent_netlists) {
  // An unbalanced netlist exhibits wave interference that the packed engine
  // cannot model; it must refuse instead of returning wrong answers.
  const auto net = gen::ripple_adder_circuit(6);
  const auto waves = random_waves(4, net.num_pis(), 3);
  EXPECT_THROW(run_waves_packed(net, waves, 3), std::invalid_argument);

  // With enough phases the same netlist becomes coherent (every edge span
  // fits inside one initiation interval).
  const engine::compiled_netlist compiled{net};
  const auto run = run_waves_packed(net, waves, compiled.max_edge_span());
  EXPECT_EQ(run.outputs, run_waves(net, waves, compiled.max_edge_span()).outputs);
}

TEST(packed_waves, validates_inputs) {
  mig_network net;
  net.create_pi();
  net.create_po(constant0);
  EXPECT_THROW(run_waves_packed(net, {{true, false}}, 3), std::invalid_argument);
  EXPECT_THROW(run_waves_packed(net, {{true}}, 0), std::invalid_argument);

  engine::wave_batch batch{2};
  EXPECT_THROW(batch.append({true}), std::invalid_argument);
}

TEST(packed_waves, empty_batch_is_noop) {
  const auto balanced = insert_buffers(gen::ripple_adder_circuit(4)).net;
  const auto run = run_waves_packed(balanced, {}, 3);
  EXPECT_TRUE(run.outputs.empty());
  EXPECT_EQ(run.ticks, 0u);
}

/// A copy of `bits` whose storage holds set bits above size(): an all-ones
/// vector resized down keeps them in its last word.
std::vector<bool> with_stale_bits(const std::vector<bool>& bits) {
  std::vector<bool> row(bits.size() + 70, true);
  row.resize(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    row[i] = bits[i];
  }
  return row;
}

TEST(wave_batch, packs_and_unpacks_waves) {
  // PI widths on both sides of each 64-PI block edge, wave counts on both
  // sides of each 64-wave chunk edge, rows with and without stale bits
  // above size(): every bit lands in its plane and the tail stays zero.
  for (const std::size_t num_pis : {0ull, 1ull, 63ull, 64ull, 65ull, 128ull, 129ull, 200ull}) {
    for (const std::size_t num_waves : {0ull, 1ull, 63ull, 64ull, 65ull, 130ull, 4097ull}) {
      auto waves = random_waves(num_waves, num_pis, num_pis * 7919 + num_waves);
      for (const bool stale : {false, true}) {
        if (stale) {
          for (auto& wave : waves) {
            wave = with_stale_bits(wave);
          }
        }
        const auto batch = engine::wave_batch::from_waves(waves, num_pis);
        ASSERT_EQ(batch.num_pis(), num_pis);
        ASSERT_EQ(batch.num_waves(), num_waves);
        ASSERT_EQ(batch.num_chunks(), (num_waves + 63) / 64);
        for (std::size_t w = 0; w < num_waves; ++w) {
          for (std::size_t i = 0; i < num_pis; ++i) {
            if (batch.input(w, i) != waves[w][i]) {
              FAIL() << num_pis << " PIs, " << num_waves << " waves, stale " << stale
                     << ": wave " << w << " pi " << i;
            }
          }
        }
        if (const std::size_t live = num_waves % 64; live != 0) {
          for (std::size_t i = 0; i < num_pis; ++i) {
            ASSERT_EQ(batch.plane(i)[batch.num_chunks() - 1] >> live, 0u)
                << num_pis << " PIs, " << num_waves << " waves: tail bits in pi " << i;
          }
        }
      }

      // A wrong-width last wave rejects the whole batch.
      if (num_waves != 0) {
        waves.back().push_back(true);
        EXPECT_THROW((void)engine::wave_batch::from_waves(waves, num_pis),
                     std::invalid_argument);
        waves.back().resize(num_pis == 0 ? 2 : num_pis - 1);
        EXPECT_THROW((void)engine::wave_batch::from_waves(waves, num_pis),
                     std::invalid_argument);
      }
    }
  }
}

TEST(wave_stream, streams_blocks_incrementally) {
  const auto balanced = insert_buffers(gen::ripple_adder_circuit(8)).net;
  const engine::compiled_netlist compiled{balanced};
  // > 2 multi-chunk blocks plus a partial tail.
  constexpr std::size_t block = engine::wave_stream::block_waves;
  const auto waves = random_waves(2 * block + 200, balanced.num_pis(), 21);

  engine::wave_stream stream{compiled, 3};
  for (std::size_t w = 0; w < waves.size(); ++w) {
    stream.push(waves[w]);
    // Full multi-chunk blocks are evaluated as soon as they close.
    EXPECT_EQ(stream.waves_completed(), (w + 1) / block * block);
  }
  const auto result = stream.finish();
  EXPECT_EQ(result.num_waves, waves.size());

  const auto reference = run_waves(balanced, waves, 3);
  EXPECT_EQ(result.unpack(), reference.outputs);
  EXPECT_EQ(result.ticks, reference.ticks);

  // The stream resets after finish and can be reused.
  stream.push(waves[0]);
  const auto second = stream.finish();
  EXPECT_EQ(second.num_waves, 1u);
  EXPECT_EQ(second.unpack()[0], reference.outputs[0]);
}

TEST(wave_stream, finish_resets_for_full_reuse) {
  // The documented reset semantics of finish(): counters return to zero and
  // a second, differently sized run through the same stream is exact.
  const auto balanced = insert_buffers(gen::multiplier_circuit(3)).net;
  const engine::compiled_netlist compiled{balanced};
  engine::wave_stream stream{compiled, 3};

  const auto first_waves = random_waves(100, balanced.num_pis(), 41);
  for (const auto& wave : first_waves) {
    stream.push(wave);
  }
  const auto first = stream.finish();
  EXPECT_EQ(first.num_waves, first_waves.size());
  EXPECT_EQ(stream.waves_pushed(), 0u);
  EXPECT_EQ(stream.waves_completed(), 0u);

  // An immediate finish() on the reset stream is an empty result.
  const auto empty = stream.finish();
  EXPECT_EQ(empty.num_waves, 0u);
  EXPECT_EQ(empty.ticks, 0u);
  EXPECT_TRUE(empty.words.empty());

  const auto second_waves = random_waves(70, balanced.num_pis(), 43);
  for (const auto& wave : second_waves) {
    stream.push(wave);
  }
  const auto second = stream.finish();
  EXPECT_EQ(second.num_waves, second_waves.size());
  const auto reference =
      engine::run_waves_packed(compiled, engine::wave_batch::from_waves(
                                             second_waves, balanced.num_pis()), 3);
  EXPECT_EQ(second.words, reference.words);
  EXPECT_EQ(second.ticks, reference.ticks);
}

TEST(wave_batch, clear_keeps_storage_reusable) {
  engine::wave_batch batch{4};
  const auto waves = random_waves(100, 4, 5);
  for (const auto& wave : waves) {
    batch.append(wave);
  }
  batch.clear();
  EXPECT_EQ(batch.num_waves(), 0u);
  EXPECT_TRUE(batch.empty());
  batch.append(waves[3]);
  EXPECT_EQ(batch.num_waves(), 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(batch.input(0, i), waves[3][i]);  // no stale bits from before clear
  }
}

/// The single-word (W = 1) reference of a plane-major batch: the generic
/// `compiled_netlist::eval` run once per chunk, chunk c of PI i read
/// straight from `batch.plane(i)[c]`. Returns plane-major PO words (stride
/// == chunk count), unmasked — the raw kernel computes tail lanes too.
std::vector<std::uint64_t> single_word_reference(const engine::compiled_netlist& net,
                                                 const engine::wave_batch& batch) {
  const std::size_t chunks = batch.num_chunks();
  std::vector<std::uint64_t> out(chunks * net.num_pos());
  std::vector<std::uint64_t> slots;
  for (std::size_t c = 0; c < chunks; ++c) {
    net.eval([&](std::uint32_t i) { return batch.plane(i)[c]; }, std::uint64_t{0}, slots);
    for (std::size_t p = 0; p < net.num_pos(); ++p) {
      out[p * chunks + c] = net.po_value(slots, p);
    }
  }
  return out;
}

/// Plane-major kernel output over the whole batch (stride == chunk count).
std::vector<std::uint64_t> plane_kernel(const engine::compiled_netlist& net,
                                        const engine::wave_batch& batch,
                                        std::vector<std::uint64_t>& scratch) {
  const std::size_t chunks = batch.num_chunks();
  std::vector<std::uint64_t> out(chunks * net.num_pos());
  net.eval_planes_block(batch.view().planes, batch.view().plane_stride, out.data(), chunks,
                        chunks, scratch);
  return out;
}

TEST(packed_kernel, block_evaluation_is_bit_identical_to_per_chunk) {
  // Every block width the kernel dispatches (1..8 chunks, plus a >8 run
  // that splits internally) must reproduce the single-word evaluation
  // exactly.
  const auto balanced = insert_buffers(gen::random_mig({12, 150, 0.5, 10, 2024})).net;
  const engine::compiled_netlist compiled{balanced};

  std::vector<std::uint64_t> scratch;
  for (const std::size_t num_waves :
       {1ull, 64ull, 129ull, 256ull, 320ull, 448ull, 512ull, 513ull, 1200ull}) {
    const auto waves = random_waves(num_waves, balanced.num_pis(), num_waves * 13 + 1);
    const auto batch = engine::wave_batch::from_waves(waves, balanced.num_pis());
    EXPECT_EQ(plane_kernel(compiled, batch, scratch), single_word_reference(compiled, batch))
        << num_waves << " waves";
  }
}

TEST(packed_kernel, mig4k_planes_match_the_single_word_reference_at_every_opt_level) {
  // The large reference shape: a balanced 4,000-gate random MIG over 8,192
  // waves (128 chunks, 16 full kernel blocks). Every opt level's
  // plane-major kernel must reproduce the single-word evaluation of the raw
  // lowering, so the optimizer and the wide kernels are pinned at a scale
  // the random-MIG harness does not reach.
  const auto balanced = insert_buffers(gen::random_mig({64, 4000, 0.5, 32, 777}));
  std::mt19937_64 rng{4242};
  constexpr std::size_t num_waves = 8192;
  std::vector<std::uint64_t> words(balanced.net.num_pis() * num_waves / 64);
  for (auto& w : words) {
    w = rng();
  }
  const auto batch =
      engine::wave_batch::from_plane_words(std::move(words), balanced.net.num_pis(), num_waves);

  const engine::compiled_netlist raw{balanced.net, balanced.schedule};
  const auto reference = single_word_reference(raw, batch);
  std::vector<std::uint64_t> scratch;
  for (const unsigned level : {0u, 1u, 2u}) {
    const engine::compiled_netlist program{balanced.net, balanced.schedule,
                                           {.opt_level = level}};
    ASSERT_GT(program.num_comb_ops(), 0u);
    EXPECT_EQ(plane_kernel(program, batch, scratch), reference) << "opt level " << level;
  }
}

TEST(packed_waves, unpack_matches_per_bit_output_probe) {
  // 8 POs (one partial 64-PO block) and 130 POs (two full blocks and a
  // partial one), at wave counts on both sides of each chunk edge.
  for (const auto& net : {gen::multiplier_circuit(4), gen::wide_io_circuit(390, 130)}) {
    const auto balanced = insert_buffers(net).net;
    const engine::compiled_netlist compiled{balanced};
    for (const std::size_t num_waves : {0ull, 1ull, 63ull, 64ull, 65ull, 130ull, 193ull, 4097ull}) {
      const auto waves = random_waves(num_waves, balanced.num_pis(), num_waves + 55);
      const auto run = engine::run_waves_packed(
          compiled, engine::wave_batch::from_waves(waves, balanced.num_pis()), 3);
      const auto unpacked = run.unpack();
      ASSERT_EQ(unpacked.size(), num_waves);
      for (std::size_t w = 0; w < num_waves; ++w) {
        ASSERT_EQ(unpacked[w].size(), run.num_pos);
        for (std::size_t p = 0; p < run.num_pos; ++p) {
          if (unpacked[w][p] != run.output(w, p)) {
            FAIL() << run.num_pos << " POs, " << num_waves << " waves: wave " << w << " po "
                   << p;
          }
        }
      }
    }
  }
}

TEST(wave_stream, one_reused_stream_matches_packed_at_every_length) {
  const auto balanced = insert_buffers(gen::multiplier_circuit(4)).net;
  const engine::compiled_netlist compiled{balanced};
  constexpr std::size_t block = engine::wave_stream::block_waves;
  // Sub-chunk, chunk-tail, exact-block, block-boundary, multi-block with a
  // partial tail, and lengths that make the result planes re-stride (grow)
  // more than once — all through one stream, so each run also checks that
  // finish() reset the growing planes.
  engine::wave_stream stream{compiled, 3};
  for (const std::size_t length :
       {std::size_t{1}, std::size_t{63}, block, block + 1, 2 * block + 77, 4 * block,
        5 * block + 3}) {
    const auto waves = random_waves(length, balanced.num_pis(), 57 + length);
    for (const auto& wave : waves) {
      stream.push(wave);
    }
    const auto result = stream.finish();
    const auto reference = engine::run_waves_packed(
        compiled, engine::wave_batch::from_waves(waves, balanced.num_pis()), 3);
    EXPECT_EQ(result.words, reference.words) << "length=" << length;
    EXPECT_EQ(result.num_waves, reference.num_waves) << "length=" << length;
    EXPECT_EQ(result.ticks, reference.ticks) << "length=" << length;
    EXPECT_EQ(stream.waves_pushed(), 0u) << "length=" << length;
  }
}

TEST(wave_batch, append_validates_width_and_leaves_batch_usable) {
  engine::wave_batch batch{3};
  batch.append({true, false, true});
  EXPECT_THROW(batch.append({true}), std::invalid_argument);
  EXPECT_THROW(batch.append({true, false, true, false}), std::invalid_argument);
  EXPECT_THROW(batch.append({}), std::invalid_argument);
  // A rejected append must not corrupt the batch.
  EXPECT_EQ(batch.num_waves(), 1u);
  batch.append({false, true, false});
  EXPECT_EQ(batch.num_waves(), 2u);
  EXPECT_TRUE(batch.input(0, 0));
  EXPECT_FALSE(batch.input(1, 0));
  EXPECT_TRUE(batch.input(1, 1));
}

TEST(wave_stream, rejects_incoherent_netlists_and_bad_widths) {
  const auto net = gen::ripple_adder_circuit(5);
  const engine::compiled_netlist raw{net};
  EXPECT_THROW((engine::wave_stream{raw, 3}), std::invalid_argument);

  const auto balanced = insert_buffers(net).net;
  const engine::compiled_netlist compiled{balanced};
  EXPECT_THROW((engine::wave_stream{compiled, 0}), std::invalid_argument);
  engine::wave_stream stream{compiled, 3};
  EXPECT_THROW(stream.push({true}), std::invalid_argument);
}

// ---------------------------------------------- plane-major data plane ---

TEST(wave_batch, plane_view_exposes_the_transposed_words) {
  const std::size_t num_pis = 5;
  const auto waves = random_waves(200, num_pis, 3001);
  const auto batch = engine::wave_batch::from_waves(waves, num_pis);

  const auto view = batch.view();
  EXPECT_EQ(view.num_signals, num_pis);
  EXPECT_EQ(view.num_chunks, batch.num_chunks());
  for (std::size_t i = 0; i < num_pis; ++i) {
    ASSERT_EQ(view.plane(i), batch.plane(i));
    for (std::size_t w = 0; w < waves.size(); ++w) {
      ASSERT_EQ(((batch.plane(i)[w / 64] >> (w % 64)) & 1u) != 0, waves[w][i])
          << "pi " << i << " wave " << w;
    }
  }
}

/// Audit of the tail-chunk masking contract: at every non-multiple-of-64
/// wave count, per-bool packing, plane-word adoption and result unpack must
/// mask identically — no stray bits above num_waves anywhere in the layout.
TEST(wave_batch, tail_chunks_mask_identically_across_ingestion_paths) {
  const std::size_t num_pis = 6;
  for (const std::size_t num_waves : {1ull, 63ull, 64ull, 65ull, 511ull}) {
    const auto waves = random_waves(num_waves, num_pis, num_waves * 101 + 9);
    const auto reference = engine::wave_batch::from_waves(waves, num_pis);
    ASSERT_EQ(reference.num_chunks(), (num_waves + 63) / 64);

    // Poison the unused tail bits of the bulk input: they must be ignored.
    auto plane_major =
        std::vector<std::uint64_t>(reference.num_chunks() * num_pis, 0);
    for (std::size_t i = 0; i < num_pis; ++i) {
      std::copy_n(reference.plane(i), reference.num_chunks(),
                  plane_major.begin() + static_cast<std::ptrdiff_t>(i * reference.num_chunks()));
    }
    if (num_waves % 64 != 0) {
      const std::uint64_t poison = ~((std::uint64_t{1} << (num_waves % 64)) - 1);
      for (std::size_t i = 0; i < num_pis; ++i) {
        plane_major[i * reference.num_chunks() + reference.num_chunks() - 1] |= poison;
      }
    }

    const auto adopted =
        engine::wave_batch::from_plane_words(plane_major, num_pis, num_waves);
    ASSERT_EQ(adopted.num_waves(), num_waves);
    for (std::size_t i = 0; i < num_pis; ++i) {
      for (std::size_t c = 0; c < adopted.num_chunks(); ++c) {
        ASSERT_EQ(adopted.plane(i)[c], reference.plane(i)[c])
            << num_waves << " waves, pi " << i << " chunk " << c;
      }
    }
    // Appending right after the adoption lands on clean bits.
    auto copy = adopted;
    copy.append(waves[0]);
    for (std::size_t i = 0; i < num_pis; ++i) {
      ASSERT_EQ(copy.input(num_waves, i), waves[0][i]) << num_waves << " waves";
    }

    // unpack() at the same wave counts: exactly num_waves rows, bit-exact.
    const auto balanced = insert_buffers(gen::parity_circuit(num_pis)).net;
    const engine::compiled_netlist compiled{balanced};
    const auto run = engine::run_waves_packed(compiled, reference, 3);
    const auto unpacked = run.unpack();
    ASSERT_EQ(unpacked.size(), num_waves);
    for (std::size_t w = 0; w < num_waves; ++w) {
      for (std::size_t p = 0; p < run.num_pos; ++p) {
        ASSERT_EQ(unpacked[w][p], run.output(w, p)) << num_waves << " waves, wave " << w;
      }
    }
  }
}

TEST(wave_batch, from_plane_words_adopts_and_validates) {
  const std::size_t num_pis = 4;
  const auto waves = random_waves(70, num_pis, 555);
  const auto reference = engine::wave_batch::from_waves(waves, num_pis);

  std::vector<std::uint64_t> planes(reference.num_chunks() * num_pis);
  for (std::size_t i = 0; i < num_pis; ++i) {
    std::copy_n(reference.plane(i), reference.num_chunks(),
                planes.begin() + static_cast<std::ptrdiff_t>(i * reference.num_chunks()));
  }
  const auto adopted = engine::wave_batch::from_plane_words(planes, num_pis, waves.size());
  ASSERT_EQ(adopted.num_waves(), waves.size());
  for (std::size_t w = 0; w < waves.size(); ++w) {
    for (std::size_t i = 0; i < num_pis; ++i) {
      ASSERT_EQ(adopted.input(w, i), waves[w][i]);
    }
  }

  // Size must be exactly chunks * num_pis.
  EXPECT_THROW((void)engine::wave_batch::from_plane_words(
                   std::vector<std::uint64_t>(num_pis * 2 + 1, 0), num_pis, 70),
               std::invalid_argument);
  EXPECT_THROW((void)engine::wave_batch::from_plane_words({}, num_pis, 70),
               std::invalid_argument);
}

TEST(wave_batch, a_zero_pi_batch_cannot_declare_a_result_too_large_to_count) {
  // A 0-PI batch carries no words, so any wave count matches its empty
  // buffer. 2^62 waves of a 256-output program need 2^64 result words: the
  // count wraps to 0, and an unchecked run wrote through the empty result.
  mig_network net;
  for (int p = 0; p < 256; ++p) {
    net.create_po(net.get_constant(p % 2 == 0));
  }
  const auto program = std::make_shared<const engine::compiled_netlist>(net);
  const std::size_t huge = std::size_t{1} << 62;
  const auto batch = engine::wave_batch::from_plane_words({}, 0, huge);
  EXPECT_EQ(batch.num_chunks(), huge / 64);
  EXPECT_EQ(engine::wave_batch::from_plane_words({}, 0, ~std::size_t{0}).num_chunks(),
            ~std::size_t{0} / 64 + 1);  // no wrap at the top either

  EXPECT_THROW((void)engine::run_waves_packed(*program, batch, 3), std::invalid_argument);
  engine::parallel_executor executor{2};
  EXPECT_THROW((void)engine::run_waves_parallel(*program, batch, 3, executor),
               std::invalid_argument);
  engine::serving_session serving{executor};
  auto future = serving.submit_packed(std::make_shared<const mig_network>(net), {}, huge, 3);
  EXPECT_THROW((void)future.get(), std::invalid_argument);

  // The same program still runs a countable batch.
  const auto small =
      engine::run_waves_packed(*program, engine::wave_batch::from_plane_words({}, 0, 65), 3);
  EXPECT_EQ(small.words.size(), 256u * 2);
  EXPECT_TRUE(small.output(64, 0));
  EXPECT_FALSE(small.output(64, 1));
}

TEST(packed_waves, result_tail_bits_above_num_waves_are_zero) {
  // A complemented output drives the kernel's tail lanes to 1 (the batch's
  // zeroed tail inputs, inverted); the front-ends must mask them so result
  // views uphold the containers' tail-zero invariant.
  mig_network net;
  const signal a = net.create_pi();
  net.create_po(!a);
  const engine::compiled_netlist compiled{net};

  for (const std::size_t num_waves : {1ull, 63ull, 65ull, 511ull}) {
    const auto waves = random_waves(num_waves, 1, num_waves);
    const auto batch = engine::wave_batch::from_waves(waves, 1);
    const auto run = engine::run_waves_packed(compiled, batch, 3);
    const std::size_t tail = num_waves % 64;
    ASSERT_NE(tail, 0u);
    const std::uint64_t above = ~((std::uint64_t{1} << tail) - 1);
    for (std::size_t p = 0; p < run.num_pos; ++p) {
      EXPECT_EQ(run.plane(p)[run.num_chunks() - 1] & above, 0u)
          << num_waves << " waves, po " << p;
    }

    engine::wave_stream stream{compiled, 3};
    for (const auto& wave : waves) {
      stream.push(wave);
    }
    const auto streamed = stream.finish();
    for (std::size_t p = 0; p < streamed.num_pos; ++p) {
      EXPECT_EQ(streamed.plane(p)[streamed.num_chunks() - 1] & above, 0u)
          << num_waves << " waves (stream), po " << p;
    }
  }
}

TEST(engine_scalar, matches_interpreter_semantics_on_unbalanced_nets) {
  // The engine's tick program must preserve wave interference, not paper
  // over it: compare against the combinational reference and expect a
  // mismatch, exactly like the interpreter-era test.
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  signal deep = net.create_maj(a, b, c);
  for (int i = 0; i < 4; ++i) {
    deep = net.create_maj(deep, b, !c);
  }
  net.create_po(net.create_maj(deep, a, b));

  std::vector<std::vector<bool>> waves;
  for (int w = 0; w < 8; ++w) {
    waves.emplace_back(3, w % 2 == 1);
  }
  const auto run = run_waves(net, waves, 3);
  std::vector<std::vector<bool>> reference;
  for (const auto& wave : waves) {
    reference.push_back(simulate_pattern(net, wave));
  }
  EXPECT_NE(run.outputs, reference);
}

TEST(engine_scalar, run_waves_validates_inputs) {
  mig_network net;
  net.create_pi();
  net.create_po(constant0);
  EXPECT_THROW(run_waves(net, {{true, false}}, 3), std::invalid_argument);
  EXPECT_THROW(run_waves(net, {{true}}, 0), std::invalid_argument);
  level_map bad_schedule;
  bad_schedule.level.assign(1, 0);  // wrong size
  EXPECT_THROW(run_waves(net, {{true}}, 3, bad_schedule), std::invalid_argument);
}

TEST(engine_scalar, simulate_pattern_validates_width) {
  mig_network net;
  net.create_pi();
  net.create_pi();
  net.create_po(constant1);
  EXPECT_THROW(simulate_pattern(net, {true}), std::invalid_argument);
  EXPECT_THROW(simulate_pattern(net, {true, false, true}), std::invalid_argument);
}

}  // namespace
}  // namespace wavemig
