// Unit and property tests of the compiled-program optimizer
// (engine/optimizer.hpp): targeted constructions for each pass — constant
// /functional folding of majority gates, structural hashing (CSE) under
// self-duality, dead-cone removal, liveness-based slot recycling — plus the
// acceptance property that randomized MIGs evaluate bit-identically at
// every opt level through every execution path (scalar, packed, parallel,
// async serving).
//
// The network builder already hashes and folds plain majority gates, so
// the constructions route operands through buffers (never hashed): after
// lowering folds the buffers away by reference forwarding, the redundancy
// becomes visible to the optimizer exactly as it does on balanced netlists.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/serving.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/mig.hpp"

namespace wavemig {
namespace {

using engine::compile_options;
using engine::compiled_netlist;

/// Random PI words for cross-checking two compiled programs combinationally.
std::vector<std::uint64_t> random_words(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::vector<std::uint64_t> words(count);
  for (auto& w : words) {
    w = rng();
  }
  return words;
}

void expect_same_function(const compiled_netlist& a, const compiled_netlist& b,
                          std::size_t num_pis, std::uint64_t seed) {
  for (int round = 0; round < 4; ++round) {
    const auto words = random_words(num_pis, seed + round);
    EXPECT_EQ(a.eval_words(words), b.eval_words(words)) << "round " << round;
  }
}

/// Peak liveness of a program that writes one slot per op (opt level 1):
/// the most gate values live at once, each counted from its op to its last
/// reader. An op's last-use operands die before its target is born, as in
/// the slot recycler of opt level 2. A value no op reads lives to the end;
/// in the networks below only the output's is such.
std::size_t peak_live_values(const compiled_netlist& program, std::size_t fixed) {
  const auto& ops = program.comb_ops();
  constexpr std::size_t never = ~std::size_t{0};
  std::vector<std::size_t> last_use(program.comb_slot_count(), never);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (const engine::slot_ref ref : {ops[i].a, ops[i].b, ops[i].c}) {
      last_use[ref >> 1] = i;
    }
  }
  std::vector<std::uint8_t> dead(program.comb_slot_count(), 0);
  std::size_t live = 0;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (const engine::slot_ref ref : {ops[i].a, ops[i].b, ops[i].c}) {
      const std::size_t slot = ref >> 1;
      if (slot >= fixed && last_use[slot] == i && dead[slot] == 0) {
        dead[slot] = 1;
        --live;
      }
    }
    peak = std::max(peak, ++live);
  }
  return peak;
}

TEST(optimizer, folds_duplicate_operand_majorities) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  // maj(a, a, b) hidden behind two distinct buffers.
  const signal m = net.create_maj(net.create_buffer(a), net.create_buffer(a), b);
  net.create_po(m);

  const auto raw = compiled_netlist::comb_only(net);
  const auto opt = compiled_netlist::comb_only(net, {.opt_level = 1});
  EXPECT_EQ(raw.num_comb_ops(), 1u);
  EXPECT_EQ(opt.num_comb_ops(), 0u);
  expect_same_function(raw, opt, net.num_pis(), 101);
}

TEST(optimizer, folds_complement_pair_and_constant_majorities) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  // maj(a, !a, b) = b — complement pair via buffers.
  net.create_po(net.create_maj(net.create_buffer(a), !net.create_buffer(a), b));
  // maj(0, 1, a) = a — both constants via buffers.
  net.create_po(net.create_maj(net.create_buffer(net.get_constant(false)),
                               net.create_buffer(net.get_constant(true)), a));
  // maj(1, 1, b) = 1 — a constant-valued output.
  net.create_po(net.create_maj(net.create_buffer(net.get_constant(true)),
                               net.create_buffer(net.get_constant(true)), b));

  const auto raw = compiled_netlist::comb_only(net);
  const auto opt = compiled_netlist::comb_only(net, {.opt_level = 1});
  EXPECT_EQ(raw.num_comb_ops(), 3u);
  EXPECT_EQ(opt.num_comb_ops(), 0u);
  expect_same_function(raw, opt, net.num_pis(), 202);
}

TEST(optimizer, cse_merges_structurally_identical_gates) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  // Two copies of maj(a, b, c), distinct at build time thanks to buffers.
  const signal g1 = net.create_maj(net.create_buffer(a), b, c);
  const signal g2 = net.create_maj(net.create_buffer(a), b, c);
  net.create_po(g1);
  net.create_po(g2);

  const auto raw = compiled_netlist::comb_only(net);
  const auto opt = compiled_netlist::comb_only(net, {.opt_level = 1});
  EXPECT_EQ(raw.num_comb_ops(), 2u);
  EXPECT_EQ(opt.num_comb_ops(), 1u);
  expect_same_function(raw, opt, net.num_pis(), 303);
}

TEST(optimizer, cse_canonicalizes_under_self_duality) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal g1 = net.create_maj(net.create_buffer(a), b, c);
  // maj(!a, !b, !c) = !maj(a, b, c): same gate modulo output polarity.
  const signal g2 = net.create_maj(!net.create_buffer(a), !b, !c);
  net.create_po(g1);
  net.create_po(g2);

  const auto raw = compiled_netlist::comb_only(net);
  const auto opt = compiled_netlist::comb_only(net, {.opt_level = 1});
  EXPECT_EQ(raw.num_comb_ops(), 2u);
  EXPECT_EQ(opt.num_comb_ops(), 1u);
  expect_same_function(raw, opt, net.num_pis(), 404);
}

TEST(optimizer, removes_cones_dead_from_the_outputs) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal live = net.create_maj(a, b, c);
  // A two-gate cone no PO reaches (buffers keep it distinct from `live`).
  const signal d1 = net.create_maj(net.create_buffer(a), b, !c);
  (void)net.create_maj(d1, net.create_buffer(b), c);
  net.create_po(live);

  const auto raw = compiled_netlist::comb_only(net);
  const auto opt = compiled_netlist::comb_only(net, {.opt_level = 1});
  EXPECT_EQ(raw.num_comb_ops(), 3u);
  EXPECT_EQ(opt.num_comb_ops(), 1u);
  expect_same_function(raw, opt, net.num_pis(), 505);
}

TEST(optimizer, slot_recycling_shrinks_scratch_to_peak_liveness) {
  // A 50-gate chain: each gate's single gate-operand dies at its consumer,
  // so peak liveness is exactly one gate slot regardless of chain length.
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  signal t = net.create_maj(a, b, c);
  constexpr std::size_t chain = 50;
  for (std::size_t i = 1; i < chain; ++i) {
    t = net.create_maj(t, b, i % 2 == 0 ? c : !c);
  }
  net.create_po(t);

  const std::size_t fixed = 1 + net.num_pis();
  const auto raw = compiled_netlist::comb_only(net);
  const auto opt1 = compiled_netlist::comb_only(net, {.opt_level = 1});
  const auto opt2 = compiled_netlist::comb_only(net, {.opt_level = 2});

  EXPECT_EQ(raw.comb_slot_count(), fixed + chain);
  EXPECT_EQ(opt1.comb_slot_count(), fixed + chain);  // no recycling below level 2
  EXPECT_EQ(opt2.comb_slot_count(), fixed + 1);
  EXPECT_EQ(peak_live_values(opt1, fixed), 1u);
  EXPECT_EQ(opt2.num_comb_ops(), chain);  // recycling removes slots, not ops
  expect_same_function(raw, opt2, net.num_pis(), 606);
}

TEST(optimizer, peak_liveness_accounts_for_fan_out_lifetimes) {
  // Balanced binary reduction over 8 leaves: the widest live front is the
  // leaf layer, and recycling cannot beat it. The gate slots at level 2
  // must equal the peak liveness of the level-1 order exactly (the
  // accounting identity). Each leaf reads three distinct PIs, two through
  // buffers, so no leaf or reduction gate folds: the programs keep all 15
  // ops and the identity is not 0 == 0.
  mig_network net;
  std::vector<signal> pis;
  for (int i = 0; i < 10; ++i) {
    pis.push_back(net.create_pi());
  }
  std::vector<signal> layer;
  for (std::size_t i = 0; i < 8; ++i) {
    layer.push_back(
        net.create_maj(net.create_buffer(pis[i]), net.create_buffer(pis[i + 1]), pis[i + 2]));
  }
  while (layer.size() > 1) {
    std::vector<signal> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(net.create_maj(layer[i], layer[i + 1], pis[0]));
    }
    layer = std::move(next);
  }
  net.create_po(layer[0]);

  const std::size_t fixed = 1 + net.num_pis();
  const auto opt1 = compiled_netlist::comb_only(net, {.opt_level = 1});
  const auto opt2 = compiled_netlist::comb_only(net, {.opt_level = 2});
  ASSERT_EQ(opt1.num_comb_ops(), 15u);
  ASSERT_GT(opt2.num_comb_ops(), 0u);
  EXPECT_EQ(peak_live_values(opt1, fixed), 8u);  // the leaf layer
  EXPECT_EQ(opt2.comb_slot_count() - fixed, peak_live_values(opt1, fixed));
  EXPECT_LE(opt2.comb_slot_count(), compiled_netlist::comb_only(net).comb_slot_count());
  expect_same_function(compiled_netlist::comb_only(net), opt2, net.num_pis(), 707);
}

TEST(optimizer, opt_levels_are_bit_identical_across_all_execution_paths) {
  engine::parallel_executor executor{2};
  const unsigned phases = 3;

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gen::random_mig_profile profile;
    profile.inputs = 8 + 2 * static_cast<unsigned>(seed);
    profile.gates = 100 + 30 * static_cast<unsigned>(seed);
    profile.outputs = 6 + static_cast<unsigned>(seed);
    profile.locality = 0.3 + 0.1 * static_cast<double>(seed);
    profile.seed = seed * 1337;
    const auto net = gen::random_mig(profile);
    const auto balanced = insert_buffers(net);

    std::mt19937_64 rng{seed ^ 0xBEEF};
    std::vector<std::vector<bool>> waves(700, std::vector<bool>(net.num_pis()));
    for (auto& wave : waves) {  // > 1 multi-chunk block
      for (std::size_t i = 0; i < wave.size(); ++i) {
        wave[i] = (rng() & 1u) != 0;
      }
    }
    const auto batch = engine::wave_batch::from_waves(waves, net.num_pis());

    const compiled_netlist baseline{balanced.net, balanced.schedule};
    const auto reference = engine::run_waves_packed(baseline, batch, phases);
    const engine::tick_program ticks{balanced.net, balanced.schedule};

    for (const unsigned level : {0u, 1u, 2u}) {
      const compile_options copts{.opt_level = level};
      const compiled_netlist compiled{balanced.net, balanced.schedule, copts};
      EXPECT_LE(compiled.num_comb_ops(), baseline.num_comb_ops()) << "level " << level;

      const auto packed = engine::run_waves_packed(compiled, batch, phases);
      EXPECT_EQ(packed.words, reference.words) << "packed, level " << level;

      const auto parallel = engine::run_waves_parallel(compiled, batch, phases, executor);
      EXPECT_EQ(parallel.words, reference.words) << "parallel, level " << level;

      engine::serving_session serving{executor, {}, {}, 0, copts};
      const auto async =
          serving.submit(std::make_shared<const mig_network>(net), batch, phases).get();
      EXPECT_EQ(async.words, reference.words) << "async, level " << level;

      // Scalar cycle-accurate path: the tick program is never optimized,
      // but must agree with the optimized packed program, clock included.
      const auto scalar = engine::run_waves(ticks, waves, phases);
      EXPECT_EQ(scalar.outputs, packed.unpack()) << "scalar vs packed, level " << level;
      EXPECT_EQ(scalar.ticks, packed.ticks) << "scalar vs packed, level " << level;
    }
  }
}

// ------------------------------------------------------- program order ---

/// Asserts the program is topologically valid: every gate operand is either
/// fixed (constant / PI) or written by an earlier op. (Slot recycling at
/// opt level >= 2 reuses targets, so slots may be written more than once;
/// `expect_same_function` covers value correctness under reuse.)
void expect_topologically_valid(const compiled_netlist& program, std::size_t num_pis) {
  const std::size_t fixed = 1 + num_pis;
  std::vector<std::uint8_t> produced(program.comb_slot_count(), 0);
  std::size_t position = 0;
  for (const auto& op : program.comb_ops()) {
    for (const engine::slot_ref ref : {op.a, op.b, op.c}) {
      const std::size_t slot = ref >> 1;
      EXPECT_TRUE(slot < fixed || produced[slot])
          << "op " << position << " reads slot " << slot << " before its producer";
    }
    produced[op.target] = 1;
    ++position;
  }
}

TEST(optimizer, preserves_topological_validity_and_outputs_on_random_migs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::random_mig_profile profile;
    profile.inputs = 10 + 2 * static_cast<unsigned>(seed);
    profile.gates = 120 + 50 * static_cast<unsigned>(seed);
    profile.outputs = 5 + static_cast<unsigned>(seed);
    profile.locality = 0.25 + 0.1 * static_cast<double>(seed);
    profile.seed = seed * 7919;
    const auto net = gen::random_mig(profile);

    const auto baseline = compiled_netlist::comb_only(net);
    for (const unsigned opt : {0u, 1u, 2u}) {
      const auto program = compiled_netlist::comb_only(net, {.opt_level = opt});
      expect_topologically_valid(program, net.num_pis());
      expect_same_function(baseline, program, net.num_pis(), seed * 31 + opt * 7);
    }
  }
}

TEST(optimizer, options_fingerprint_separates_every_knob) {
  const compile_options base{};
  const auto fp = [](const compile_options& o) { return engine::options_fingerprint(o); };
  EXPECT_NE(fp(base), fp({.opt_level = 2}));
  EXPECT_NE(fp({.opt_level = 1}), fp({.opt_level = 2}));
  EXPECT_NE(fp(base), fp({.scenario_fingerprint = 7}));
  EXPECT_NE(fp(base), fp({.fdm_lanes = 4}));
  // Same options, same fingerprint — it keys a cache.
  EXPECT_EQ(fp({.opt_level = 2, .fdm_lanes = 4}), fp({.opt_level = 2, .fdm_lanes = 4}));
}

TEST(optimizer, session_programs_show_their_opt_level) {
  engine::parallel_executor executor{2};
  const auto net = gen::random_mig({10, 120, 0.5, 8, 42});
  engine::wave_batch batch{net.num_pis()};
  batch.append(std::vector<bool>(net.num_pis(), true));

  engine::batch_session raw_session{executor};
  engine::batch_session opt_session{executor, {}, {}, {.opt_level = 2}};
  const auto raw_run = raw_session.run(net, batch, 3);
  const auto opt_run = opt_session.run(net, batch, 3);
  EXPECT_EQ(raw_run.words, opt_run.words);

  ASSERT_EQ(raw_session.stats().entries, 1u);
  ASSERT_EQ(opt_session.stats().entries, 1u);

  // The cached programs (hits now) show what the optimizer did.
  const auto raw = raw_session.compile(net, 3);
  const auto opt = opt_session.compile(net, 3);
  EXPECT_EQ(raw_session.stats().hits, 1u);
  EXPECT_EQ(opt_session.stats().hits, 1u);
  EXPECT_EQ(raw->options().opt_level, 0u);
  EXPECT_EQ(opt->options().opt_level, 2u);
  EXPECT_GT(raw->num_comb_ops(), 0u);
  EXPECT_LE(opt->num_comb_ops(), raw->num_comb_ops());
  EXPECT_LT(opt->comb_slot_count(), raw->comb_slot_count());
}

TEST(optimizer, opt_levels_occupy_distinct_cache_entries) {
  engine::parallel_executor executor{2};
  engine::batch_session session{executor};
  const auto net = gen::random_mig({12, 200, 0.5, 8, 99});
  const std::uint64_t fp = engine::network_fingerprint(net);

  const auto raw = session.compile(net, 3, nullptr, compile_options{.opt_level = 0}, fp);
  const auto opt = session.compile(net, 3, nullptr, compile_options{.opt_level = 2}, fp);
  // Distinct entries, distinct programs — an opt level can never be served
  // a program compiled at another.
  EXPECT_EQ(session.stats().entries, 2u);
  EXPECT_NE(raw.get(), opt.get());
  EXPECT_EQ(raw->options().opt_level, 0u);
  EXPECT_EQ(opt->options().opt_level, 2u);

  // Re-requesting either level hits its own entry, never the other's.
  EXPECT_EQ(session.compile(net, 3, nullptr, compile_options{.opt_level = 0}, fp).get(),
            raw.get());
  EXPECT_EQ(session.compile(net, 3, nullptr, compile_options{.opt_level = 2}, fp).get(),
            opt.get());
  EXPECT_EQ(session.stats().entries, 2u);

  // Same function either way, in fewer slots at level 2.
  expect_same_function(*raw, *opt, net.num_pis(), 909);
  EXPECT_LT(opt->comb_slot_count(), raw->comb_slot_count());
}

TEST(optimizer, serving_requests_pin_their_compile_options) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor};
  const auto net = std::make_shared<mig_network>(gen::random_mig({12, 200, 0.5, 8, 99}));

  engine::wave_batch batch{net->num_pis()};
  std::mt19937_64 rng{777};
  for (int w = 0; w < 70; ++w) {
    std::vector<bool> wave(net->num_pis());
    for (auto&& bit : wave) {
      bit = (rng() & 1u) != 0;
    }
    batch.append(wave);
  }

  engine::submit_options raw_opts;
  raw_opts.compile = compile_options{.opt_level = 0};
  engine::submit_options opt_opts;
  opt_opts.compile = compile_options{.opt_level = 2};

  auto raw_future = serving.submit(net, batch, 3, raw_opts);
  auto opt_future = serving.submit(net, batch, 3, opt_opts);
  const auto raw_result = raw_future.get();
  const auto opt_result = opt_future.get();
  EXPECT_EQ(raw_result.words, opt_result.words);
  // Two resident programs: the per-request overrides never cross-served.
  EXPECT_EQ(serving.stats().entries, 2u);
}

// ------------------------------------------------------- polarity form ---

/// Networks whose majority gates, once their buffers fold, read two and
/// three complemented operands, plus random MIGs with complemented edges
/// (their gates hold at most one, in any position).
std::vector<std::pair<std::string, mig_network>> polarity_networks() {
  std::vector<std::pair<std::string, mig_network>> nets;
  {
    mig_network net;
    const signal a = net.create_pi();
    const signal b = net.create_pi();
    const signal c = net.create_pi();
    const signal x = net.create_buffer(!a);
    const signal w = net.create_buffer(!b);
    net.create_po(net.create_maj(x, w, c));
    nets.emplace_back("MAJ(BUF(!a), BUF(!b), c)", std::move(net));
  }
  {
    mig_network net;
    const signal a = net.create_pi();
    const signal b = net.create_pi();
    const signal c = net.create_pi();
    const signal y = net.create_maj(net.create_buffer(!a), net.create_buffer(!b),
                                    net.create_buffer(!c));
    net.create_po(y);
    net.create_po(!y);
    nets.emplace_back("MAJ(BUF(!a), BUF(!b), BUF(!c))", std::move(net));
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    nets.emplace_back("random seed " + std::to_string(seed),
                      gen::random_mig({6 + 2 * static_cast<unsigned>(seed),
                                       60 * static_cast<unsigned>(seed), 0.5, 5, seed * 104729}));
  }
  return nets;
}

TEST(polarity_form, every_op_complements_at_most_its_first_operand) {
  // The kernel XORs one complement mask per op, on operand a: every program
  // of every constructor, at every opt level, must be in that form.
  const unsigned phases = 3;
  for (const auto& [name, net] : polarity_networks()) {
    const auto balanced = insert_buffers(net);
    const auto plan = plan_balance(net);
    const engine::tick_program ticks{balanced.net, balanced.schedule};

    std::mt19937_64 rng{net.num_nodes()};
    std::vector<std::vector<bool>> waves(130, std::vector<bool>(net.num_pis()));
    for (auto& wave : waves) {
      for (std::size_t i = 0; i < wave.size(); ++i) {
        wave[i] = (rng() & 1u) != 0;
      }
    }
    const auto batch = engine::wave_batch::from_waves(waves, net.num_pis());
    const auto oracle = engine::run_waves(ticks, waves, phases);

    for (const unsigned level : {0u, 1u, 2u}) {
      const compile_options copts{.opt_level = level};
      const std::pair<const char*, compiled_netlist> programs[] = {
          {"levels", compiled_netlist{balanced.net, copts}},
          {"schedule", compiled_netlist{balanced.net, balanced.schedule, copts}},
          {"balance plan", compiled_netlist{net, plan, copts}},
          {"comb_only", compiled_netlist::comb_only(net, copts)},
      };
      for (const auto& [constructor, program] : programs) {
        const std::string what = name + ", " + constructor + ", opt " + std::to_string(level);
        for (std::size_t i = 0; i < program.num_comb_ops(); ++i) {
          const auto& o = program.comb_ops()[i];
          EXPECT_EQ((o.b | o.c) & 1u, 0u) << what << ": op " << i;
        }
        if (level == 0) {
          EXPECT_EQ(program.num_comb_ops(), net.num_majorities()) << what;
        }
        if (program.wave_coherent(phases)) {
          const auto packed = engine::run_waves_packed(program, batch, phases);
          EXPECT_EQ(packed.unpack(), oracle.outputs) << what;
          EXPECT_EQ(packed.ticks, oracle.ticks) << what;
        } else {
          // comb_only carries no clock: run its planes through the kernel.
          ASSERT_STREQ(constructor, "comb_only");
          engine::packed_wave_result comb{program.num_pos(), waves.size(), {}};
          comb.words.resize(program.num_pos() * batch.num_chunks());
          std::vector<std::uint64_t> scratch;
          const auto view = batch.view();
          program.eval_planes_block(view.planes, view.plane_stride, comb.words.data(),
                                    view.num_chunks, view.num_chunks, scratch);
          EXPECT_EQ(comb.unpack(), oracle.outputs) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace wavemig
