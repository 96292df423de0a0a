// Coverage for the serving layer added on top of batch_session: the bounded
// LRU compiled-netlist cache (entry/byte bounds, session_stats counters,
// fingerprint-keyed reuse, eviction racing in-flight requests) and the async
// serving_session API (futures, completion callbacks, drain/close). The
// concurrency tests here run under the TSan CI job alongside
// test_parallel_engine.

#include "wavemig/engine/serving.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/tech_scenario.hpp"

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

engine::wave_batch batch_for(const mig_network& net, std::size_t count, std::uint64_t seed) {
  return engine::wave_batch::from_waves(random_waves(count, net.num_pis(), seed),
                                        net.num_pis());
}

/// What the session caches for `net`: the resident bytes of the program a
/// fresh session compiles. Sizing byte bounds from this keeps the tests
/// independent of the lowering's memory layout.
std::size_t program_bytes(const mig_network& net) {
  engine::parallel_executor executor{1};
  engine::batch_session fresh{executor};
  return fresh.compile(net, 3)->memory_bytes();
}

/// One PI feeding three level-1 gates: more taps than a buffer tree of
/// fan-out 2 can hang off its driver.
mig_network overloaded_pi() {
  mig_network net;
  const signal u = net.create_pi("u");
  const signal x = net.create_pi("x");
  const signal y = net.create_pi("y");
  net.create_po(net.create_maj(u, x, y));
  net.create_po(net.create_maj(u, x, !y));
  net.create_po(net.create_maj(u, !x, y));
  return net;
}

const buffer_insertion_options narrow_trees{.strategy = buffer_strategy::tree,
                                            .fanout_limit = 2};

/// The message `insert_buffers` refuses `net` with under `options`.
std::string refusal_of(const mig_network& net, const buffer_insertion_options& options) {
  try {
    (void)insert_buffers(net, options);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

engine::packed_wave_result packed_reference(const mig_network& net,
                                            const engine::wave_batch& batch,
                                            unsigned phases) {
  const auto balanced = insert_buffers(net);
  const engine::compiled_netlist compiled{balanced.net, balanced.schedule};
  return engine::run_waves_packed(compiled, batch, phases);
}

// ------------------------------------------------------ bounded cache ---

TEST(cache_eviction, entry_bound_evicts_least_recently_used) {
  engine::parallel_executor executor{2};
  engine::batch_session session{executor, {}, {.max_entries = 2}};

  const auto a = gen::ripple_adder_circuit(4);
  const auto b = gen::ripple_adder_circuit(5);
  const auto c = gen::ripple_adder_circuit(6);
  const auto run = [&](const mig_network& net) {
    (void)session.run(net, batch_for(net, 70, 11), 3);
  };

  run(a);
  run(b);
  EXPECT_EQ(session.stats().entries, 2u);
  EXPECT_EQ(session.stats().evictions, 0u);

  run(a);  // touch: a becomes most recent, so b is the LRU victim
  run(c);
  const auto after_c = session.stats();
  EXPECT_EQ(after_c.entries, 2u);
  EXPECT_EQ(after_c.evictions, 1u);

  run(a);  // still resident
  EXPECT_EQ(session.stats().hits, after_c.hits + 1);
  run(b);  // evicted above: compiles again
  EXPECT_EQ(session.stats().misses, after_c.misses + 1);
}

TEST(cache_eviction, zero_phase_request_leaves_the_hot_entry_resident) {
  engine::parallel_executor executor{2};
  engine::batch_session session{executor, {}, {.max_entries = 1}};
  const auto hot = gen::ripple_adder_circuit(4);
  const auto other = gen::multiplier_circuit(3);
  (void)session.run(hot, batch_for(hot, 70, 11), 3);
  const auto before = session.stats();

  // A malformed request against another circuit is refused before the
  // lookup: no miss, no compile, and above all no eviction of `hot`.
  EXPECT_THROW((void)session.run(other, batch_for(other, 70, 12), 0), std::invalid_argument);
  EXPECT_THROW((void)session.compile(other, 0), std::invalid_argument);
  const auto after = session.stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_EQ(after.entries, 1u);

  (void)session.run(hot, batch_for(hot, 70, 13), 3);
  EXPECT_EQ(session.stats().hits, before.hits + 1);
}

TEST(cache_eviction, byte_bound_is_a_hard_ceiling) {
  const auto a = gen::ripple_adder_circuit(4);
  const auto b = gen::multiplier_circuit(3);
  const auto c = gen::parity_circuit(10);
  const std::size_t bound = program_bytes(a) + program_bytes(b);

  engine::parallel_executor executor{2};
  engine::batch_session session{executor, {}, {.max_bytes = bound}};

  for (const auto* net : {&a, &b, &c, &a, &c, &b}) {
    (void)session.run(*net, batch_for(*net, 64, 5), 3);
    const auto stats = session.stats();
    EXPECT_LE(stats.bytes, bound);
    EXPECT_LE(stats.entries, 2u);
  }
  EXPECT_GT(session.stats().evictions, 0u);
}

TEST(cache_eviction, tree_capacity_refusal_caches_and_counts_nothing) {
  // A cache miss builds no buffer, yet refuses exactly what insert_buffers
  // refuses, with the same exception, before anything is cached or counted.
  const auto net = overloaded_pi();
  const std::string expected = refusal_of(net, narrow_trees);
  ASSERT_FALSE(expected.empty());

  engine::parallel_executor executor{2};
  engine::batch_session session{executor, narrow_trees};
  try {
    (void)session.compile(net, 3);
    ADD_FAILURE() << "compile accepted a netlist insert_buffers refuses";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string{e.what()}, expected);
  }
  const auto stats = session.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(cache_eviction, oversized_entry_is_evicted_but_still_serves) {
  const auto net = gen::ripple_adder_circuit(6);
  engine::parallel_executor executor{2};
  engine::batch_session session{executor, {}, {.max_bytes = 1}};

  const auto batch = batch_for(net, 150, 3);
  const auto got = session.run(net, batch, 3);
  EXPECT_EQ(got.words, packed_reference(net, batch, 3).words);

  const auto stats = session.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 1u);

  // Nothing stays resident, so a repeat is a miss — bounded means bounded.
  (void)session.run(net, batch, 3);
  EXPECT_EQ(session.stats().misses, 2u);
}

TEST(cache_eviction, fingerprint_is_stable_across_equivalent_networks) {
  // Same structure, different names: one cache entry, second run is a hit.
  mig_network named;
  named.create_po(
      named.create_maj(named.create_pi("x"), named.create_pi("y"), named.create_pi("z")),
      "f");
  mig_network renamed;
  renamed.create_po(renamed.create_maj(renamed.create_pi("p"), renamed.create_pi("q"),
                                       renamed.create_pi("r")),
                    "g");

  engine::parallel_executor executor{2};
  engine::batch_session session{executor, {}, {.max_entries = 4}};
  const auto batch = batch_for(named, 40, 17);
  const auto first = session.run(named, batch, 3);
  const auto second = session.run(renamed, batch, 3);
  EXPECT_EQ(first.words, second.words);
  EXPECT_EQ(session.stats().misses, 1u);
  EXPECT_EQ(session.stats().hits, 1u);
  EXPECT_EQ(session.stats().entries, 1u);
}

TEST(cache_eviction, stats_counters_are_consistent) {
  engine::parallel_executor executor{2};
  engine::batch_session session{executor, {}, {.max_entries = 2}};

  const auto nets = std::vector<mig_network>{gen::ripple_adder_circuit(4),
                                             gen::parity_circuit(8),
                                             gen::multiplier_circuit(3)};
  std::uint64_t runs = 0;
  for (int round = 0; round < 3; ++round) {
    for (const auto& net : nets) {
      (void)session.run(net, batch_for(net, 64, round + 1), 3);
      ++runs;
      const auto stats = session.stats();
      EXPECT_EQ(stats.hits + stats.misses, runs);
      EXPECT_EQ(stats.entries, std::min<std::uint64_t>(runs, 2));
    }
  }
  // Round-robin over 3 circuits with room for 2 thrashes forever.
  EXPECT_GT(session.stats().evictions, 0u);
}

TEST(cache_eviction, compile_reference_survives_eviction) {
  const auto net = gen::ripple_adder_circuit(5);
  engine::parallel_executor executor{2};
  engine::batch_session session{executor, {}, {.max_entries = 1}};

  const auto program = session.compile(net, 3);
  const auto other = gen::multiplier_circuit(3);
  (void)session.run(other, batch_for(other, 64, 9), 3);  // evicts `net`'s entry
  EXPECT_EQ(session.stats().evictions, 1u);

  // The evicted program is still fully usable through our reference.
  const auto batch = batch_for(net, 100, 21);
  const auto got = engine::run_waves_parallel(*program, batch, 3, executor);
  EXPECT_EQ(got.words, packed_reference(net, batch, 3).words);
}

// ----------------------------------------------------- serving session ---

TEST(serving_session, futures_are_bit_identical_to_packed) {
  engine::parallel_executor executor{4};
  engine::serving_session serving{executor};

  const auto net = std::make_shared<const mig_network>(gen::multiplier_circuit(4));
  std::vector<engine::wave_batch> batches;
  std::vector<std::future<engine::packed_wave_result>> futures;
  for (int i = 0; i < 6; ++i) {
    batches.push_back(batch_for(*net, 100 + 17 * i, 100 + i));
  }
  for (const auto& batch : batches) {
    futures.push_back(serving.submit(net, batch, 3));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto got = futures[i].get();
    const auto want = packed_reference(*net, batches[i], 3);
    EXPECT_EQ(got.words, want.words) << "request " << i;
    EXPECT_EQ(got.num_waves, want.num_waves) << "request " << i;
    EXPECT_EQ(got.ticks, want.ticks) << "request " << i;
  }
  // One circuit, six requests, one resident program. Two dispatchers may
  // both miss on the first sight of the circuit (documented batch_session
  // behavior), so the exact hit/miss split is timing-dependent.
  const auto stats = serving.stats();
  EXPECT_EQ(stats.hits + stats.misses, 6u);
  EXPECT_GE(stats.misses, 1u);
  EXPECT_LE(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(serving_session, callback_variant_completes_with_result) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor};

  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(5));
  const auto batch = batch_for(*net, 130, 77);
  const auto want = packed_reference(*net, batch, 3);

  std::promise<engine::packed_wave_result> delivered;
  serving.submit(net, batch, 3,
                 [&](engine::packed_wave_result result, std::exception_ptr error) {
                   ASSERT_EQ(error, nullptr);
                   delivered.set_value(std::move(result));
                 });
  EXPECT_EQ(delivered.get_future().get().words, want.words);
}

TEST(serving_session, errors_surface_through_future_and_callback) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));

  // phases == 0 is rejected on the dispatcher before the cache is touched:
  // nothing compiles, nothing is counted, nothing becomes resident — for
  // the batch and the packed payload alike.
  auto bad_phases = serving.submit(net, batch_for(*net, 10, 1), 0);
  EXPECT_THROW(bad_phases.get(), std::invalid_argument);
  auto bad_packed_phases =
      serving.submit_packed(net, std::vector<std::uint64_t>(net->num_pis(), 0), 1, 0);
  EXPECT_THROW(bad_packed_phases.get(), std::invalid_argument);
  EXPECT_EQ(serving.stats().misses, 0u);
  EXPECT_EQ(serving.stats().hits, 0u);
  EXPECT_EQ(serving.stats().entries, 0u);

  // PI-count mismatch reaches the callback as an exception_ptr.
  std::promise<std::exception_ptr> seen;
  serving.submit(net, engine::wave_batch{net->num_pis() + 3}, 3,
                 [&](engine::packed_wave_result, std::exception_ptr error) {
                   seen.set_value(error);
                 });
  const auto error = seen.get_future().get();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::invalid_argument);

  // A failed request does not poison the session.
  EXPECT_EQ(serving.submit(net, batch_for(*net, 64, 2), 3).get().num_waves, 64u);
}

TEST(serving_session, tree_capacity_refusal_fails_only_its_request) {
  const auto bad = std::make_shared<const mig_network>(overloaded_pi());
  const std::string expected = refusal_of(*bad, narrow_trees);
  ASSERT_FALSE(expected.empty());

  engine::parallel_executor executor{2};
  engine::serving_session serving{executor, narrow_trees};
  auto refused = serving.submit(bad, batch_for(*bad, 64, 7), 3);
  try {
    (void)refused.get();
    ADD_FAILURE() << "the session served a netlist insert_buffers refuses";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string{e.what()}, expected);
  }
  EXPECT_EQ(serving.stats().entries, 0u);
  EXPECT_EQ(serving.stats().misses, 0u);

  // The next valid request is served as usual.
  mig_network good;
  const signal a = good.create_pi();
  const signal b = good.create_pi();
  const signal c = good.create_pi();
  good.create_po(good.create_maj(a, b, !c));
  const auto shared = std::make_shared<const mig_network>(good);
  const auto batch = batch_for(good, 64, 8);
  const auto balanced = insert_buffers(good, narrow_trees);
  const auto expected_words =
      engine::run_waves_packed(engine::compiled_netlist{balanced.net, balanced.schedule}, batch, 3)
          .words;
  EXPECT_EQ(serving.submit(shared, batch, 3).get().words, expected_words);
  EXPECT_EQ(serving.stats().misses, 1u);
  EXPECT_EQ(serving.metrics().requests_failed, 1u);
}

TEST(serving_session, drain_close_and_submit_after_close) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor, {}, {}, 2};
  EXPECT_EQ(serving.num_dispatchers(), 2u);

  const auto net = std::make_shared<const mig_network>(gen::parity_circuit(10));
  std::vector<std::future<engine::packed_wave_result>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(serving.submit(net, batch_for(*net, 200, i), 3));
  }
  serving.drain();
  EXPECT_EQ(serving.pending(), 0u);
  for (auto& future : futures) {
    EXPECT_EQ(future.wait_for(std::chrono::seconds{0}), std::future_status::ready);
    EXPECT_EQ(future.get().num_waves, 200u);
  }

  serving.close();
  serving.close();  // idempotent
  EXPECT_EQ(serving.num_dispatchers(), 0u);
  EXPECT_THROW((void)serving.submit(net, batch_for(*net, 10, 1), 3), std::runtime_error);
}

TEST(serving_session, callbacks_may_submit_follow_up_requests) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const auto batch = batch_for(*net, 64, 31);

  std::promise<std::size_t> chained_waves;
  serving.submit(net, batch, 3,
                 [&](engine::packed_wave_result, std::exception_ptr error) {
                   ASSERT_EQ(error, nullptr);
                   serving.submit(net, batch, 3,
                                  [&](engine::packed_wave_result inner, std::exception_ptr) {
                                    chained_waves.set_value(inner.num_waves);
                                  });
                 });
  EXPECT_EQ(chained_waves.get_future().get(), 64u);
  serving.drain();
  EXPECT_EQ(serving.stats().hits + serving.stats().misses, 2u);
}

/// The TSan target of the cache work: many producers hammering a session
/// whose cache holds a single entry, so every other request evicts the
/// program another request may be executing right now. Refcounting must
/// keep every in-flight run on its own live program.
TEST(serving_session, eviction_races_in_flight_requests) {
  engine::parallel_executor executor{4};
  engine::serving_session serving{executor, {}, {.max_entries = 1}, 2};

  struct workload {
    std::shared_ptr<const mig_network> net;
    engine::wave_batch batch;
    std::vector<std::uint64_t> want;
  };
  std::vector<workload> workloads;
  for (const auto& net : {gen::ripple_adder_circuit(4), gen::multiplier_circuit(3),
                          gen::parity_circuit(9)}) {
    auto batch = batch_for(net, 150, net.num_pis());
    auto want = packed_reference(net, batch, 3).words;
    workloads.push_back(
        {std::make_shared<const mig_network>(net), std::move(batch), std::move(want)});
  }

  constexpr int per_thread = 9;
  std::atomic<int> mismatches{0};
  const auto hammer = [&](unsigned offset) {
    std::vector<std::future<engine::packed_wave_result>> futures;
    for (int i = 0; i < per_thread; ++i) {
      const auto& w = workloads[(offset + i) % workloads.size()];
      futures.push_back(serving.submit(w.net, w.batch, 3));
    }
    for (int i = 0; i < per_thread; ++i) {
      const auto& w = workloads[(offset + i) % workloads.size()];
      if (futures[i].get().words != w.want) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::thread t0{[&] { hammer(0); }};
  std::thread t1{[&] { hammer(1); }};
  std::thread t2{[&] { hammer(2); }};
  t0.join();
  t1.join();
  t2.join();

  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = serving.stats();
  EXPECT_EQ(stats.hits + stats.misses, 3u * per_thread);
  EXPECT_LE(stats.entries, 1u);
  EXPECT_GT(stats.evictions, 0u);
}

// ----------------------------------------------- degenerate shapes ---

/// The packed front-ends on programs with no planes on one side: a 0-PO
/// network (empty result words) and a 0-PI network with constant outputs
/// (no input words). At 4,096 waves and more a 4-worker run cuts several
/// shard blocks, so every block past the first starts at a nonzero chunk
/// offset from a null base. Expected words: empty, or constant planes with
/// the tail masked.
TEST(packed_paths, zero_pi_and_zero_po_programs_run_on_every_path) {
  mig_network no_pos;
  no_pos.create_maj(no_pos.create_pi(), no_pos.create_pi(), no_pos.create_pi());
  mig_network no_pis;
  no_pis.create_po(no_pis.get_constant(false));
  no_pis.create_po(no_pis.get_constant(true));

  engine::parallel_executor executor{4};
  engine::serving_session serving{executor};
  constexpr unsigned phases = 3;
  for (const mig_network* net : {&no_pos, &no_pis}) {
    const auto balanced = insert_buffers(*net);
    const engine::compiled_netlist compiled{balanced.net, balanced.schedule};
    const auto shared = std::make_shared<const mig_network>(*net);
    for (const std::size_t num_waves : {63ull, 4096ull, 4133ull}) {
      const std::string what = std::to_string(net->num_pis()) + " PIs, " +
                               std::to_string(net->num_pos()) + " POs, " +
                               std::to_string(num_waves) + " waves";
      const std::size_t chunks = (num_waves + 63) / 64;
      std::vector<std::uint64_t> want(chunks * net->num_pos(), 0);
      if (net->num_pos() == 2) {  // PO 0 is constant 0, PO 1 constant 1
        std::fill(want.begin() + static_cast<std::ptrdiff_t>(chunks), want.end(),
                  ~std::uint64_t{0});
        if (num_waves % 64 != 0) {
          want.back() = (std::uint64_t{1} << (num_waves % 64)) - 1;
        }
      }

      const auto waves = random_waves(num_waves, net->num_pis(), num_waves);
      const auto batch = engine::wave_batch::from_waves(waves, net->num_pis());
      std::vector<std::uint64_t> planes(chunks * net->num_pis());
      for (std::size_t i = 0; i < net->num_pis(); ++i) {
        std::copy_n(batch.plane(i), chunks,
                    planes.begin() + static_cast<std::ptrdiff_t>(i * chunks));
      }
      engine::wave_stream stream{compiled, phases};
      for (const auto& wave : waves) {
        stream.push(wave);
      }

      const auto packed = engine::run_waves_packed(compiled, batch, phases);
      const std::pair<const char*, engine::packed_wave_result> runs[] = {
          {"run_waves_packed", packed},
          {"run_waves_parallel", engine::run_waves_parallel(compiled, batch, phases, executor)},
          {"wave_stream", stream.finish()},
          {"submit_packed", serving.submit_packed(shared, planes, num_waves, phases).get()}};
      for (const auto& [path, got] : runs) {
        EXPECT_EQ(got.num_waves, num_waves) << path << ", " << what;
        EXPECT_EQ(got.num_pos, net->num_pos()) << path << ", " << what;
        EXPECT_EQ(got.words, want) << path << ", " << what;
        EXPECT_EQ(got.ticks, packed.ticks) << path << ", " << what;
      }
    }
  }
}

// ------------------------------------------------ dispatcher coalescing ---

TEST(serving_coalescing, many_small_same_program_requests_fuse_and_stay_exact) {
  // A single-worker pool and a single dispatcher make coalescing
  // deterministic: with the worker parked below, no exec unit can retire, so
  // the dispatcher stalls on the in-flight cap while the burst piles up in
  // the queue — the requests still waiting are then guaranteed to arrive in
  // one gulp and fuse.
  engine::parallel_executor executor{1};
  engine::serving_session serving{executor, {}, {}, 1};

  const auto net = std::make_shared<const mig_network>(gen::multiplier_circuit(4));
  // Warm the cache (while the worker is still free) so the burst is pure-hit.
  serving.submit(net, batch_for(*net, 64, 9000), 3).get();

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  executor.submit_group(1, [released](std::size_t, unsigned) { released.wait(); });

  constexpr int burst = 24;
  std::vector<engine::wave_batch> batches;
  std::vector<std::future<engine::packed_wave_result>> futures;
  batches.reserve(burst);
  for (int i = 0; i < burst; ++i) {
    // Small (a few chunks at most) so they qualify for fusing, with uneven
    // tails to exercise per-member masking inside the fused pass.
    batches.push_back(batch_for(*net, 30 + 19 * (i % 7), 9100 + i));
  }
  for (const auto& batch : batches) {
    futures.push_back(serving.submit(net, batch, 3));
  }
  release.set_value();

  for (int i = 0; i < burst; ++i) {
    const auto got = futures[i].get();
    const auto want = packed_reference(*net, batches[i], 3);
    EXPECT_EQ(got.words, want.words) << "request " << i;
    EXPECT_EQ(got.num_waves, want.num_waves) << "request " << i;
    EXPECT_EQ(got.ticks, want.ticks) << "request " << i;
  }
  serving.drain();

  const auto metrics = serving.metrics();
  EXPECT_EQ(metrics.requests_accepted, 1u + burst);
  EXPECT_EQ(metrics.requests_completed, 1u + burst);
  EXPECT_EQ(metrics.requests_failed, 0u);
  EXPECT_GT(metrics.coalesced_requests, 0u);
  EXPECT_GT(metrics.fused_passes, 0u);
  EXPECT_GT(metrics.gulps, 0u);
  EXPECT_GE(metrics.max_gulp, 2u);
  // Fused passes execute fewer pool submissions than requests.
  EXPECT_LT(metrics.fused_passes + metrics.singleton_passes, 1u + burst);
  // Per-request compile bookkeeping is preserved under coalescing.
  const auto stats = serving.stats();
  EXPECT_EQ(stats.hits + stats.misses, 1u + burst);
}

TEST(serving_coalescing, members_cut_across_shard_blocks_stay_exact) {
  // On four workers, eight requests of 5-8 chunks with odd tails fuse into
  // one 52-chunk pass whose shard blocks are 52 / 8 = 6 chunks wide, so the
  // 7- and 8-chunk members are split across blocks. Each member is
  // evaluated from its own batch into its own words, block by block.
  engine::parallel_executor executor{4};
  engine::serving_session serving{executor, {}, {}, 1};

  const auto net = std::make_shared<const mig_network>(gen::multiplier_circuit(4));
  serving.submit(net, batch_for(*net, 64, 9500), 3).get();  // warm the cache

  // A zero-phase request fails on the dispatcher, which runs its callback:
  // holding the only dispatcher there while the burst queues up makes the
  // whole burst arrive in one gulp.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  serving.submit(net, batch_for(*net, 64, 9501), 0,
                 [&entered, released](engine::packed_wave_result, std::exception_ptr error) {
                   EXPECT_NE(error, nullptr);
                   entered.set_value();
                   released.wait();
                 });
  entered.get_future().wait();

  constexpr std::size_t member_chunks[] = {5, 6, 7, 8, 5, 6, 7, 8};
  std::vector<engine::wave_batch> batches;
  std::vector<std::future<engine::packed_wave_result>> futures;
  for (std::size_t i = 0; i < std::size(member_chunks); ++i) {
    batches.push_back(batch_for(*net, 64 * (member_chunks[i] - 1) + 2 * i + 1, 9600 + i));
    ASSERT_EQ(batches.back().num_chunks(), member_chunks[i]);
  }
  for (const auto& batch : batches) {
    futures.push_back(serving.submit(net, batch, 3));
  }
  release.set_value();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto got = futures[i].get();
    const auto want = packed_reference(*net, batches[i], 3);
    EXPECT_EQ(got.words, want.words) << "request " << i;
    EXPECT_EQ(got.num_waves, want.num_waves) << "request " << i;
    EXPECT_EQ(got.ticks, want.ticks) << "request " << i;
  }
  serving.drain();

  const auto metrics = serving.metrics();
  EXPECT_EQ(metrics.requests_completed, 1u + std::size(member_chunks));
  EXPECT_EQ(metrics.requests_failed, 1u);
  EXPECT_GT(metrics.fused_passes, 0u);
  EXPECT_EQ(metrics.coalesced_requests, std::size(member_chunks));
  EXPECT_LT(metrics.fused_passes + metrics.singleton_passes, metrics.requests_accepted);
}

TEST(serving_coalescing, mixed_programs_in_one_gulp_group_by_program) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor, {}, {}, 1};

  const auto adder = std::make_shared<const mig_network>(gen::ripple_adder_circuit(5));
  const auto parity = std::make_shared<const mig_network>(gen::parity_circuit(9));
  serving.submit(adder, batch_for(*adder, 64, 40), 3).get();
  serving.submit(parity, batch_for(*parity, 64, 41), 3).get();

  std::vector<std::future<engine::packed_wave_result>> futures;
  std::vector<engine::wave_batch> batches;
  std::vector<const mig_network*> nets;
  for (int i = 0; i < 16; ++i) {
    const auto& net = (i % 2 == 0) ? adder : parity;
    batches.push_back(batch_for(*net, 50 + 13 * i, 4000 + i));
    nets.push_back(net.get());
    futures.push_back(serving.submit(net, batches.back(), 3));
  }
  for (int i = 0; i < 16; ++i) {
    const auto want = packed_reference(*nets[i], batches[i], 3);
    EXPECT_EQ(futures[i].get().words, want.words) << "request " << i;
  }
  serving.drain();
  // Two distinct programs never share a fused pass; both still complete.
  EXPECT_EQ(serving.metrics().requests_completed, 18u);
  EXPECT_EQ(serving.metrics().requests_failed, 0u);
  EXPECT_EQ(serving.stats().entries, 2u);
}

TEST(serving_coalescing, a_bad_request_fails_alone_inside_a_gulp) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor, {}, {}, 1};

  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  serving.submit(net, batch_for(*net, 64, 70), 3).get();

  // A PI-width mismatch sandwiched between healthy small requests: the
  // dispatcher must fail it at prepare time and still fuse/run the rest.
  std::vector<std::future<engine::packed_wave_result>> good;
  std::vector<engine::wave_batch> batches;
  for (int i = 0; i < 4; ++i) {
    batches.push_back(batch_for(*net, 40 + i, 7100 + i));
  }
  good.push_back(serving.submit(net, batches[0], 3));
  good.push_back(serving.submit(net, batches[1], 3));
  auto bad = serving.submit(net, engine::wave_batch{net->num_pis() + 2}, 3);
  good.push_back(serving.submit(net, batches[2], 3));
  good.push_back(serving.submit(net, batches[3], 3));

  EXPECT_THROW(bad.get(), std::invalid_argument);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(good[i].get().words, packed_reference(*net, batches[i], 3).words)
        << "request " << i;
  }
  serving.drain();
  EXPECT_EQ(serving.metrics().requests_failed, 1u);
  EXPECT_EQ(serving.metrics().requests_completed, 5u);
}

/// The four entry points — batch and packed payloads, each as a future and
/// as a callback — under three option sets. Every entry keys the cache the
/// same way for the same options, so the twelve requests resolve to exactly
/// three programs; the default set omits the trailing `opts`, so it pins
/// the defaulted argument itself. One dispatcher makes the counts exact,
/// and the session's default opt level 2 keeps the opt-0 override a
/// distinct program.
TEST(serving_coalescing, shared_ptr_submit_skips_the_deep_copy) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor, {}, {}, 1, {.opt_level = 2}};

  const auto net = std::make_shared<const mig_network>(gen::multiplier_circuit(3));
  const auto batch = batch_for(*net, 120, 55);
  const auto want = packed_reference(*net, batch, 3);
  std::vector<std::uint64_t> planes(batch.num_chunks() * net->num_pis());
  for (std::size_t i = 0; i < net->num_pis(); ++i) {
    std::copy_n(batch.plane(i), batch.num_chunks(),
                planes.begin() + static_cast<std::ptrdiff_t>(i * batch.num_chunks()));
  }

  engine::submit_options swd;
  swd.scenario = std::make_shared<const tech_scenario>(tech_scenario::swd());
  engine::submit_options unoptimized;
  unoptimized.compile = engine::compile_options{.opt_level = 0};
  const std::vector<std::pair<std::string, std::optional<engine::submit_options>>> option_sets{
      {"default", std::nullopt}, {"swd", swd}, {"opt 0", unoptimized}};

  const auto settle = [](std::promise<engine::packed_wave_result>& promise) {
    return [&promise](engine::packed_wave_result result, std::exception_ptr error) {
      if (error) {
        promise.set_exception(error);
      } else {
        promise.set_value(std::move(result));
      }
    };
  };
  const std::size_t waves = batch.num_waves();
  for (const auto& [name, opts] : option_sets) {
    std::future<engine::packed_wave_result> batch_future;
    std::future<engine::packed_wave_result> packed_future;
    std::promise<engine::packed_wave_result> batch_done;
    std::promise<engine::packed_wave_result> packed_done;
    if (opts) {
      batch_future = serving.submit(net, batch, 3, *opts);
      packed_future = serving.submit_packed(net, planes, waves, 3, *opts);
      serving.submit(net, batch, 3, settle(batch_done), *opts);
      serving.submit_packed(net, planes, waves, 3, settle(packed_done), *opts);
    } else {
      batch_future = serving.submit(net, batch, 3);
      packed_future = serving.submit_packed(net, planes, waves, 3);
      serving.submit(net, batch, 3, settle(batch_done));
      serving.submit_packed(net, planes, waves, 3, settle(packed_done));
    }
    const std::pair<const char*, engine::packed_wave_result> results[] = {
        {"batch future", batch_future.get()},
        {"packed future", packed_future.get()},
        {"batch callback", batch_done.get_future().get()},
        {"packed callback", packed_done.get_future().get()}};
    for (const auto& [entry, got] : results) {
      EXPECT_EQ(got.words, want.words) << entry << ", " << name;
      EXPECT_EQ(got.num_waves, want.num_waves) << entry << ", " << name;
    }
  }
  serving.drain();
  const auto stats = serving.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 9u);
}

TEST(serving_coalescing, queue_wait_samples_are_recorded_and_taken) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor};
  const auto net = std::make_shared<const mig_network>(gen::parity_circuit(8));
  for (int i = 0; i < 6; ++i) {
    (void)serving.submit(net, batch_for(*net, 80, 600 + i), 3);
  }
  serving.drain();
  const auto samples = serving.take_queue_wait_samples();
  EXPECT_EQ(samples.size(), 6u);
  for (const double ms : samples) {
    EXPECT_GE(ms, 0.0);
  }
  // take_* is destructive: the reservoir restarts empty.
  EXPECT_TRUE(serving.take_queue_wait_samples().empty());
}

/// The TSan target of the executor work: concurrent blocking sharded runs
/// and coalesced serving submissions sharing one work-stealing pool, so
/// steals, group completions, and dispatcher gulps all interleave.
TEST(serving_coalescing, streams_and_serving_share_the_stealing_pool) {
  engine::parallel_executor executor{4};
  engine::serving_session serving{executor, {}, {}, 2};

  const auto net = std::make_shared<const mig_network>(gen::multiplier_circuit(4));
  const auto balanced = insert_buffers(*net);
  const engine::compiled_netlist compiled{balanced.net, balanced.schedule};

  std::atomic<int> failures{0};
  const auto parallel_thread = [&](std::uint64_t seed) {
    const auto batch = batch_for(*net, 700, seed);
    const auto want = engine::run_waves_packed(compiled, batch, 3);
    for (int round = 0; round < 3; ++round) {
      if (engine::run_waves_parallel(compiled, batch, 3, executor).words != want.words) {
        failures.fetch_add(1);
      }
    }
  };
  const auto serving_thread = [&](std::uint64_t seed) {
    std::vector<engine::wave_batch> batches;
    std::vector<std::future<engine::packed_wave_result>> futures;
    for (int i = 0; i < 12; ++i) {
      batches.push_back(batch_for(*net, 40 + 11 * i, seed + i));
      futures.push_back(serving.submit(net, batches.back(), 3));
    }
    for (int i = 0; i < 12; ++i) {
      if (futures[i].get().words != packed_reference(*net, batches[i], 3).words) {
        failures.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(parallel_thread, 8801);
  threads.emplace_back(parallel_thread, 8802);
  threads.emplace_back(serving_thread, 8900);
  threads.emplace_back(serving_thread, 9000);
  for (auto& t : threads) {
    t.join();
  }
  serving.drain();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(serving.metrics().requests_failed, 0u);
  EXPECT_EQ(serving.metrics().requests_completed, 24u);
}

// -------------------------------------------------- scenario separation ---

/// One session serving the same netlist untagged and under two scenarios:
/// every request computes the same function (bit-identical words), but each
/// scenario occupies its own cache entry — the cache key carries the
/// scenario fingerprint, so requests never hit (or coalesce into) another
/// scenario's program. One dispatcher keeps the hit/miss accounting
/// deterministic.
TEST(serving_scenarios, same_netlist_per_scenario_programs_stay_separate) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor, {}, {}, 1};

  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(6));
  const auto batch = batch_for(*net, 100, 17);
  const auto reference = packed_reference(*net, batch, 3);
  engine::submit_options swd;
  swd.scenario = std::make_shared<const tech_scenario>(tech_scenario::swd());
  engine::submit_options fdm_swd;
  fdm_swd.scenario = std::make_shared<const tech_scenario>(tech_scenario::fdm_swd());

  std::vector<std::future<engine::packed_wave_result>> futures;
  for (int round = 0; round < 3; ++round) {
    futures.push_back(serving.submit(net, batch, 3));
    futures.push_back(serving.submit(net, batch, 3, swd));
    futures.push_back(serving.submit(net, batch, 3, fdm_swd));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().words, reference.words);
  }

  // One program per scenario tag (plus the untagged one), not per request.
  const auto stats = serving.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 6u);
}

/// Zero-copy packed submission with a scenario: plane-major words adopted
/// wholesale, evaluated on the scenario-prepared program, bit-identical to
/// the untagged packed reference.
TEST(serving_scenarios, packed_scenario_submission_matches_the_reference) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor};

  const auto net = std::make_shared<const mig_network>(gen::random_mig({10, 90, 0.5, 7, 4141}));
  const auto batch = batch_for(*net, 130, 23);
  const auto reference = packed_reference(*net, batch, 3);

  std::vector<std::uint64_t> planes(batch.num_chunks() * net->num_pis());
  for (std::size_t i = 0; i < net->num_pis(); ++i) {
    std::copy_n(batch.plane(i), batch.num_chunks(),
                planes.begin() + static_cast<std::ptrdiff_t>(i * batch.num_chunks()));
  }

  engine::submit_options nml;
  nml.scenario = std::make_shared<const tech_scenario>(tech_scenario::nml());
  const auto got = serving.submit_packed(net, std::move(planes), batch.num_waves(), 3, nml).get();
  EXPECT_EQ(got.words, reference.words);
  EXPECT_EQ(got.num_waves, reference.num_waves);
}


// ------------------------------------------------- policies + hardening ---

/// The typed-error taxonomy: each refusal class is catchable as its own
/// type while keeping the base its untyped predecessor threw, so both old
/// and new catch sites work.
TEST(serving_policies, typed_errors_carry_their_class) {
  engine::parallel_executor executor{1};
  engine::serving_session serving{executor, {}, {}, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  serving.submit(net, batch_for(*net, 64, 1), 3).get();  // warm the cache
  serving.drain();

  // Admission: park the worker so one request pins the backlog at 1.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  executor.submit_group(1, [released](std::size_t, unsigned) { released.wait(); });
  auto held = serving.submit(net, batch_for(*net, 64, 2), 3);
  serving.set_admission_limit(1);
  EXPECT_EQ(serving.admission_limit(), 1u);
  try {
    (void)serving.submit(net, batch_for(*net, 64, 3), 3);
    FAIL() << "admission bound did not reject";
  } catch (const engine::admission_rejected_error& e) {
    EXPECT_NE(std::string{e.what()}.find("admission rejected"), std::string::npos);
  }
  EXPECT_EQ(serving.metrics().requests_rejected, 1u);
  serving.set_admission_limit(0);
  release.set_value();
  EXPECT_EQ(held.get().num_waves, 64u);

  // Closed session: typed, and still a runtime_error for legacy catches.
  serving.close();
  EXPECT_THROW((void)serving.submit(net, batch_for(*net, 10, 4), 3),
               engine::session_closed_error);
  EXPECT_THROW((void)serving.submit(net, batch_for(*net, 10, 5), 3), std::runtime_error);
}

/// A deadline already in the past fails at dispatcher pickup with the typed
/// error — the request never executes — and is counted as expired.
TEST(serving_policies, expired_deadlines_fail_typed_without_executing) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor, {}, {}, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  serving.submit(net, batch_for(*net, 64, 1), 3).get();

  engine::submit_options opts;
  opts.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds{1};
  auto doomed = serving.submit(net, batch_for(*net, 64, 2), 3, opts);
  EXPECT_THROW(doomed.get(), engine::deadline_expired_error);
  serving.drain();  // the failure is retired (and counted) after the future

  const auto metrics = serving.metrics();
  EXPECT_EQ(metrics.requests_expired, 1u);
  EXPECT_EQ(metrics.requests_failed, 1u);  // expired is a subset of failed
  EXPECT_EQ(metrics.requests_completed, 1u);
  serving.close();
}

/// Wedges the lone dispatcher behind the in-flight pass cap (4 with one
/// worker): five too-wide-to-coalesce requests fill the cap and block the
/// fifth launch, so everything submitted afterwards queues into one gulp.
/// Returns the futures of the blockers; `release` frees the worker.
std::vector<std::future<engine::packed_wave_result>> wedge_dispatcher(
    engine::serving_session& serving, engine::parallel_executor& executor,
    const std::shared_ptr<const mig_network>& net, std::shared_future<void> released) {
  executor.submit_group(1, [released](std::size_t, unsigned) { released.wait(); });
  const std::uint64_t gulps_before = serving.metrics().gulps;
  std::vector<std::future<engine::packed_wave_result>> blockers;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    blockers.push_back(serving.submit(net, batch_for(*net, 520, 7000 + i), 3));
    while (serving.metrics().gulps < gulps_before + i) {
      std::this_thread::yield();
    }
  }
  return blockers;
}

/// Priority orders one gulp: lower bytes dispatch (and with one worker,
/// complete) first; ties stay FIFO.
TEST(serving_policies, priority_orders_the_gulp) {
  engine::parallel_executor executor{1};
  engine::serving_session serving{executor, {}, {}, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  serving.submit(net, batch_for(*net, 64, 1), 3).get();
  serving.drain();

  std::promise<void> release;
  auto blockers = wedge_dispatcher(serving, executor, net, release.get_future().share());

  std::mutex order_mutex;
  std::vector<int> order;
  const auto record = [&](int tag) {
    return [&, tag](engine::packed_wave_result, std::exception_ptr error) {
      ASSERT_EQ(error, nullptr);
      std::lock_guard<std::mutex> lock{order_mutex};
      order.push_back(tag);
    };
  };
  const auto submit_with_priority = [&](int tag, std::uint8_t priority) {
    engine::submit_options opts;
    opts.priority = priority;
    serving.submit(net, batch_for(*net, 40 + tag, 100 + tag), 3, record(tag), opts);
  };
  submit_with_priority(0, 200);
  submit_with_priority(1, 10);
  submit_with_priority(2, 200);
  submit_with_priority(3, 10);

  release.set_value();
  for (auto& blocker : blockers) {
    (void)blocker.get();
  }
  serving.drain();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 2}));
  serving.close();
}

/// Within one priority class a gulp round-robins across client ids — one
/// request per client per turn, FIFO within a client — so a flooding client
/// cannot starve the rest.
TEST(serving_policies, clients_round_robin_within_a_priority_class) {
  engine::parallel_executor executor{1};
  engine::serving_session serving{executor, {}, {}, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  serving.submit(net, batch_for(*net, 64, 1), 3).get();
  serving.drain();

  std::promise<void> release;
  auto blockers = wedge_dispatcher(serving, executor, net, release.get_future().share());

  std::mutex order_mutex;
  std::vector<int> order;
  const auto submit_for_client = [&](int tag, std::uint64_t client) {
    engine::submit_options opts;
    opts.client_id = client;
    serving.submit(
        net, batch_for(*net, 40 + tag, 200 + tag), 3,
        [&, tag](engine::packed_wave_result, std::exception_ptr error) {
          ASSERT_EQ(error, nullptr);
          std::lock_guard<std::mutex> lock{order_mutex};
          order.push_back(tag);
        },
        opts);
  };
  // Client 1 floods three requests before client 2's lone request arrives.
  submit_for_client(0, 1);
  submit_for_client(1, 1);
  submit_for_client(2, 1);
  submit_for_client(3, 2);

  release.set_value();
  for (auto& blocker : blockers) {
    (void)blocker.get();
  }
  serving.drain();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
  serving.close();
}

/// Hostile packed shapes surface as invalid_request_error (which is still an
/// invalid_argument) through the future — never as a crash, never from
/// submit itself.
TEST(serving_hardening, hostile_packed_shapes_fail_typed) {
  engine::parallel_executor executor{2};
  engine::serving_session serving{executor, {}, {}, 1};
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  const std::size_t pis = net->num_pis();

  // Zero waves.
  EXPECT_THROW(serving.submit_packed(net, {}, 0, 3).get(), engine::invalid_request_error);
  // Words inconsistent with the wave count (3 words for one chunk of 9 PIs).
  EXPECT_THROW(serving.submit_packed(net, std::vector<std::uint64_t>(3, 0), 100, 3).get(),
               engine::invalid_request_error);
  // A plane count that divides evenly but yields the wrong chunk count.
  EXPECT_THROW(
      serving.submit_packed(net, std::vector<std::uint64_t>(pis * 3, 0), 100, 3).get(),
      std::invalid_argument);

  // Stray bits above num_waves: rejected under the strict policy...
  std::vector<std::uint64_t> dirty(pis, 0);
  dirty[2] = ~std::uint64_t{0};  // waves 0..9 valid, bits 10..63 stray
  engine::submit_options strict;
  strict.reject_stray_tail_bits = true;
  try {
    serving.submit_packed(net, dirty, 10, 3, strict).get();
    FAIL() << "strict tail validation did not reject";
  } catch (const engine::invalid_request_error& e) {
    EXPECT_NE(std::string{e.what()}.find("stray bits"), std::string::npos);
  }

  // ...and masked to the trusted default otherwise: identical to clean words.
  std::vector<std::uint64_t> clean = dirty;
  clean[2] &= (std::uint64_t{1} << 10) - 1;
  const auto masked = serving.submit_packed(net, dirty, 10, 3).get();
  const auto reference = serving.submit_packed(net, clean, 10, 3).get();
  EXPECT_EQ(masked.words, reference.words);
  serving.drain();  // failures are retired (and counted) after their futures
  EXPECT_EQ(serving.metrics().requests_failed, 4u);
  serving.close();
}

/// close() racing an in-flight coalesced pass whose callbacks resubmit:
/// every primary callback fires exactly once, every follow-up either lands
/// before the close and completes, or is refused with the typed error —
/// and close() returns with nothing left pending.
TEST(serving_shutdown, close_races_resubmitting_callbacks_from_fused_passes) {
  const auto net = std::make_shared<const mig_network>(gen::ripple_adder_circuit(4));
  for (int round = 0; round < 10; ++round) {
    engine::parallel_executor executor{2};
    auto serving = std::make_unique<engine::serving_session>(
        executor, buffer_insertion_options{}, engine::cache_limits{}, 1u);
    serving->submit(net, batch_for(*net, 64, 1), 3).get();

    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    executor.submit_group(1, [released](std::size_t, unsigned) { released.wait(); });
    executor.submit_group(1, [released](std::size_t, unsigned) { released.wait(); });

    constexpr int burst = 16;
    std::atomic<int> primaries{0};
    std::atomic<int> resubmitted{0};
    std::atomic<int> refused{0};
    std::atomic<int> follow_ups_done{0};
    for (int i = 0; i < burst; ++i) {
      serving->submit(
          net, batch_for(*net, 30 + i, 5000 + round * 100 + i), 3,
          [&, i](engine::packed_wave_result, std::exception_ptr error) {
            ++primaries;
            if (error) {
              return;
            }
            try {
              serving->submit(net, batch_for(*net, 20 + i, 6000 + i), 3,
                              [&](engine::packed_wave_result, std::exception_ptr) {
                                ++follow_ups_done;
                              });
              ++resubmitted;
            } catch (const engine::session_closed_error&) {
              ++refused;
            }
          });
    }

    release.set_value();
    serving->close();  // races the fused passes and their resubmissions

    EXPECT_EQ(primaries.load(), burst);
    EXPECT_EQ(resubmitted.load() + refused.load(), burst);
    // close() drains everything it accepted: accepted follow-ups completed.
    EXPECT_EQ(follow_ups_done.load(), resubmitted.load());
    EXPECT_EQ(serving->pending(), 0u);
    const auto metrics = serving->metrics();
    EXPECT_EQ(metrics.requests_completed,
              1u + static_cast<std::uint64_t>(burst + resubmitted.load()));
    EXPECT_EQ(metrics.requests_failed, 0u);
  }
}

}  // namespace
}  // namespace wavemig
