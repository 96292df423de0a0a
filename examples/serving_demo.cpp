// Serving demo: the async front-end of the engine as a miniature inference
// server. A mixed stream of requests against three different circuits is
// submitted from two producer threads — futures for the adder/multiplier
// traffic, completion callbacks for the parity checks — while a bounded
// compiled-netlist cache (too small for all three programs at once) evicts
// and recompiles underneath. Every result is verified against the expected
// arithmetic, and the final session_stats show the cache doing its job.
//
//   $ ./examples/serving_demo

#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/serving.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/arith.hpp"

using namespace wavemig;

namespace {

std::vector<bool> operand_wave(unsigned width, std::uint64_t a, std::uint64_t b) {
  std::vector<bool> wave;
  wave.reserve(2 * width);
  for (unsigned i = 0; i < width; ++i) {
    wave.push_back((a >> i) & 1u);
  }
  for (unsigned i = 0; i < width; ++i) {
    wave.push_back((b >> i) & 1u);
  }
  return wave;
}

std::uint64_t word_of(const engine::packed_wave_result& result, std::size_t wave) {
  std::uint64_t v = 0;
  for (std::size_t bit = 0; bit < result.num_pos; ++bit) {
    v |= static_cast<std::uint64_t>(result.output(wave, bit)) << bit;
  }
  return v;
}

}  // namespace

int main() {
  const unsigned width = 8;
  // Held by shared_ptr: the session keeps a reference instead of a copy and
  // memoizes each circuit's fingerprint, so resubmissions skip the re-hash.
  const auto adder = std::make_shared<const mig_network>(gen::ripple_adder_circuit(width));
  const auto multiplier = std::make_shared<const mig_network>(gen::multiplier_circuit(width));
  const auto parity = std::make_shared<const mig_network>(gen::parity_circuit(2 * width));

  engine::parallel_executor executor;  // hardware-concurrency workers
  // Cache bound: deliberately too small for all three programs, so the mix
  // below keeps evicting and recompiling — exactly the long-lived-session
  // regime the bounds exist for.
  engine::serving_session serving{executor, {}, {.max_entries = 2}};

  const std::size_t requests = 12;
  const std::size_t waves_per_request = 500;
  std::atomic<std::size_t> parity_correct{0};
  std::atomic<std::size_t> parity_total{0};

  // Producer 1: adder and multiplier jobs as futures.
  std::vector<std::uint64_t> job_a(requests), job_b(requests);
  std::vector<std::future<engine::packed_wave_result>> sums, products;
  std::thread arithmetic_producer{[&] {
    std::mt19937_64 rng{7};
    for (std::size_t r = 0; r < requests; ++r) {
      job_a[r] = rng() & 0xFFu;
      job_b[r] = rng() & 0xFFu;
      engine::wave_batch batch{adder->num_pis()};
      for (std::size_t w = 0; w < waves_per_request; ++w) {
        batch.append(operand_wave(width, job_a[r], job_b[r]));
      }
      sums.push_back(serving.submit(adder, batch, 3));
      products.push_back(serving.submit(multiplier, std::move(batch), 3));
    }
  }};

  // Producer 2: parity checks through the callback API.
  std::thread parity_producer{[&] {
    std::mt19937_64 rng{13};
    for (std::size_t r = 0; r < requests; ++r) {
      engine::wave_batch batch{parity->num_pis()};
      std::vector<bool> expected;
      for (std::size_t w = 0; w < waves_per_request; ++w) {
        bool odd = false;
        std::vector<bool> wave(parity->num_pis());
        for (std::size_t i = 0; i < wave.size(); ++i) {
          wave[i] = (rng() & 1u) != 0;
          odd ^= wave[i];
        }
        expected.push_back(odd);
        batch.append(wave);
      }
      serving.submit(parity, std::move(batch), 3,
                     [&parity_correct, &parity_total, expected](
                         engine::packed_wave_result result, std::exception_ptr error) {
                       if (error) {
                         return;  // counted as incorrect via parity_total
                       }
                       for (std::size_t w = 0; w < result.num_waves; ++w) {
                         parity_correct.fetch_add(result.output(w, 0) == expected[w]);
                       }
                       parity_total.fetch_add(result.num_waves);
                     });
    }
  }};

  arithmetic_producer.join();
  parity_producer.join();
  serving.drain();  // all callbacks fired, all futures ready

  std::size_t sum_correct = 0, product_correct = 0;
  for (std::size_t r = 0; r < requests; ++r) {
    auto sum = sums[r].get();
    auto product = products[r].get();
    for (std::size_t w = 0; w < waves_per_request; ++w) {
      sum_correct += word_of(sum, w) == job_a[r] + job_b[r];
      product_correct += word_of(product, w) == job_a[r] * job_b[r];
    }
  }

  const std::size_t per_circuit = requests * waves_per_request;
  std::printf("served %zu waves across 3 circuits from 2 producer threads\n",
              3 * per_circuit);
  std::printf("  adder:      %zu/%zu correct\n", sum_correct, per_circuit);
  std::printf("  multiplier: %zu/%zu correct\n", product_correct, per_circuit);
  std::printf("  parity:     %zu/%zu correct\n", parity_correct.load(), per_circuit);

  const auto stats = serving.stats();
  std::printf("\ncache (bound: 2 entries for 3 circuits): %llu hits, %llu misses, "
              "%llu evictions, %zu resident\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions), stats.entries);

  const bool all_correct = sum_correct == per_circuit && product_correct == per_circuit &&
                           parity_correct.load() == per_circuit &&
                           parity_total.load() == per_circuit;
  std::printf("%s\n", all_correct ? "OK" : "FAILED");
  return all_correct ? 0 : 1;
}
