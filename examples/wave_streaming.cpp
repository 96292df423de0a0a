// Wave streaming: demonstrates WHY path balancing is required and HOW the
// compiled engine serves streaming traffic. Streams data waves through an
// 8x8 multiplier under the three-phase regeneration clock (Fig. 4 of the
// paper):
//   - the raw netlist corrupts results (adjacent waves interfere),
//   - the balanced netlist streams every wave correctly at one wave per
//     three ticks, processing depth/3 multiplications simultaneously,
//   - the engine's wave_stream then pushes a much larger job stream through
//     the same balanced netlist, 64 waves per machine word, with constant
//     memory.
//
//   $ ./examples/wave_streaming

#include <chrono>
#include <cstdio>
#include <random>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/simulation.hpp"
#include "wavemig/wave_simulator.hpp"

using namespace wavemig;

namespace {

std::uint64_t product_of(const std::vector<bool>& out) {
  std::uint64_t p = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    p |= static_cast<std::uint64_t>(out[i]) << i;
  }
  return p;
}

void stream(const mig_network& net, const char* label,
            const std::vector<std::vector<bool>>& waves,
            const std::vector<std::uint64_t>& expected) {
  const auto run = run_waves(net, waves, 3);
  std::size_t correct = 0;
  for (std::size_t w = 0; w < waves.size(); ++w) {
    if (product_of(run.outputs[w]) == expected[w]) {
      ++correct;
    }
  }
  std::printf("%-9s depth %3u | %2zu/%zu waves correct | %llu ticks for %zu multiplications "
              "(%u in flight)\n",
              label, compute_levels(net).depth, correct, waves.size(),
              static_cast<unsigned long long>(run.ticks), waves.size(), run.waves_in_flight);
}

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

}  // namespace

int main() {
  const unsigned width = 8;
  const auto raw = gen::multiplier_circuit(width);
  const auto balanced = insert_buffers(raw).net;

  // 16 random multiplication jobs through the cycle-accurate simulator.
  std::mt19937_64 rng{2017};
  std::vector<std::vector<bool>> waves;
  std::vector<std::uint64_t> expected;
  for (int job = 0; job < 16; ++job) {
    const std::uint64_t a = rng() & 0xFFu;
    const std::uint64_t b = rng() & 0xFFu;
    waves.push_back(operand_wave(width, a, b));
    expected.push_back(a * b);
  }

  std::printf("streaming 16 multiplications through an %ux%u array multiplier\n", width, width);
  std::printf("(three-phase wave clock; a new operand pair enters every 3 ticks)\n\n");
  stream(raw, "raw", waves, expected);
  stream(balanced, "balanced", waves, expected);

  const auto sequential_ticks =
      static_cast<unsigned long long>(compute_levels(balanced).depth) * waves.size();
  std::printf("\nnon-pipelined execution would need %llu ticks for the same work\n",
              sequential_ticks);

  // Now the engine path: compile the balanced netlist once (optimizer on —
  // outputs are bit-identical at every level) and stream a far larger job
  // mix through wave_stream — 64 waves per 64-bit word, multi-chunk blocks
  // evaluated straight into result planes that grow as the stream does.
  const std::size_t jobs = 100000;
  const engine::compiled_netlist compiled{balanced, {.opt_level = 2}};
  engine::wave_stream stream{compiled, 3};

  std::mt19937_64 job_rng{42};
  std::vector<std::uint64_t> expect;
  expect.reserve(jobs);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t job = 0; job < jobs; ++job) {
    const std::uint64_t a = job_rng() & 0xFFu;
    const std::uint64_t b = job_rng() & 0xFFu;
    stream.push(operand_wave(width, a, b));
    expect.push_back(a * b);
  }
  const auto result = stream.finish();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::size_t correct = 0;
  for (std::size_t w = 0; w < jobs; ++w) {
    std::uint64_t p = 0;
    for (std::size_t bit = 0; bit < result.num_pos; ++bit) {
      p |= static_cast<std::uint64_t>(result.output(w, bit)) << bit;
    }
    correct += p == expect[w];
  }

  std::printf("\nengine wave_stream: %zu/%zu multiplications correct in %.3f s "
              "(%.2f M waves/s, %u waves in flight per clock)\n",
              correct, jobs, elapsed, static_cast<double>(jobs) / elapsed / 1e6,
              result.waves_in_flight);
  return correct == jobs ? 0 : 1;
}
