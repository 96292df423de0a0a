// Randomized robustness tests: random netlists through random flow
// configurations must uphold every invariant, the readers must survive
// arbitrary corruption of well-formed files (parse or throw — never crash),
// and plane words adopt only the shape they declare.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/io/blif.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/io/verilog.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/pipeline.hpp"
#include "wavemig/simulation.hpp"
#include "wavemig/wave_schedule.hpp"

namespace wavemig {
namespace {

class flow_fuzz_test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(flow_fuzz_test, random_flow_upholds_invariants) {
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng{seed};

  gen::random_mig_profile profile;
  profile.inputs = 8 + static_cast<unsigned>(rng() % 24);
  profile.gates = 100 + static_cast<unsigned>(rng() % 900);
  profile.locality = 0.1 + 0.7 * static_cast<double>(rng() % 100) / 100.0;
  profile.outputs = 4 + static_cast<unsigned>(rng() % 28);
  profile.seed = seed * 7919;
  const auto net = gen::random_mig(profile);

  pipeline_options opts;
  switch (rng() % 3) {
    case 0:
      opts.fanout_limit.reset();
      break;
    case 1:
      opts.fanout_limit = 2 + static_cast<unsigned>(rng() % 4);
      break;
    default:
      opts.fanout_limit = 3;
      break;
  }
  opts.fill_residual = (rng() % 2) == 0;
  opts.respect_limit_in_buffers = (rng() % 2) == 0;
  opts.schedule = static_cast<schedule_policy>(rng() % 3);

  const auto result = wave_pipeline(net, opts);

  // Function is always preserved.
  EXPECT_TRUE(functionally_equivalent(net, result.net, 4)) << "seed " << seed;
  // Balanced and aligned.
  EXPECT_TRUE(result.wave_ready) << "seed " << seed;
  // Fan-out discipline when a limit is active and enforced in balancing.
  if (opts.fanout_limit && opts.respect_limit_in_buffers) {
    EXPECT_LE(max_fanout_degree(result.net), *opts.fanout_limit) << "seed " << seed;
  }
  // Component accounting adds up.
  EXPECT_EQ(result.final_stats.components,
            result.original_stats.components + result.fogs_added +
                result.restriction_buffers_added + result.balance_buffers_added)
      << "seed " << seed;
  // Gate count never changes: the flow only adds identity components.
  EXPECT_EQ(result.final_stats.majorities, result.original_stats.majorities) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(seeds, flow_fuzz_test, ::testing::Range<std::uint64_t>(1, 21),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

/// Mutates one position of a valid file and feeds it back to the reader:
/// the reader must either produce a network or throw a library exception.
template <typename Reader>
void corruption_sweep(const std::string& original, Reader read, std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  static const char garbage[] = "\0\n;()!|&~#.=xyz019 \t";
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = original;
    const auto position = rng() % mutated.size();
    switch (rng() % 3) {
      case 0:  // replace
        mutated[position] = garbage[rng() % (sizeof(garbage) - 1)];
        break;
      case 1:  // truncate
        mutated.resize(position);
        break;
      default:  // duplicate a chunk
        mutated.insert(position, mutated.substr(position / 2, 17));
        break;
    }
    try {
      std::stringstream ss{mutated};
      const auto net = read(ss);
      (void)net;  // parsed fine: mutation kept the file well-formed
    } catch (const io::parse_error&) {
    } catch (const std::exception&) {
      // Any std::exception is acceptable; crashes / UB are not.
    }
  }
}

/// read_mig parses untrusted text (a server's inline netlists), so its
/// contract is tighter than "parse or throw": only io::parse_error may
/// escape, and whatever it accepts must round-trip write_mig -> read_mig ->
/// write_mig to the same text.
TEST(io_fuzz, mig_reader_survives_corruption) {
  const auto text_of = [](const mig_network& net) {
    std::ostringstream os;
    io::write_mig(net, os);
    return os.str();
  };
  // A random logic net, and a pipelined suite circuit for BUF and FOG lines.
  const std::string sources[] = {text_of(gen::random_mig({8, 60, 0.4, 8, 5})),
                                 text_of(wave_pipeline(gen::build_benchmark("sasc")).net)};
  static const char garbage[] = "\0\n\r,();!|&~#.=xyz019 \t";
  std::mt19937_64 rng{101};
  std::size_t accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = sources[trial % 2];
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      const auto position = rng() % mutated.size();
      switch (rng() % 4) {
        case 0:  // replace
          mutated[position] = garbage[rng() % (sizeof(garbage) - 1)];
          break;
        case 1:  // truncate
          mutated.resize(position);
          break;
        case 2:  // duplicate a chunk
          mutated.insert(position, mutated.substr(position / 2, 1 + rng() % 40));
          break;
        default:  // erase
          mutated.erase(position, 1 + rng() % 8);
          break;
      }
    }
    std::string once;
    try {
      std::istringstream is{mutated};
      once = text_of(io::read_mig(is));
    } catch (const io::parse_error&) {
      continue;
    }
    ++accepted;
    std::istringstream again{once};
    EXPECT_EQ(text_of(io::read_mig(again)), once) << "trial " << trial;
  }
  // Most edits break the file; some must leave it well-formed.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 2000u);
}

TEST(io_fuzz, blif_reader_survives_corruption) {
  const auto net = gen::random_mig({8, 60, 0.4, 8, 6});
  std::stringstream ss;
  io::write_blif(net, ss);
  corruption_sweep(ss.str(), [](std::istream& is) { return io::read_blif(is); }, 102);
}

TEST(io_fuzz, verilog_reader_survives_corruption) {
  const auto net = gen::random_mig({8, 60, 0.4, 8, 7});
  std::stringstream ss;
  io::write_verilog(net, ss);
  corruption_sweep(ss.str(), [](std::istream& is) { return io::read_verilog(is); }, 103);
}

TEST(io_fuzz, readers_accept_empty_input) {
  std::stringstream a{""};
  const auto net = io::read_mig(a);
  EXPECT_EQ(net.num_pis(), 0u);
  std::stringstream b{""};
  EXPECT_NO_THROW(io::read_blif(b));
  std::stringstream c{""};
  EXPECT_NO_THROW(io::read_verilog(c));
}

/// `wave_batch::from_plane_words` adopts plane words an untrusted client
/// declared the shape of. Seeded trials over buffer sizes, PI counts and
/// wave counts: chunk and word boundaries, values near SIZE_MAX, and PI x
/// chunk products that wrap onto the buffer's size. Only
/// std::invalid_argument may escape. A batch is accepted exactly when the
/// buffer holds ceil(num_waves / 64) words per PI, and under `reject` only
/// when no plane has a bit above num_waves; an accepted batch holds the
/// buffer's words with every such bit cleared.
TEST(shape_fuzz, plane_words_accept_exact_shapes_only) {
  using engine::wave_batch;
  constexpr std::size_t top = std::numeric_limits<std::size_t>::max();
  constexpr std::size_t two32 = std::size_t{1} << 32;
  const std::size_t edges[] = {0,         1,         63,           64,           65,
                               127,       128,       129,          4096,         4097,
                               two32,     two32 + 1, two32 * 64,   two32 * 64 - 63,
                               top / 64,  top / 64 + 1, top / 2,   top / 2 + 1,  top - 64,
                               top - 63,  top - 1,   top,          std::size_t{1} << 58,
                               (std::size_t{1} << 63) + 1};
  std::mt19937_64 rng{2027};
  const auto pick = [&]() -> std::size_t {
    return rng() % 2 == 0 ? rng() % 200 : edges[rng() % std::size(edges)];
  };
  constexpr std::size_t max_words = 4096;
  std::size_t accepted = 0;
  std::size_t wrapped = 0;
  std::size_t stray_refused = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    const std::size_t num_pis = pick();
    const std::size_t num_waves = pick();
    const std::size_t chunks = num_waves / 64 + (num_waves % 64 != 0 ? 1 : 0);
    std::size_t exact = 0;
    const bool overflows = __builtin_mul_overflow(num_pis, chunks, &exact);
    const std::size_t product = num_pis * chunks;  // wraps when it overflows
    std::size_t size = rng() % 300;
    switch (rng() % 4) {
      case 0:
        size = product;
        break;
      case 1:
        size = product + (rng() % 2 == 0 ? 1 : top);  // one more or one fewer
        break;
      default:
        break;
    }
    if (size > max_words) {
      size = rng() % 300;
    }
    const bool shape_ok = !overflows && exact == size;
    wrapped += overflows && product == size ? 1 : 0;

    std::vector<std::uint64_t> words(size);
    for (auto& word : words) {
      word = rng();
    }
    const std::size_t live = num_waves % 64;
    const std::uint64_t tail = live == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << live) - 1;
    bool stray = false;
    if (shape_ok && chunks != 0) {
      const bool clean = rng() % 2 == 0;
      for (std::size_t i = 0; i < num_pis; ++i) {
        std::uint64_t& last = words[i * chunks + chunks - 1];
        if (clean) {
          last &= tail;
        }
        stray |= (last & ~tail) != 0;
      }
    }
    const auto policy =
        rng() % 2 == 0 ? wave_batch::tail_bits::mask : wave_batch::tail_bits::reject;
    const std::string what = "trial " + std::to_string(trial) + ": " + std::to_string(size) +
                             " words, " + std::to_string(num_pis) + " PIs, " +
                             std::to_string(num_waves) + " waves";

    std::optional<wave_batch> batch;
    try {
      batch = wave_batch::from_plane_words(words, num_pis, num_waves, policy);
    } catch (const std::invalid_argument&) {
      EXPECT_TRUE(!shape_ok || (policy == wave_batch::tail_bits::reject && stray)) << what;
      stray_refused += shape_ok ? 1 : 0;
      continue;
    }
    ASSERT_TRUE(shape_ok) << what;
    EXPECT_TRUE(policy == wave_batch::tail_bits::mask || !stray) << what;
    ++accepted;
    EXPECT_EQ(batch->num_pis(), num_pis) << what;
    EXPECT_EQ(batch->num_waves(), num_waves) << what;
    ASSERT_EQ(batch->num_chunks(), chunks) << what;
    for (std::size_t i = 0; chunks != 0 && i < num_pis; ++i) {
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::uint64_t expected = words[i * chunks + c] & (c + 1 == chunks ? tail : ~0ull);
        ASSERT_EQ(batch->plane(i)[c], expected) << what << ", PI " << i << ", chunk " << c;
      }
    }
  }
  // Every outcome occurred, including sizes that a wrapped product matches.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(wrapped, 0u);
  EXPECT_GT(stray_refused, 0u);
}

}  // namespace
}  // namespace wavemig
