// Randomized robustness tests: random netlists through random flow
// configurations must uphold every invariant, and the readers must survive
// arbitrary corruption of well-formed files (parse or throw — never crash).

#include <gtest/gtest.h>

#include <random>
#include <sstream>

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

}  // namespace
}  // namespace wavemig
