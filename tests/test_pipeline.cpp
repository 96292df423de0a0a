#include "wavemig/pipeline.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/simulation.hpp"
#include "wavemig/wave_schedule.hpp"
#include "wavemig/wave_simulator.hpp"

namespace wavemig {
namespace {

TEST(pipeline, default_flow_is_fo3_plus_buf) {
  const auto net = gen::multiplier_circuit(4);
  const auto result = wave_pipeline(net);
  EXPECT_TRUE(result.wave_ready);
  EXPECT_GT(result.fogs_added, 0u);
  EXPECT_GT(result.balance_buffers_added, 0u);
  EXPECT_TRUE(functionally_equivalent(net, result.net));
  EXPECT_GE(result.depth_after, result.depth_before);
}

TEST(pipeline, buffer_only_flow) {
  const auto net = gen::multiplier_circuit(4);
  pipeline_options opts;
  opts.fanout_limit.reset();
  const auto result = wave_pipeline(net, opts);
  EXPECT_TRUE(result.wave_ready);
  EXPECT_EQ(result.fogs_added, 0u);
  EXPECT_EQ(result.depth_after, result.depth_before);
  EXPECT_TRUE(functionally_equivalent(net, result.net));
}

TEST(pipeline, restriction_only_flow) {
  const auto net = gen::multiplier_circuit(4);
  pipeline_options opts;
  opts.insert_buffers = false;
  const auto result = wave_pipeline(net, opts);
  EXPECT_FALSE(result.wave_ready);  // not balanced without buffers
  EXPECT_GT(result.fogs_added, 0u);
  EXPECT_EQ(result.balance_buffers_added, 0u);
  EXPECT_TRUE(functionally_equivalent(net, result.net));
}

TEST(pipeline, wave_ready_reads_the_balanced_schedule) {
  // Three PIs, a chain of seven majority gates, and a buffer of constant 0
  // feeding the last one. alap and mid_slack clock that buffer next to its
  // deep consumer, above its ASAP level 1, so the balanced netlist's own
  // ASAP levels fail the readiness check there. The flag reads the schedule
  // the netlist was balanced for, under which it is ready at every policy.
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  signal g = net.create_maj(a, b, c);
  for (int i = 1; i < 6; ++i) {
    g = net.create_maj(g, i % 2 == 0 ? a : b, i % 3 == 0 ? c : !c);
  }
  net.create_po(net.create_maj(g, net.create_buffer(constant0), a));
  ASSERT_EQ(net.num_majorities(), 7u);

  for (const auto schedule :
       {schedule_policy::asap, schedule_policy::alap, schedule_policy::mid_slack}) {
    const std::string what = "schedule " + std::to_string(static_cast<int>(schedule));
    pipeline_options opts;
    opts.schedule = schedule;
    const auto result = wave_pipeline(net, opts);
    EXPECT_TRUE(result.wave_ready) << what;
    pipeline_result staged;
    const auto balanced =
        insert_buffers(prepare_for_balancing(net, opts, staged), balance_options(opts));
    EXPECT_TRUE(check_wave_readiness(balanced.net, balanced.schedule, 0).ready) << what;
    EXPECT_EQ(check_wave_readiness(result.net).ready, schedule == schedule_policy::asap)
        << what;
    EXPECT_TRUE(functionally_equivalent(net, result.net)) << what;
  }
}

TEST(pipeline, respecting_limit_bounds_every_degree) {
  const auto net = gen::multiplier_circuit(5);
  for (unsigned k : {2u, 3u, 4u}) {
    pipeline_options opts;
    opts.fanout_limit = k;
    const auto result = wave_pipeline(net, opts);
    EXPECT_TRUE(result.wave_ready);
    EXPECT_LE(max_fanout_degree(result.net), k) << "k=" << k;
    EXPECT_TRUE(functionally_equivalent(net, result.net));
  }
}

TEST(pipeline, paper_literal_chains_may_exceed_limit_but_stay_balanced) {
  const auto net = gen::multiplier_circuit(5);
  pipeline_options opts;
  opts.fanout_limit = 2;
  opts.respect_limit_in_buffers = false;
  const auto result = wave_pipeline(net, opts);
  EXPECT_TRUE(result.wave_ready);
  EXPECT_TRUE(functionally_equivalent(net, result.net));
}

TEST(pipeline, component_accounting_adds_up) {
  const auto net = gen::build_benchmark("sasc");
  const auto result = wave_pipeline(net);
  EXPECT_EQ(result.final_stats.majorities, result.original_stats.majorities);
  EXPECT_EQ(result.final_stats.fanout_gates, result.fogs_added);
  EXPECT_EQ(result.final_stats.buffers,
            result.restriction_buffers_added + result.balance_buffers_added);
  EXPECT_EQ(result.final_stats.components,
            result.original_stats.components + result.fogs_added +
                result.restriction_buffers_added + result.balance_buffers_added);
}

TEST(pipeline, pipelined_network_streams_waves) {
  const auto net = gen::ripple_adder_circuit(5);
  const auto result = wave_pipeline(net);
  ASSERT_TRUE(result.wave_ready);

  std::vector<std::vector<bool>> waves;
  for (int w = 0; w < 6; ++w) {
    std::vector<bool> wave(result.net.num_pis());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      wave[i] = ((w * 7 + static_cast<int>(i) * 3) % 5) < 2;
    }
    waves.push_back(std::move(wave));
  }
  const auto run = run_waves(result.net, waves, 3);
  for (std::size_t w = 0; w < waves.size(); ++w) {
    EXPECT_EQ(run.outputs[w], simulate_pattern(result.net, waves[w])) << "wave " << w;
  }
}

TEST(pipeline, fog_count_matches_restriction_alone) {
  // Paper Fig. 8 observation (b): FOGs are independent of buffer insertion.
  const auto net = gen::build_benchmark("mul8");
  pipeline_options with_buf;
  with_buf.fanout_limit = 3;
  pipeline_options without_buf = with_buf;
  without_buf.insert_buffers = false;
  EXPECT_EQ(wave_pipeline(net, with_buf).fogs_added,
            wave_pipeline(net, without_buf).fogs_added);
}

TEST(pipeline, full_suite_default_flow_invariants) {
  // The complete 37-circuit suite through the paper's FO3+BUF flow: every
  // result must be wave-ready, respect the limit, account exactly, and
  // compute the same function.
  for (const auto& bench : gen::build_suite()) {
    const auto result = wave_pipeline(bench.net);
    EXPECT_TRUE(result.wave_ready) << bench.name;
    EXPECT_LE(max_fanout_degree(result.net), 3u) << bench.name;
    EXPECT_EQ(result.final_stats.components,
              result.original_stats.components + result.fogs_added +
                  result.restriction_buffers_added + result.balance_buffers_added)
        << bench.name;
    EXPECT_EQ(result.final_stats.majorities, result.original_stats.majorities) << bench.name;
    EXPECT_TRUE(functionally_equivalent(bench.net, result.net, 2)) << bench.name;
  }
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string stats_text(const network_stats& s) {
  return std::to_string(s.pis) + "/" + std::to_string(s.pos) + "/" + std::to_string(s.majorities) +
         "/" + std::to_string(s.buffers) + "/" + std::to_string(s.fanout_gates) + "/" +
         std::to_string(s.components) + "/" + std::to_string(s.depth) + "/" +
         std::to_string(s.max_fanout);
}

/// Every counter of a pipeline result, in one line.
std::string counters(const pipeline_result& r) {
  return "fogs " + std::to_string(r.fogs_added) + " rbuf " +
         std::to_string(r.restriction_buffers_added) + " rep " +
         std::to_string(r.repeater_buffers_added) + " bbuf " +
         std::to_string(r.balance_buffers_added) + " delayed " + std::to_string(r.delayed_edges) +
         " run " + std::to_string(r.max_attenuation_run) + " depth " +
         std::to_string(r.depth_before) + "-" + std::to_string(r.depth_after) + " ready " +
         std::to_string(r.wave_ready) + " in " + stats_text(r.original_stats) + " out " +
         stats_text(r.final_stats);
}

TEST(pipeline, exact_structure_is_pinned) {
  // The flow benchmark's circuits through every scenario: the FNV-1a hash
  // of the written netlist and every counter. A rewrite of any pass may
  // change how fast it runs, never what it builds.
  struct golden {
    const char* circuit;
    const char* scenario;
    std::uint64_t text_hash;
    const char* counters;
  };
  const golden expected[] = {
      {"sasc", "SWD", 0x84dcec8ad9ba4ab0ull,
       "fogs 240 rbuf 2 rep 0 bbuf 414 delayed 383 run 0 depth 7-13 ready 1 "
       "in 21/12/458/0/0/458/7/24 out 21/12/458/416/240/1114/13/3"},
      {"sasc", "QCA", 0x568788599a3de505ull,
       "fogs 169 rbuf 1 rep 0 bbuf 331 delayed 393 run 0 depth 7-12 ready 1 "
       "in 21/12/458/0/0/458/7/24 out 21/12/458/332/169/959/12/4"},
      {"sasc", "NML", 0x6108d0c31ea16de6ull,
       "fogs 449 rbuf 7 rep 0 bbuf 488 delayed 404 run 0 depth 7-15 ready 1 "
       "in 21/12/458/0/0/458/7/24 out 21/12/458/495/449/1402/15/2"},
      {"sasc", "FDM-SWD", 0xb322b1a2d654801eull,
       "fogs 449 rbuf 7 rep 121 bbuf 568 delayed 404 run 15 depth 7-18 ready 1 "
       "in 21/12/458/0/0/458/7/24 out 21/12/458/696/449/1603/18/2"},
      {"hamming", "SWD", 0x71b990b0fa86d62cull,
       "fogs 421 rbuf 0 rep 0 bbuf 2308 delayed 583 run 0 depth 68-139 ready 1 "
       "in 64/6/483/0/0/483/68/4 out 64/6/483/2308/421/3212/139/3"},
      {"hamming", "QCA", 0x17db54e00003c51bull,
       "fogs 323 rbuf 0 rep 0 bbuf 2196 delayed 583 run 0 depth 68-135 ready 1 "
       "in 64/6/483/0/0/483/68/4 out 64/6/483/2196/323/3002/135/4"},
      {"hamming", "NML", 0xbdb280f5419d7873ull,
       "fogs 523 rbuf 0 rep 0 bbuf 2835 delayed 589 run 0 depth 68-168 ready 1 "
       "in 64/6/483/0/0/483/68/4 out 64/6/483/2835/523/3841/168/2"},
      {"hamming", "FDM-SWD", 0x6582bf42bb401b0full,
       "fogs 523 rbuf 0 rep 189 bbuf 3573 delayed 589 run 168 depth 68-199 ready 1 "
       "in 64/6/483/0/0/483/68/4 out 64/6/483/3762/523/4768/199/2"},
      {"adder64", "SWD", 0xc1262e9f3642e267ull,
       "fogs 817 rbuf 30 rep 0 bbuf 4208 delayed 764 run 0 depth 8-28 ready 1 "
       "in 128/65/644/0/0/644/8/58 out 128/65/644/4238/817/5699/28/3"},
      {"adder64", "QCA", 0xe1ad6b872ec8a673ull,
       "fogs 604 rbuf 28 rep 0 bbuf 3322 delayed 685 run 0 depth 8-24 ready 1 "
       "in 128/65/644/0/0/644/8/58 out 128/65/644/3350/604/4598/24/4"},
      {"adder64", "NML", 0x840b814fea9e9eabull,
       "fogs 1222 rbuf 0 rep 0 bbuf 5248 delayed 749 run 0 depth 8-35 ready 1 "
       "in 128/65/644/0/0/644/8/58 out 128/65/644/5248/1222/7114/35/2"},
      {"adder64", "FDM-SWD", 0x0af4d819068ccddcull,
       "fogs 1222 rbuf 0 rep 231 bbuf 5853 delayed 749 run 35 depth 8-39 ready 1 "
       "in 128/65/644/0/0/644/8/58 out 128/65/644/6084/1222/7950/39/2"},
      {"barrel64", "SWD", 0x46ad8a6ac8612812ull,
       "fogs 768 rbuf 171 rep 0 bbuf 3547 delayed 1095 run 0 depth 12-22 ready 1 "
       "in 70/64/1152/0/0/1152/12/128 out 70/64/1152/3718/768/5638/22/3"},
      {"barrel64", "QCA", 0x8d2f938e0e8934a2ull,
       "fogs 642 rbuf 168 rep 0 bbuf 2940 delayed 1024 run 0 depth 12-21 ready 1 "
       "in 70/64/1152/0/0/1152/12/128 out 70/64/1152/3108/642/4902/21/4"},
      {"barrel64", "NML", 0x96bd1583a9b2cec3ull,
       "fogs 1146 rbuf 0 rep 0 bbuf 3264 delayed 1280 run 0 depth 12-24 ready 1 "
       "in 70/64/1152/0/0/1152/12/128 out 70/64/1152/3264/1146/5562/24/2"},
      {"barrel64", "FDM-SWD", 0x7e496db5f8f04b45ull,
       "fogs 1146 rbuf 0 rep 640 bbuf 4224 delayed 1280 run 24 depth 12-29 ready 1 "
       "in 70/64/1152/0/0/1152/12/128 out 70/64/1152/4864/1146/7162/29/2"},
      {"max32x4", "SWD", 0x5fa68ed3de0d8ba5ull,
       "fogs 1206 rbuf 8 rep 0 bbuf 2019 delayed 1636 run 0 depth 14-29 ready 1 "
       "in 128/32/1221/0/0/1221/14/64 out 128/32/1221/2027/1206/4454/29/3"},
      {"max32x4", "QCA", 0x1298adae6890d9a5ull,
       "fogs 939 rbuf 0 rep 0 bbuf 1680 delayed 1601 run 0 depth 14-26 ready 1 "
       "in 128/32/1221/0/0/1221/14/64 out 128/32/1221/1680/939/3840/26/4"},
      {"max32x4", "NML", 0xd66243320e05f7a7ull,
       "fogs 1863 rbuf 28 rep 0 bbuf 2703 delayed 1652 run 0 depth 14-34 ready 1 "
       "in 128/32/1221/0/0/1221/14/64 out 128/32/1221/2731/1863/5815/34/2"},
      {"max32x4", "FDM-SWD", 0x3a0fda04d519de1aull,
       "fogs 1863 rbuf 28 rep 518 bbuf 2804 delayed 1652 run 34 depth 14-37 ready 1 "
       "in 128/32/1221/0/0/1221/14/64 out 128/32/1221/3350/1863/6434/37/2"},
      {"revx", "SWD", 0x11f36b723c3093d9ull,
       "fogs 1248 rbuf 28 rep 0 bbuf 11426 delayed 2143 run 0 depth 156-271 ready 1 "
       "in 24/24/1877/0/0/1877/156/20 out 24/24/1877/11454/1248/14579/271/3"},
      {"revx", "QCA", 0x734d2ab18aa60a0dull,
       "fogs 961 rbuf 31 rep 0 bbuf 10097 delayed 2099 run 0 depth 156-252 ready 1 "
       "in 24/24/1877/0/0/1877/156/20 out 24/24/1877/10128/961/12966/252/4"},
      {"revx", "NML", 0x99b32ed9606a5eb0ull,
       "fogs 2061 rbuf 39 rep 0 bbuf 15572 delayed 2185 run 0 depth 156-328 ready 1 "
       "in 24/24/1877/0/0/1877/156/20 out 24/24/1877/15611/2061/19549/328/2"},
      {"revx", "FDM-SWD", 0xafea09dc92e919edull,
       "fogs 2061 rbuf 39 rep 820 bbuf 19159 delayed 2185 run 328 depth 156-383 ready 1 "
       "in 24/24/1877/0/0/1877/156/20 out 24/24/1877/20018/2061/23956/383/2"},
      {"tv80", "SWD", 0xcb1d14816b4ce1b1ull,
       "fogs 1601 rbuf 0 rep 0 bbuf 2709 delayed 2528 run 0 depth 9-17 ready 1 "
       "in 40/30/3002/0/0/3002/9/75 out 40/30/3002/2709/1601/7312/17/3"},
      {"tv80", "QCA", 0x6f0ca64b22192966ull,
       "fogs 1136 rbuf 0 rep 0 bbuf 1766 delayed 2278 run 0 depth 9-14 ready 1 "
       "in 40/30/3002/0/0/3002/9/75 out 40/30/3002/1766/1136/5904/14/4"},
      {"tv80", "NML", 0x19b15899bd5ed5b3ull,
       "fogs 2992 rbuf 0 rep 0 bbuf 3028 delayed 2421 run 0 depth 9-19 ready 1 "
       "in 40/30/3002/0/0/3002/9/75 out 40/30/3002/3028/2992/9022/19/2"},
      {"tv80", "FDM-SWD", 0x0c5c9db9fd3dd787ull,
       "fogs 2992 rbuf 0 rep 872 bbuf 3828 delayed 2421 run 19 depth 9-23 ready 1 "
       "in 40/30/3002/0/0/3002/9/75 out 40/30/3002/4700/2992/10694/23/2"},
      {"fsm_ctrl", "SWD", 0xa2fe54b7becc0579ull,
       "fogs 3314 rbuf 281 rep 0 bbuf 17983 delayed 5106 run 0 depth 18-33 ready 1 "
       "in 12/4/4564/0/0/4564/18/1170 out 12/4/4564/18264/3314/26142/33/3"},
      {"fsm_ctrl", "QCA", 0x5bcb61d0ce1bed66ull,
       "fogs 2377 rbuf 287 rep 0 bbuf 13494 delayed 4773 run 0 depth 18-30 ready 1 "
       "in 12/4/4564/0/0/4564/18/1170 out 12/4/4564/13781/2377/20722/30/4"},
      {"fsm_ctrl", "NML", 0xa4b4fe6b483b5f0eull,
       "fogs 6111 rbuf 123 rep 0 bbuf 27927 delayed 5842 run 0 depth 18-41 ready 1 "
       "in 12/4/4564/0/0/4564/18/1170 out 12/4/4564/28050/6111/38725/41/2"},
      {"fsm_ctrl", "FDM-SWD", 0x132838407ea3d185ull,
       "fogs 6111 rbuf 123 rep 3137 bbuf 41706 delayed 5842 run 41 depth 18-49 ready 1 "
       "in 12/4/4564/0/0/4564/18/1170 out 12/4/4564/44966/6111/55641/49/2"},
      {"mul16", "SWD", 0x748ed6d8de83580full,
       "fogs 1438 rbuf 259 rep 0 bbuf 29656 delayed 1807 run 0 depth 59-146 ready 1 "
       "in 32/32/1228/0/0/1228/59/16 out 32/32/1228/29915/1438/32581/146/3"},
      {"mul16", "QCA", 0xa36fdee8aa6cba05ull,
       "fogs 958 rbuf 0 rep 0 bbuf 15662 delayed 1705 run 0 depth 59-120 ready 1 "
       "in 32/32/1228/0/0/1228/59/16 out 32/32/1228/15662/958/17848/120/4"},
      {"mul16", "NML", 0x98d9f9e871cb04e9ull,
       "fogs 2153 rbuf 4 rep 0 bbuf 28531 delayed 1671 run 0 depth 59-165 ready 1 "
       "in 32/32/1228/0/0/1228/59/16 out 32/32/1228/28535/2153/31916/165/2"},
      {"mul16", "FDM-SWD", 0xbbe09f236ea8474full,
       "fogs 2153 rbuf 4 rep 515 bbuf 35888 delayed 1671 run 165 depth 59-206 ready 1 "
       "in 32/32/1228/0/0/1228/59/16 out 32/32/1228/36407/2153/39788/206/2"},
      {"mac16", "SWD", 0x988f467ee97c32b6ull,
       "fogs 1550 rbuf 259 rep 0 bbuf 30821 delayed 1941 run 0 depth 62-153 ready 1 "
       "in 48/33/1326/0/0/1326/62/16 out 48/33/1326/31080/1550/33956/153/3"},
      {"mac16", "QCA", 0x83180618037355efull,
       "fogs 1038 rbuf 0 rep 0 bbuf 16618 delayed 1839 run 0 depth 62-126 ready 1 "
       "in 48/33/1326/0/0/1326/62/16 out 48/33/1326/16618/1038/18982/126/4"},
      {"mac16", "NML", 0xb0f967d9f0b5e4adull,
       "fogs 2298 rbuf 4 rep 0 bbuf 29915 delayed 1805 run 0 depth 62-173 ready 1 "
       "in 48/33/1326/0/0/1326/62/16 out 48/33/1326/29919/2298/33543/173/2"},
      {"mac16", "FDM-SWD", 0x390b6dd65486b62dull,
       "fogs 2298 rbuf 4 rep 582 bbuf 37610 delayed 1805 run 173 depth 62-215 ready 1 "
       "in 48/33/1326/0/0/1326/62/16 out 48/33/1326/38196/2298/41820/215/2"},
      {"systemcdes", "SWD", 0x64f31aeff7d52630ull,
       "fogs 2024 rbuf 85 rep 0 bbuf 9552 delayed 3261 run 0 depth 24-46 ready 1 "
       "in 128/64/2859/0/0/2859/24/46 out 128/64/2859/9637/2024/14520/46/3"},
      {"systemcdes", "QCA", 0x5a445eab455ccdf2ull,
       "fogs 1534 rbuf 42 rep 0 bbuf 7956 delayed 3276 run 0 depth 24-42 ready 1 "
       "in 128/64/2859/0/0/2859/24/46 out 128/64/2859/7998/1534/12391/42/4"},
      {"systemcdes", "NML", 0x6676d49e372b4fc4ull,
       "fogs 3482 rbuf 26 rep 0 bbuf 13227 delayed 3421 run 0 depth 24-53 ready 1 "
       "in 128/64/2859/0/0/2859/24/46 out 128/64/2859/13253/3482/19594/53/2"},
      {"systemcdes", "FDM-SWD", 0x8746acadce458acbull,
       "fogs 3482 rbuf 26 rep 1420 bbuf 15874 delayed 3421 run 53 depth 24-62 ready 1 "
       "in 128/64/2859/0/0/2859/24/46 out 128/64/2859/17320/3482/23661/62/2"},
      {"des_area", "SWD", 0x0ebd6d5fc8644e50ull,
       "fogs 4137 rbuf 100 rep 0 bbuf 24922 delayed 6994 run 0 depth 48-93 ready 1 "
       "in 128/64/5768/0/0/5768/48/53 out 128/64/5768/25022/4137/34927/93/3"},
      {"des_area", "QCA", 0x9e1fc1ec9a461080ull,
       "fogs 3148 rbuf 113 rep 0 bbuf 19980 delayed 6869 run 0 depth 48-84 ready 1 "
       "in 128/64/5768/0/0/5768/48/53 out 128/64/5768/20093/3148/29009/84/4"},
      {"des_area", "NML", 0xba2a2ea13fc478ecull,
       "fogs 7157 rbuf 76 rep 0 bbuf 33889 delayed 7177 run 0 depth 48-107 ready 1 "
       "in 128/64/5768/0/0/5768/48/53 out 128/64/5768/33965/7157/46890/107/2"},
      {"des_area", "FDM-SWD", 0xc54a66afa978a615ull,
       "fogs 7157 rbuf 76 rep 3256 bbuf 41373 delayed 7177 run 107 depth 48-124 ready 1 "
       "in 128/64/5768/0/0/5768/48/53 out 128/64/5768/44705/7157/57630/124/2"},
  };
  for (const auto& g : expected) {
    pipeline_options opts;
    opts.scenario = tech_scenario::by_name(g.scenario);
    const auto result = wave_pipeline(gen::build_benchmark(g.circuit), opts);
    std::ostringstream os;
    io::write_mig(result.net, os);
    EXPECT_EQ(fnv1a(os.str()), g.text_hash) << g.circuit << " " << g.scenario;
    EXPECT_EQ(counters(result), g.counters) << g.circuit << " " << g.scenario;
  }
}

std::string mig_text(const mig_network& net) {
  std::ostringstream os;
  io::write_mig(net, os);
  return os.str();
}

/// Everything a flow run produced that a later run must reproduce: the
/// written netlist, every counter, and the program compiled from it.
std::string flow_fingerprint(const pipeline_result& r) {
  const engine::compiled_netlist program{r.net};
  std::string levels;
  for (const std::uint32_t l : program.po_levels()) {
    levels += std::to_string(l) + ",";
  }
  return mig_text(r.net) + counters(r) + " ops " + std::to_string(program.num_comb_ops()) +
         " slots " + std::to_string(program.comb_slot_count()) + " depth " +
         std::to_string(program.depth()) + " coherent " +
         std::to_string(program.wave_coherent(3)) + " po levels " + levels;
}

TEST(pipeline, repeated_runs_build_the_same_netlist_wherever_the_input_lives) {
  // Nothing a run leaves behind may change the next: no working buffer or
  // cache survives a call, and nothing is keyed by a network's address. Each
  // circuit runs twice on one object, with another circuit in between, and
  // once on a copy elsewhere on the heap.
  const mig_network between = gen::build_benchmark("tv80");
  for (const char* circuit : {"sasc", "fsm_ctrl", "mac16"}) {
    for (const char* scenario : {"SWD", "FDM-SWD"}) {
      pipeline_options opts;
      opts.scenario = tech_scenario::by_name(scenario);
      const mig_network net = gen::build_benchmark(circuit);
      const std::string first = flow_fingerprint(wave_pipeline(net, opts));
      (void)wave_pipeline(between, opts);
      const std::string second = flow_fingerprint(wave_pipeline(net, opts));
      const auto copy = std::make_unique<mig_network>(net);
      ASSERT_NE(copy.get(), &net);
      const std::string third = flow_fingerprint(wave_pipeline(*copy, opts));
      EXPECT_EQ(second, first) << circuit << " " << scenario;
      EXPECT_EQ(third, first) << circuit << " " << scenario;
    }
  }
}

/// A rebuilt network is still structurally hashed: create_maj on each
/// gate's own fan-ins finds that gate, and adds no node.
void expect_strashed(mig_network net, const std::string& what) {
  const std::size_t nodes = net.num_nodes();
  std::size_t misses = 0;
  net.foreach_gate([&](node_index g) {
    const auto fis = net.fanins(g);
    if (net.create_maj(fis[2], fis[0], fis[1]) != signal{g, false}) {
      ++misses;
    }
  });
  EXPECT_EQ(misses, 0u) << what;
  EXPECT_EQ(net.num_nodes(), nodes) << what;
}

TEST(pipeline, every_rebuilding_pass_leaves_a_strashed_network) {
  for (const char* circuit : {"sasc", "barrel64", "fsm_ctrl"}) {
    const mig_network net = gen::build_benchmark(circuit);
    for (const unsigned limit : {2u, 3u}) {
      const std::string what = std::string{circuit} + " limit " + std::to_string(limit);
      fanout_restriction_options fo;
      fo.limit = limit;
      const mig_network restricted = restrict_fanout(net, fo).net;
      expect_strashed(restricted, what + " restricted");

      loss_budget_options lb;
      lb.max_unregenerated_levels = 3;
      const mig_network regenerated = enforce_loss_budget(restricted, lb).net;
      expect_strashed(regenerated, what + " loss budget");

      for (const auto strategy : {buffer_strategy::naive, buffer_strategy::chain}) {
        buffer_insertion_options bi;
        bi.strategy = strategy;
        expect_strashed(insert_buffers(regenerated, bi).net,
                        what + " balanced, strategy " + std::to_string(static_cast<int>(strategy)));
      }
      buffer_insertion_options tree;
      tree.strategy = buffer_strategy::tree;
      tree.fanout_limit = limit;
      expect_strashed(insert_buffers(regenerated, tree).net, what + " balanced as trees");
    }
  }
}

TEST(pipeline, combined_inserts_more_buffers_than_buf_alone) {
  // Paper Fig. 8 observation (a): FOx+BUF adds more components than BUF
  // alone because restriction deepens the netlist.
  const auto net = gen::build_benchmark("mul8");
  pipeline_options buf_only;
  buf_only.fanout_limit.reset();
  pipeline_options combined;
  combined.fanout_limit = 3;
  const auto a = wave_pipeline(net, buf_only);
  const auto b = wave_pipeline(net, combined);
  EXPECT_GT(b.final_stats.components, a.final_stats.components);
}

}  // namespace
}  // namespace wavemig
