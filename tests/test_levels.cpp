#include "wavemig/levels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "wavemig/gen/arith.hpp"
#include "wavemig/gen/random_mig.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/pipeline.hpp"

namespace wavemig {
namespace {

TEST(levels, pis_are_level_zero_and_gates_stack) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m1 = net.create_maj(a, b, c);
  const signal m2 = net.create_maj(m1, a, b);
  net.create_po(m2);

  const auto levels = compute_levels(net);
  EXPECT_EQ(levels[a.index()], 0u);
  EXPECT_EQ(levels[m1.index()], 1u);
  EXPECT_EQ(levels[m2.index()], 2u);
  EXPECT_EQ(levels.depth, 2u);
}

TEST(levels, constant_fanins_do_not_count) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  // AND gate: constant fan-in must not anchor the gate at level 1 via the
  // constant; it is level 1 because of a and b.
  const signal g = net.create_and(a, b);
  const signal h = net.create_and(g, a);
  net.create_po(h);
  const auto levels = compute_levels(net);
  EXPECT_EQ(levels[g.index()], 1u);
  EXPECT_EQ(levels[h.index()], 2u);
}

TEST(levels, buffers_and_fogs_occupy_levels) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m = net.create_maj(a, b, c);
  const signal buf = net.create_buffer(m);
  const signal fog = net.create_fanout(buf);
  net.create_po(fog);
  const auto levels = compute_levels(net);
  EXPECT_EQ(levels[buf.index()], 2u);
  EXPECT_EQ(levels[fog.index()], 3u);
  EXPECT_EQ(levels.depth, 3u);
}

TEST(levels, depth_is_max_over_outputs) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal shallow = net.create_maj(a, b, c);
  const signal deep = net.create_maj(net.create_maj(shallow, a, b), c, a);
  net.create_po(shallow, "shallow");
  net.create_po(deep, "deep");
  EXPECT_EQ(compute_levels(net).depth, 3u);
}

TEST(levels, constant_only_output_keeps_depth_zero) {
  mig_network net;
  net.create_pi();
  net.create_po(constant1);
  EXPECT_EQ(compute_levels(net).depth, 0u);
}

TEST(fanouts, edges_and_po_refs) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m1 = net.create_maj(a, b, c);
  const signal m2 = net.create_maj(m1, a, !b);
  net.create_po(m1, "f");
  net.create_po(m2, "g");

  const auto fo = compute_fanouts(net);
  // m1 feeds m2 (one slot) and one PO.
  EXPECT_EQ(fo.degree(m1.index()), 2u);
  bool found_po = false;
  bool found_gate = false;
  for (const auto& e : fo.edges[m1.index()]) {
    if (e.consumer == fanout_map::po_consumer) {
      EXPECT_EQ(e.slot, 0u);
      found_po = true;
    } else {
      EXPECT_EQ(e.consumer, m2.index());
      found_gate = true;
    }
  }
  EXPECT_TRUE(found_po);
  EXPECT_TRUE(found_gate);
  // a feeds both gates.
  EXPECT_EQ(fo.degree(a.index()), 2u);

  // The exact edge sequence of a driver with several gate slots and POs:
  // gate consumers by node index, then slot, then POs by position.
  // Buffer insertion and fan-out restriction build their trees in this
  // order, so it is part of their output.
  const signal fog = net.create_fanout(m1);
  const signal m3 = net.create_maj(!m1, b, c);  // sorted fan-ins: b, c, !m1
  net.create_po(!m1, "h");
  net.create_po(fog, "i");
  ASSERT_EQ(net.fanins(m2.index())[2].index(), m1.index());  // sorted: a, !b, m1
  ASSERT_EQ(net.fanins(m3.index())[2].index(), m1.index());

  const auto full = compute_fanouts(net);
  using pair = std::pair<node_index, std::uint32_t>;
  const auto sequence = [&](signal driver) {
    std::vector<pair> out;
    for (const auto& e : full.edges[driver.index()]) {
      out.emplace_back(e.consumer, e.slot);
    }
    return out;
  };
  constexpr node_index po = fanout_map::po_consumer;
  EXPECT_EQ(sequence(m1), (std::vector<pair>{{m2.index(), 2},
                                             {fog.index(), 0},
                                             {m3.index(), 2},
                                             {po, 0},
                                             {po, 2}}));
  EXPECT_EQ(sequence(a), (std::vector<pair>{{m1.index(), 0}, {m2.index(), 0}}));
  EXPECT_EQ(sequence(b), (std::vector<pair>{{m1.index(), 1}, {m2.index(), 1}, {m3.index(), 0}}));
  EXPECT_EQ(sequence(m2), (std::vector<pair>{{po, 1}}));
  EXPECT_EQ(sequence(fog), (std::vector<pair>{{po, 3}}));
  EXPECT_EQ(full.edges.flat.size(), 14u);
}

TEST(fanouts, constants_have_no_edges) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  net.create_po(net.create_and(a, b));
  net.create_po(constant0, "zero");
  const auto fo = compute_fanouts(net);
  EXPECT_TRUE(fo.edges[0].empty());
}

TEST(fanouts, max_fanout_degree) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m = net.create_maj(a, b, c);
  for (int i = 0; i < 5; ++i) {
    net.create_po(m, "o" + std::to_string(i));
  }
  EXPECT_EQ(max_fanout_degree(net), 5u);
}

TEST(stats_struct, aggregates_counts_and_depth) {
  const auto net = gen::ripple_adder_circuit(8);
  const auto s = compute_stats(net);
  EXPECT_EQ(s.pis, 16u);
  EXPECT_EQ(s.pos, 9u);
  EXPECT_EQ(s.majorities, net.num_majorities());
  EXPECT_EQ(s.components, net.num_components());
  EXPECT_GE(s.depth, 8u);  // ripple chain
  EXPECT_GT(s.max_fanout, 1u);
}

// ------------------------------------------- stored levels vs the walk ---

/// The oracle: levels by one forward walk over every node's fan-ins, the
/// rule the network records as it appends nodes.
level_map walked_levels(const mig_network& net) {
  level_map result;
  result.level.assign(net.num_nodes(), 0);
  net.foreach_node([&](node_index n) {
    std::uint32_t lvl = 0;
    bool has_wave_input = false;
    for (const signal f : net.fanins(n)) {
      if (net.is_constant(f.index())) {
        continue;
      }
      has_wave_input = true;
      lvl = std::max(lvl, result.level[f.index()] + 1);
    }
    if (!has_wave_input && (net.is_majority(n) || net.is_buffer(n) || net.is_fanout_gate(n))) {
      lvl = 1;  // a component fed only by constants
    }
    result.level[n] = lvl;
  });
  for (const auto& po : net.pos()) {
    if (!net.is_constant(po.driver.index())) {
      result.depth = std::max(result.depth, result.level[po.driver.index()]);
    }
  }
  return result;
}

void expect_walked_levels(const mig_network& net, const std::string& what) {
  const level_map walked = walked_levels(net);
  const level_map stored = compute_levels(net);
  EXPECT_EQ(stored.level, walked.level) << what;
  EXPECT_EQ(stored.depth, walked.depth) << what;
  EXPECT_EQ(net.depth(), walked.depth) << what;
  ASSERT_EQ(net.levels().size(), walked.level.size()) << what;
  for (node_index n = 0; n < net.num_nodes(); ++n) {
    if (net.level(n) != walked.level[n]) {
      ADD_FAILURE() << what << ": node " << n << " stores level " << net.level(n)
                    << ", the walk reads " << walked.level[n];
      return;
    }
  }
}

mig_network round_trip(const mig_network& net) {
  std::ostringstream os;
  io::write_mig(net, os);
  std::istringstream is{os.str()};
  return io::read_mig(is);
}

TEST(stored_levels, suite_circuits_store_the_walked_levels) {
  for (const auto& name : gen::benchmark_names()) {
    const mig_network net = gen::build_benchmark(name);
    expect_walked_levels(net, name);
    expect_walked_levels(round_trip(net), name + " read back");
  }
}

TEST(stored_levels, random_migs_store_the_walked_levels) {
  for (const double locality : {0.0, 0.5, 0.95}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      gen::random_mig_profile profile;
      profile.gates = 600;
      profile.locality = locality;
      profile.seed = seed;
      const mig_network net = gen::random_mig(profile);
      const std::string what =
          "random locality " + std::to_string(locality) + " seed " + std::to_string(seed);
      expect_walked_levels(net, what);
      expect_walked_levels(round_trip(net), what + " read back");
    }
  }
}

TEST(stored_levels, read_mig_stores_the_walked_levels_of_repeated_and_constant_fed_gates) {
  // A repeated gate (read_mig keeps probing, so it maps onto the first),
  // components fed only by constants (level 1), a buffer and FOG chain,
  // and outputs on constants and PIs, which do not reach the depth.
  std::istringstream is{
      ".model m\n"
      ".inputs a b c\n"
      "g1 = MAJ(a, b, c)\n"
      "g2 = MAJ(!a, b, c)\n"
      "g3 = MAJ(c, b, a)\n"
      "k = BUF(1)\n"
      "f = FOG(0)\n"
      "g4 = MAJ(g1, k, f)\n"
      "b1 = BUF(g4)\n"
      "f1 = FOG(b1)\n"
      ".output o1 = f1\n"
      ".output o2 = !g3\n"
      ".output o3 = 0\n"
      ".output o4 = a\n"};
  const mig_network net = io::read_mig(is);
  EXPECT_EQ(net.num_majorities(), 3u);  // g3 is g1
  expect_walked_levels(net, "hand-written text");
  EXPECT_EQ(net.depth(), 4u);
}

TEST(stored_levels, every_network_of_the_pipeline_stores_the_walked_levels) {
  // Each network the flow builds: restriction, loss budget, balancing and
  // wave_pipeline's own result, on 4 scenarios x 3 strategies x 3
  // schedules. Naive and chain balance the restricted network with the
  // paper-literal options; tree keeps the limit on every vertex.
  gen::random_mig_profile profile;
  profile.gates = 400;
  std::vector<std::pair<std::string, mig_network>> circuits;
  for (const char* name : {"sasc", "adder64", "tv80"}) {
    circuits.emplace_back(name, gen::build_benchmark(name));
  }
  circuits.emplace_back("random", gen::random_mig(profile));
  for (const auto& [name, net] : circuits) {
    for (const char* scenario : {"SWD", "QCA", "NML", "FDM-SWD"}) {
      for (const auto strategy :
           {buffer_strategy::naive, buffer_strategy::chain, buffer_strategy::tree}) {
        for (const auto schedule :
             {schedule_policy::asap, schedule_policy::alap, schedule_policy::mid_slack}) {
          pipeline_options opts;
          opts.scenario = tech_scenario::by_name(scenario);
          opts.strategy = strategy;
          opts.respect_limit_in_buffers = strategy == buffer_strategy::tree;
          opts.schedule = schedule;
          const std::string what = name + " " + scenario + " strategy " +
                                   std::to_string(static_cast<int>(strategy)) + " schedule " +
                                   std::to_string(static_cast<int>(schedule));
          mig_network current = net;
          if (const auto limit = opts.fanout_limit.resolve(opts.scenario)) {
            fanout_restriction_options fo;
            fo.limit = *limit;
            current = restrict_fanout(current, fo).net;
            expect_walked_levels(current, what + " restricted");
          }
          if (const auto budget = opts.scenario.max_unregenerated_levels()) {
            loss_budget_options lb;
            lb.max_unregenerated_levels = budget;
            current = enforce_loss_budget(current, lb).net;
            expect_walked_levels(current, what + " loss budget");
          }
          const auto balanced = insert_buffers(current, balance_options(opts));
          expect_walked_levels(balanced.net, what + " balanced");
          const auto piped = wave_pipeline(net, opts);
          expect_walked_levels(piped.net, what + " wave_pipeline");
          EXPECT_EQ(piped.depth_after, walked_levels(piped.net).depth) << what;
          EXPECT_EQ(piped.original_stats.depth, walked_levels(net).depth) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace wavemig
