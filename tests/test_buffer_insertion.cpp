#include "wavemig/buffer_insertion.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "wavemig/fanout_restriction.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/simulation.hpp"
#include "wavemig/wave_schedule.hpp"

namespace wavemig {
namespace {

/// Two-level example: g1 = M(a,b,c) at level 1, g2 = M(g1,d,e)... with a
/// direct edge a -> g2 spanning two levels, requiring one buffer.
mig_network skewed_example() {
  mig_network net;
  const signal a = net.create_pi("a");
  const signal b = net.create_pi("b");
  const signal c = net.create_pi("c");
  const signal g1 = net.create_maj(a, b, c);
  const signal g2 = net.create_maj(g1, a, !b);
  net.create_po(g2, "f");
  return net;
}

TEST(buffer_insertion, balances_skewed_edges) {
  const auto net = skewed_example();
  const auto result = insert_buffers(net);
  // a and b each need one buffer into g2; the PO is already at max depth.
  EXPECT_EQ(result.buffers_added, 2u);
  EXPECT_TRUE(check_wave_readiness(result.net).ready);
  EXPECT_TRUE(functionally_equivalent(net, result.net));
  EXPECT_EQ(result.depth_before, 2u);
  EXPECT_EQ(result.depth_after, 2u);
}

TEST(buffer_insertion, pads_outputs_to_equal_depth) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal g1 = net.create_maj(a, b, c);
  const signal g2 = net.create_maj(g1, a, b);  // depth 2
  net.create_po(g1, "shallow");                // depth 1: needs 1 pad buffer
  net.create_po(g2, "deep");
  net.create_po(a, "direct");                  // PI -> PO: needs 2 pad buffers

  const auto result = insert_buffers(net);
  EXPECT_TRUE(check_wave_readiness(result.net).ready);
  EXPECT_TRUE(functionally_equivalent(net, result.net));
  const auto levels = compute_levels(result.net);
  for (const auto& po : result.net.pos()) {
    EXPECT_EQ(levels[po.driver.index()], 2u) << po.name;
  }
}

TEST(buffer_insertion, chain_shares_buffers_between_fanouts) {
  // Driver u feeding consumers at levels 2, 3, 4: a shared chain costs 3
  // buffers (taps at 1, 2, 3); naive would cost 1 + 2 + 3 = 6.
  mig_network net;
  const signal u = net.create_pi("u");
  const signal x = net.create_pi("x");
  const signal y = net.create_pi("y");
  const signal g1 = net.create_maj(u, x, y);          // level 1
  const signal g2 = net.create_maj(g1, x, !y);        // level 2
  const signal g3 = net.create_maj(g2, y, !x);        // level 3
  const signal c2 = net.create_maj(u, g1, x);         // u used at level 2
  const signal c3 = net.create_maj(u, g2, y);         // u used at level 3
  const signal c4 = net.create_maj(u, g3, x);         // u used at level 4
  net.create_po(c2);
  net.create_po(c3);
  net.create_po(c4);

  buffer_insertion_options chain_opts;
  chain_opts.strategy = buffer_strategy::chain;
  const auto chained = insert_buffers(net, chain_opts);

  buffer_insertion_options naive_opts;
  naive_opts.strategy = buffer_strategy::naive;
  const auto naive = insert_buffers(net, naive_opts);

  EXPECT_LT(chained.buffers_added, naive.buffers_added);
  EXPECT_TRUE(functionally_equivalent(net, chained.net));
  EXPECT_TRUE(functionally_equivalent(net, naive.net));
  // u's chain: 3 shared buffers instead of 1+2+3 = 6 private ones.
  // (Other edges may add more buffers; compare just the relationship.)
}

TEST(buffer_insertion, tree_with_unlimited_capacity_matches_chain) {
  const auto net = gen::multiplier_circuit(8);
  buffer_insertion_options chain_opts;
  chain_opts.strategy = buffer_strategy::chain;
  buffer_insertion_options tree_opts;
  tree_opts.strategy = buffer_strategy::tree;
  const auto chained = insert_buffers(net, chain_opts);
  const auto tree = insert_buffers(net, tree_opts);
  EXPECT_EQ(chained.buffers_added, tree.buffers_added);
  EXPECT_TRUE(check_wave_readiness(tree.net).ready);
}

std::string mig_text(const mig_network& net) {
  std::ostringstream os;
  io::write_mig(net, os);
  return os.str();
}

TEST(buffer_insertion, trees_within_capacity_are_built_as_the_chain) {
  // After restriction to 3, no driver has more than 3 edges, so a tree of
  // capacity 3 holds one vertex per position: the chain, node for node,
  // under every schedule and tolerance.
  for (const char* circuit : {"sasc", "adder64", "barrel64", "mul16"}) {
    fanout_restriction_options fo;
    fo.limit = 3;
    const mig_network net = restrict_fanout(gen::build_benchmark(circuit), fo).net;
    ASSERT_LE(max_fanout_degree(net), 3u) << circuit;
    for (const auto schedule :
         {schedule_policy::asap, schedule_policy::alap, schedule_policy::mid_slack}) {
      for (const unsigned tolerance : {0u, 1u}) {
        buffer_insertion_options chain_opts;
        chain_opts.strategy = buffer_strategy::chain;
        chain_opts.schedule = schedule;
        chain_opts.tolerance = tolerance;
        buffer_insertion_options tree_opts = chain_opts;
        tree_opts.strategy = buffer_strategy::tree;
        tree_opts.fanout_limit = 3;
        const auto chained = insert_buffers(net, chain_opts);
        const auto tree = insert_buffers(net, tree_opts);
        const std::string what = std::string{circuit} + " schedule " +
                                 std::to_string(static_cast<int>(schedule)) + " tolerance " +
                                 std::to_string(tolerance);
        EXPECT_EQ(mig_text(tree.net), mig_text(chained.net)) << what;
        EXPECT_EQ(tree.buffers_added, chained.buffers_added) << what;
        EXPECT_EQ(tree.schedule.level, chained.schedule.level) << what;
        EXPECT_EQ(tree.schedule.depth, chained.schedule.depth) << what;
        EXPECT_LE(max_fanout_degree(tree.net), 3u) << what;
      }
    }
  }
}

TEST(buffer_insertion, a_tree_over_capacity_leaves_its_neighbours_chained) {
  // u feeds four consumers, at gaps 0, 1, 3 and 4, and needs a tree of
  // capacity 2. v feeds two, at gaps 2 and 5, and keeps the chain's shape:
  // five buffers in a row, the first on v, tapped after the second and the
  // fifth. Private chains would hang two buffers off v.
  mig_network net;
  const signal u = net.create_pi("u");
  const signal v = net.create_pi("v");
  const signal x = net.create_pi("x");
  const signal y = net.create_pi("y");
  const signal l1 = net.create_maj(u, x, y);
  const signal l2 = net.create_maj(l1, u, !x);
  const signal l3 = net.create_maj(l2, v, x);
  const signal l4 = net.create_maj(l3, u, y);
  const signal l5 = net.create_maj(l4, u, !y);
  net.create_po(net.create_maj(l5, v, x), "f");

  buffer_insertion_options opts;
  opts.strategy = buffer_strategy::tree;
  opts.fanout_limit = 2;
  const auto result = insert_buffers(net, opts);
  EXPECT_TRUE(check_wave_readiness(result.net).ready);
  EXPECT_TRUE(functionally_equivalent(net, result.net));
  EXPECT_LE(max_fanout_degree(result.net), 2u);

  const fanout_map fanouts = compute_fanouts(result.net);
  const node_index v_new = result.net.pis()[1];
  ASSERT_EQ(fanouts.degree(v_new), 1u);
  node_index link = v_new;
  for (int position = 1; position <= 5; ++position) {
    node_index next = 0;
    std::size_t gates = 0;
    for (const auto& e : fanouts.edges[link]) {
      if (e.consumer != fanout_map::po_consumer && result.net.is_buffer(e.consumer)) {
        EXPECT_EQ(next, 0u) << "two buffers hang off position " << position - 1;
        next = e.consumer;
      } else {
        ++gates;
      }
    }
    EXPECT_EQ(gates, position == 3 ? 1u : 0u) << "taps after position " << position - 1;
    ASSERT_NE(next, 0u) << "no buffer at position " << position;
    link = next;
  }
  ASSERT_EQ(fanouts.degree(link), 1u);
  EXPECT_TRUE(result.net.is_majority(fanouts.edges[link][0].consumer));
}

TEST(buffer_insertion, already_balanced_network_needs_nothing) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  net.create_po(net.create_maj(a, b, c));
  const auto result = insert_buffers(net);
  EXPECT_EQ(result.buffers_added, 0u);
  EXPECT_TRUE(check_wave_readiness(result.net).ready);
}

TEST(buffer_insertion, idempotent) {
  const auto net = gen::ripple_adder_circuit(12);
  const auto once = insert_buffers(net);
  const auto twice = insert_buffers(once.net);
  EXPECT_EQ(twice.buffers_added, 0u);
  EXPECT_EQ(twice.net.num_components(), once.net.num_components());
}

TEST(buffer_insertion, constant_driven_outputs_are_exempt) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  net.create_po(net.create_maj(net.create_maj(a, b, c), a, b), "logic");
  net.create_po(constant1, "one");
  const auto result = insert_buffers(net);
  EXPECT_TRUE(check_wave_readiness(result.net).ready);
  EXPECT_EQ(result.net.po_signal(1), constant1);
}

TEST(buffer_insertion, validates_options) {
  const auto net = skewed_example();
  buffer_insertion_options opts;
  opts.fanout_limit = 1;
  EXPECT_THROW(insert_buffers(net, opts), std::invalid_argument);
}

TEST(buffer_insertion, tree_rejects_overloaded_driver) {
  // A PI with 5 direct same-level consumers cannot respect capacity 2.
  mig_network net;
  const signal u = net.create_pi();
  const signal x = net.create_pi();
  const signal y = net.create_pi();
  for (int i = 0; i < 5; ++i) {
    net.create_po(net.create_maj(u, x, i % 2 ? y : !y), "o" + std::to_string(i));
  }
  buffer_insertion_options opts;
  opts.strategy = buffer_strategy::tree;
  opts.fanout_limit = 2;
  EXPECT_THROW(insert_buffers(net, opts), std::invalid_argument);
}

TEST(buffer_insertion, buffer_count_formula_on_multiplier) {
  // Independent of strategy, after insertion every edge spans one level.
  const auto net = gen::multiplier_circuit(6);
  const auto result = insert_buffers(net);
  const auto readiness = check_wave_readiness(result.net);
  EXPECT_TRUE(readiness.ready);
  EXPECT_TRUE(functionally_equivalent(net, result.net));
  EXPECT_GT(result.buffers_added, net.num_majorities());  // multipliers are skewed
}

}  // namespace
}  // namespace wavemig
