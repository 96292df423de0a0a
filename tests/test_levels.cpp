#include "wavemig/levels.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "wavemig/gen/arith.hpp"

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

TEST(levels, max_exclusive_base_distance_is_one_below) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m1 = net.create_maj(a, b, c);
  const signal m2 = net.create_maj(m1, a, b);
  net.create_po(m2);
  const auto levels = compute_levels(net);
  EXPECT_EQ(max_exclusive_base_distance(net, levels, m2.index()), 1u);
  EXPECT_EQ(max_exclusive_base_distance(net, levels, m1.index()), 0u);
  EXPECT_EQ(max_exclusive_base_distance(net, levels, a.index()), 0u);
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

}  // namespace
}  // namespace wavemig
