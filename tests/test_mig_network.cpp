#include "wavemig/mig.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "wavemig/gen/random_mig.hpp"
#include "wavemig/io/mig_format.hpp"
#include "wavemig/simulation.hpp"

namespace wavemig {
namespace {

TEST(mig_network, starts_with_constant_node_only) {
  mig_network net;
  EXPECT_EQ(net.num_nodes(), 1u);
  EXPECT_TRUE(net.is_constant(0));
  EXPECT_EQ(net.get_constant(false), constant0);
  EXPECT_EQ(net.get_constant(true), constant1);
}

TEST(mig_network, primary_inputs_have_names_and_positions) {
  mig_network net;
  const signal a = net.create_pi("alpha");
  const signal b = net.create_pi();
  EXPECT_EQ(net.num_pis(), 2u);
  EXPECT_EQ(net.pi_name(0), "alpha");
  EXPECT_EQ(net.pi_name(1), "pi1");
  EXPECT_EQ(net.pi_position(a.index()), 0u);
  EXPECT_EQ(net.pi_position(b.index()), 1u);
}

TEST(mig_network, majority_reduces_equal_fanins) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  EXPECT_EQ(net.create_maj(a, a, b), a);   // M(x,x,y) = x
  EXPECT_EQ(net.create_maj(b, a, b), b);
  EXPECT_EQ(net.create_maj(!a, b, !a), !a);
  EXPECT_EQ(net.num_majorities(), 0u);
}

TEST(mig_network, majority_reduces_complementary_fanins) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  EXPECT_EQ(net.create_maj(a, !a, b), b);  // M(x,!x,y) = y
  EXPECT_EQ(net.create_maj(b, a, !b), a);
  EXPECT_EQ(net.create_maj(constant0, constant1, b), b);
  EXPECT_EQ(net.num_majorities(), 0u);
}

TEST(mig_network, structural_hashing_reuses_nodes) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m1 = net.create_maj(a, b, c);
  const signal m2 = net.create_maj(c, a, b);  // any permutation
  const signal m3 = net.create_maj(b, c, a);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1, m3);
  EXPECT_EQ(net.num_majorities(), 1u);
}

TEST(mig_network, self_duality_canonicalization) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  // M(!a,!b,c) must map onto the complement of M(a,b,!c): one shared node.
  const signal m1 = net.create_maj(!a, !b, c);
  const signal m2 = net.create_maj(a, b, !c);
  EXPECT_EQ(m1.index(), m2.index());
  EXPECT_NE(m1.is_complemented(), m2.is_complemented());
  EXPECT_EQ(net.num_majorities(), 1u);
  // Triple complement: M(!a,!b,!c) = !M(a,b,c).
  const signal m3 = net.create_maj(!a, !b, !c);
  const signal m4 = net.create_maj(a, b, c);
  EXPECT_EQ(m3, !m4);
}

TEST(mig_network, stored_majorities_have_at_most_one_complemented_fanin) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  net.create_maj(!a, !b, c);
  net.create_maj(!a, !b, !c);
  net.create_maj(a, !b, c);
  net.foreach_gate([&](node_index n) {
    int complemented = 0;
    for (const signal f : net.fanins(n)) {
      complemented += f.is_complemented() ? 1 : 0;
    }
    EXPECT_LE(complemented, 1);
  });
}

TEST(mig_network, and_or_are_majorities_with_constants) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  net.create_po(net.create_and(a, b), "and");
  net.create_po(net.create_or(a, b), "or");
  const auto tts = simulate_truth_tables(net);
  EXPECT_EQ(tts[0], truth_table::nth_var(2, 0) & truth_table::nth_var(2, 1));
  EXPECT_EQ(tts[1], truth_table::nth_var(2, 0) | truth_table::nth_var(2, 1));
}

TEST(mig_network, xor_and_mux_construction) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal s = net.create_pi();
  net.create_po(net.create_xor(a, b), "xor");
  net.create_po(net.create_mux(s, a, b), "mux");
  const auto tts = simulate_truth_tables(net);
  const auto ta = truth_table::nth_var(3, 0);
  const auto tb = truth_table::nth_var(3, 1);
  const auto ts = truth_table::nth_var(3, 2);
  EXPECT_EQ(tts[0], ta ^ tb);
  EXPECT_EQ(tts[1], truth_table::ite(ts, ta, tb));
}

TEST(mig_network, full_adder_is_three_gates) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const auto [sum, carry] = net.create_full_adder(a, b, c);
  net.create_po(sum, "s");
  net.create_po(carry, "c");
  EXPECT_EQ(net.num_majorities(), 3u);
  const auto tts = simulate_truth_tables(net);
  const auto ta = truth_table::nth_var(3, 0);
  const auto tb = truth_table::nth_var(3, 1);
  const auto tc = truth_table::nth_var(3, 2);
  EXPECT_EQ(tts[0], ta ^ tb ^ tc);
  EXPECT_EQ(tts[1], truth_table::maj(ta, tb, tc));
}

TEST(mig_network, buffers_and_fanouts_are_not_hashed) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b1 = net.create_buffer(a);
  const signal b2 = net.create_buffer(a);
  EXPECT_NE(b1, b2);
  const signal f1 = net.create_fanout(a);
  const signal f2 = net.create_fanout(a);
  EXPECT_NE(f1, f2);
  EXPECT_EQ(net.num_buffers(), 2u);
  EXPECT_EQ(net.num_fanout_gates(), 2u);
  EXPECT_EQ(net.num_components(), 4u);
}

TEST(mig_network, fanin_spans_by_kind) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m = net.create_maj(a, b, c);
  const signal buf = net.create_buffer(m);
  EXPECT_EQ(net.fanins(a.index()).size(), 0u);
  EXPECT_EQ(net.fanins(m.index()).size(), 3u);
  EXPECT_EQ(net.fanins(buf.index()).size(), 1u);
  EXPECT_EQ(net.fanins(buf.index())[0], m);
}

TEST(mig_network, po_registration_preserves_order_and_names) {
  mig_network net;
  const signal a = net.create_pi();
  EXPECT_EQ(net.create_po(a, "first"), 0u);
  EXPECT_EQ(net.create_po(!a, "second"), 1u);
  EXPECT_EQ(net.create_po(constant1), 2u);
  EXPECT_EQ(net.po_name(0), "first");
  EXPECT_EQ(net.po_name(2), "po2");
  EXPECT_EQ(net.po_signal(1), !a);
  EXPECT_EQ(net.po_signal(2), constant1);
}

TEST(mig_network, rejects_dangling_signal_references) {
  mig_network net;
  const signal bogus{99, false};
  const signal a = net.create_pi();
  EXPECT_THROW(net.create_maj(a, a, bogus), std::invalid_argument);
  EXPECT_THROW(net.create_buffer(bogus), std::invalid_argument);
  EXPECT_THROW(net.create_po(bogus), std::invalid_argument);
}

TEST(mig_network, index_order_is_topological) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  const signal m1 = net.create_maj(a, b, c);
  const signal m2 = net.create_maj(m1, a, b);
  const signal m3 = net.create_maj(m2, m1, c);
  net.create_po(m3);
  net.foreach_node([&](node_index n) {
    for (const signal f : net.fanins(n)) {
      EXPECT_LT(f.index(), n);
    }
  });
}

// ------------------------------------------------------------ append_maj ---

std::string mig_text(const mig_network& net) {
  std::ostringstream os;
  io::write_mig(net, os);
  return os.str();
}

/// Rebuilds `net` node by node, majority gates through append_maj.
mig_network appended_copy(const mig_network& net) {
  mig_network copy;
  std::vector<signal> map(net.num_nodes(), constant0);
  const auto mapped = [&](signal s) { return map[s.index()].complement_if(s.is_complemented()); };
  net.foreach_node([&](node_index n) {
    const auto fis = net.fanins(n);
    switch (net.kind(n)) {
      case node_kind::constant:
        break;
      case node_kind::primary_input:
        map[n] = copy.create_pi(net.pi_name(net.pi_position(n)));
        break;
      case node_kind::majority:
        map[n] = copy.append_maj(mapped(fis[2]), mapped(fis[0]), mapped(fis[1]));
        break;
      case node_kind::buffer:
        map[n] = copy.create_buffer(mapped(fis[0]));
        break;
      case node_kind::fanout:
        map[n] = copy.create_fanout(mapped(fis[0]));
        break;
    }
  });
  for (std::size_t p = 0; p < net.num_pos(); ++p) {
    copy.create_po(mapped(net.po_signal(p)), net.po_name(p));
  }
  return copy;
}

TEST(mig_network, append_maj_stores_the_node_create_maj_would) {
  gen::random_mig_profile profile;
  profile.gates = 500;
  const mig_network net = gen::random_mig(profile);
  const mig_network copy = appended_copy(net);
  EXPECT_EQ(mig_text(copy), mig_text(net));
  EXPECT_EQ(copy.num_majorities(), net.num_majorities());
  EXPECT_EQ(copy.depth(), net.depth());
  ASSERT_EQ(copy.num_nodes(), net.num_nodes());
  for (node_index n = 0; n < net.num_nodes(); ++n) {
    ASSERT_EQ(copy.level(n), net.level(n)) << "node " << n;
  }
}

TEST(mig_network, create_maj_after_appends_finds_every_appended_gate) {
  // The appends skip the hash table; the first create_maj rebuilds it, and
  // every existing gate is then found rather than created twice.
  gen::random_mig_profile profile;
  profile.gates = 300;
  mig_network copy = appended_copy(gen::random_mig(profile));
  const std::size_t nodes = copy.num_nodes();
  copy.foreach_gate([&](node_index g) {
    const auto fis = copy.fanins(g);
    EXPECT_EQ(copy.create_maj(fis[1], fis[2], fis[0]), (signal{g, false}));
    EXPECT_EQ(copy.create_maj(!fis[0], !fis[1], !fis[2]), (signal{g, true}));
  });
  EXPECT_EQ(copy.num_nodes(), nodes);

  // And a new gate after that is hashed too.
  const signal a = copy.create_pi();
  const signal fresh = copy.create_maj(a, signal{1, false}, signal{2, true});
  EXPECT_EQ(copy.num_nodes(), nodes + 2);
  EXPECT_EQ(copy.create_maj(signal{2, true}, a, signal{1, false}), fresh);
  EXPECT_EQ(copy.num_nodes(), nodes + 2);
}

TEST(mig_network, append_maj_refuses_every_violated_precondition) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  // Two or three complemented fan-ins: create_maj would flip them.
  EXPECT_THROW(net.append_maj(!a, !b, c), std::logic_error);
  EXPECT_THROW(net.append_maj(a, !b, !c), std::logic_error);
  EXPECT_THROW(net.append_maj(!a, !b, !c), std::logic_error);
  // A repeated fan-in node, either polarity: create_maj would reduce it.
  EXPECT_THROW(net.append_maj(a, a, b), std::logic_error);
  EXPECT_THROW(net.append_maj(a, b, !a), std::logic_error);
  EXPECT_THROW(net.append_maj(constant0, a, constant1), std::logic_error);
  // A node that does not exist (std::invalid_argument is a logic_error).
  EXPECT_THROW(net.append_maj(a, b, signal{99, false}), std::logic_error);
  EXPECT_EQ(net.num_nodes(), 4u);
  EXPECT_EQ(net.num_majorities(), 0u);

  const signal g = net.append_maj(c, !a, constant0);
  EXPECT_FALSE(g.is_complemented());
  EXPECT_EQ(net.level(g.index()), 1u);
  EXPECT_EQ(net.num_majorities(), 1u);
}

#ifndef NDEBUG
TEST(mig_network, checked_builds_refuse_an_append_of_an_existing_gate) {
  mig_network net;
  const signal a = net.create_pi();
  const signal b = net.create_pi();
  const signal c = net.create_pi();
  net.create_maj(a, b, c);
  EXPECT_DEATH(net.append_maj(c, b, a), "equal gate exists");
}
#endif

}  // namespace
}  // namespace wavemig
