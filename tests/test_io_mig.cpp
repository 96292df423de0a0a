#include "wavemig/io/mig_format.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/fanout_restriction.hpp"
#include "wavemig/gen/arith.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/simulation.hpp"

namespace wavemig {
namespace {

mig_network round_trip(const mig_network& net) {
  std::stringstream ss;
  io::write_mig(net, ss);
  return io::read_mig(ss);
}

TEST(mig_format, round_trips_logic_networks) {
  const auto net = gen::multiplier_circuit(5);
  const auto back = round_trip(net);
  EXPECT_EQ(back.num_pis(), net.num_pis());
  EXPECT_EQ(back.num_pos(), net.num_pos());
  EXPECT_EQ(back.num_majorities(), net.num_majorities());
  EXPECT_TRUE(functionally_equivalent(net, back));
}

TEST(mig_format, round_trips_physical_netlists) {
  // Buffers and FOGs (never hashed) must survive exactly.
  auto piped = restrict_fanout(gen::multiplier_circuit(4), {3, true});
  auto balanced = insert_buffers(piped.net);
  const auto back = round_trip(balanced.net);
  EXPECT_EQ(back.num_buffers(), balanced.net.num_buffers());
  EXPECT_EQ(back.num_fanout_gates(), balanced.net.num_fanout_gates());
  EXPECT_EQ(compute_levels(back).depth, compute_levels(balanced.net).depth);
  EXPECT_TRUE(functionally_equivalent(balanced.net, back));
}

TEST(mig_format, preserves_names) {
  mig_network net;
  const signal x = net.create_pi("clock_en");
  const signal y = net.create_pi("data_in");
  const signal z = net.create_pi("sel");
  net.create_po(net.create_maj(x, y, z), "vote_out");
  const auto back = round_trip(net);
  EXPECT_EQ(back.pi_name(0), "clock_en");
  EXPECT_EQ(back.pi_name(2), "sel");
  EXPECT_EQ(back.po_name(0), "vote_out");
}

TEST(mig_format, handles_constants_and_complements) {
  mig_network net;
  const signal a = net.create_pi("a");
  const signal b = net.create_pi("b");
  net.create_po(net.create_and(!a, b), "f");
  net.create_po(constant1, "one");
  net.create_po(!net.create_or(a, !b), "g");
  const auto back = round_trip(net);
  EXPECT_TRUE(functionally_equivalent(net, back));
  EXPECT_EQ(back.po_signal(1), constant1);
}

TEST(mig_format, written_text_is_structured) {
  mig_network net;
  const signal a = net.create_pi("a");
  const signal b = net.create_pi("b");
  const signal c = net.create_pi("c");
  const signal m = net.create_maj(a, b, c);
  net.create_buffer(m);
  net.create_po(m, "f");
  std::stringstream ss;
  io::write_mig(net, ss, "example");
  const std::string text = ss.str();
  EXPECT_NE(text.find(".model example"), std::string::npos);
  EXPECT_NE(text.find(".inputs a b c"), std::string::npos);
  EXPECT_NE(text.find("= MAJ(a, b, c)"), std::string::npos);
  EXPECT_NE(text.find("= BUF("), std::string::npos);
  EXPECT_NE(text.find(".output f ="), std::string::npos);
}

TEST(mig_format, parses_comments_and_whitespace) {
  std::stringstream ss{R"(# header comment
.model t
.inputs a b c

# gate section
n1 = MAJ(a, !b, c)
n2 = BUF(n1)
n3 = FOG(n2)
.output f = !n3
)"};
  const auto net = io::read_mig(ss);
  EXPECT_EQ(net.num_pis(), 3u);
  EXPECT_EQ(net.num_majorities(), 1u);
  EXPECT_EQ(net.num_buffers(), 1u);
  EXPECT_EQ(net.num_fanout_gates(), 1u);
  EXPECT_TRUE(net.po_signal(0).is_complemented());
}

TEST(mig_format, error_use_before_definition) {
  std::stringstream ss{".inputs a b\nn1 = MAJ(a, b, n2)\nn2 = BUF(n1)\n.output f = n1\n"};
  EXPECT_THROW(io::read_mig(ss), io::parse_error);
  // With several undefined operands, the leftmost one is reported.
  std::stringstream ss2{".inputs a\nn1 = MAJ(a, x, y)\n"};
  try {
    io::read_mig(ss2);
    FAIL() << "expected parse_error";
  } catch (const io::parse_error& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_STREQ(e.what(), "line 2: use of undefined signal 'x'");
  }
}

TEST(mig_format, error_redefinition) {
  std::stringstream ss{".inputs a b c\nn1 = MAJ(a, b, c)\nn1 = BUF(a)\n.output f = n1\n"};
  EXPECT_THROW(io::read_mig(ss), io::parse_error);

  // An operand `0`, `1` or `!x` never reads a signal of that spelling, so
  // defining one would silently redefine a constant or a complement: the
  // definition itself is the error, on its own line.
  const auto expect_rejected_at = [](const std::string& text, std::size_t line) {
    std::stringstream in{text};
    try {
      (void)io::read_mig(in);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const io::parse_error& e) {
      EXPECT_EQ(e.line(), line) << e.what() << "\n" << text;
    }
  };
  expect_rejected_at(".inputs 1 b c\nn4 = MAJ(1, b, c)\n.output f = n4\n", 1);
  expect_rejected_at(".inputs a 0 c\nn4 = MAJ(a, 0, c)\n.output f = n4\n", 1);
  expect_rejected_at(".inputs !x b c\nn1 = MAJ(!x, b, c)\n.output f = n1\n", 1);
  expect_rejected_at(".inputs a b c\n1 = MAJ(a, b, c)\n.output f = 1\n", 2);
  expect_rejected_at(".inputs a b c\n0 = BUF(a)\n.output f = 0\n", 2);
  expect_rejected_at(".inputs a b c\n!n = FOG(a)\n.output f = !n\n", 2);
  // Operands split on ',': such a name could feed an output, never a gate,
  // and write_mig refuses it.
  expect_rejected_at(".inputs a,b c\n.output f = a,b\n", 1);
  expect_rejected_at(".inputs a b c\nx,y = BUF(a)\n.output f = x,y\n", 2);
}

TEST(mig_format, pi_named_like_a_literal_is_rejected_not_read_as_a_constant) {
  // Written verbatim, MAJ(PI "1", b, c) would become ".inputs 1 b c" and
  // "MAJ(1, b, c)": read back, the operand would be the constant and the
  // gate OR(b, c). The writer refuses the name, and the reader refuses the
  // text it would have written.
  for (const std::string literal : {"0", "1"}) {
    mig_network net;
    const signal x = net.create_pi(literal);
    const signal b = net.create_pi("b");
    const signal c = net.create_pi("c");
    net.create_po(net.create_maj(x, b, c), "f");
    std::stringstream ss;
    EXPECT_THROW(io::write_mig(net, ss), std::invalid_argument) << "PI named " << literal;
    std::stringstream verbatim{".inputs " + literal + " b c\nn4 = MAJ(" + literal +
                               ", b, c)\n.output f = n4\n"};
    EXPECT_THROW((void)io::read_mig(verbatim), io::parse_error) << "PI named " << literal;
  }
}

TEST(mig_format, gate_names_never_redefine_an_input) {
  // Named n<index> too, gate 4 would redefine the PI "n4" on read-back, so
  // the writer moves every gate name out of the inputs' way.
  mig_network net;
  const signal a = net.create_pi("n4");
  const signal b = net.create_pi("n_5");
  const signal c = net.create_pi("n");
  const signal g = net.create_maj(a, b, c);
  ASSERT_EQ(g.index(), 4u);
  net.create_po(net.create_maj(g, a, !b), "f");
  std::stringstream ss;
  io::write_mig(net, ss);
  EXPECT_NE(ss.str().find("n__4 = MAJ("), std::string::npos) << ss.str();
  const auto back = io::read_mig(ss);
  EXPECT_EQ(back.pi_name(0), "n4");
  EXPECT_EQ(back.pi_name(1), "n_5");
  EXPECT_EQ(back.pi_name(2), "n");
  EXPECT_TRUE(functionally_equivalent(net, back));

  // Without such an input, gate names stay n<index>.
  std::stringstream plain;
  io::write_mig(gen::multiplier_circuit(3), plain);
  EXPECT_NE(plain.str().find("\nn"), std::string::npos);
  EXPECT_EQ(plain.str().find("n_"), std::string::npos);
}

TEST(mig_format, names_the_grammar_cannot_carry_are_refused_before_writing) {
  const auto refused = [](const mig_network& net, const std::string& model = "mig") {
    std::stringstream ss;
    EXPECT_THROW(io::write_mig(net, ss, model), std::invalid_argument);
    EXPECT_TRUE(ss.str().empty()) << "wrote before refusing:\n" << ss.str();
  };
  const auto with_names = [](const std::string& x, const std::string& y,
                             const std::string& out) {
    mig_network net;
    const signal a = net.create_pi(x);
    const signal b = net.create_pi(y);
    const signal c = net.create_pi("c");
    net.create_po(net.create_maj(a, b, c), out);
    return net;
  };
  refused(with_names("x y", "b", "f"));     // read back as two inputs
  refused(with_names("x\ty", "b", "f"));
  refused(with_names("a,b", "b", "f"));     // split into two operands
  refused(with_names("!a", "b", "f"));      // read as a complement
  refused(with_names("a", "a", "f"));       // duplicate input
  refused(with_names("a", "b", "f g"));     // output name with a space
  refused(with_names("a", "b", "f=g"));     // output name with '='
  refused(with_names("a", "b", "f"), "m\n.inputs z");

  // Everything else reads back, names included.
  const auto odd = with_names("a(1)", "#b", "f,g!");
  std::stringstream ss;
  io::write_mig(odd, ss);
  const auto back = io::read_mig(ss);
  EXPECT_EQ(back.pi_name(0), "a(1)");
  EXPECT_EQ(back.pi_name(1), "#b");
  EXPECT_EQ(back.po_name(0), "f,g!");
  EXPECT_TRUE(functionally_equivalent(odd, back));
}

TEST(mig_format, error_wrong_arity) {
  std::stringstream ss{".inputs a b\nn1 = MAJ(a, b)\n.output f = n1\n"};
  EXPECT_THROW(io::read_mig(ss), io::parse_error);
  std::stringstream ss2{".inputs a\nn1 = BUF(a, a)\n.output f = n1\n"};
  EXPECT_THROW(io::read_mig(ss2), io::parse_error);
}

TEST(mig_format, error_unknown_kind_and_garbage) {
  std::stringstream ss{".inputs a b c\nn1 = NAND(a, b, c)\n.output f = n1\n"};
  EXPECT_THROW(io::read_mig(ss), io::parse_error);
  std::stringstream ss2{"this is not a netlist\n"};
  EXPECT_THROW(io::read_mig(ss2), io::parse_error);
}

TEST(mig_format, parse_error_reports_line_number) {
  std::stringstream ss{".inputs a b\n\nn1 = MAJ(a, b, zz)\n"};
  try {
    io::read_mig(ss);
    FAIL() << "expected parse_error";
  } catch (const io::parse_error& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos);
  }
}

TEST(mig_format, file_round_trip) {
  const auto net = gen::ripple_adder_circuit(6);
  const std::string path = ::testing::TempDir() + "wavemig_io_test.mig";
  io::write_mig_file(net, path);
  const auto back = io::read_mig_file(path);
  EXPECT_TRUE(functionally_equivalent(net, back));
  EXPECT_THROW(io::read_mig_file("/nonexistent/path.mig"), std::runtime_error);
}

}  // namespace
}  // namespace wavemig
