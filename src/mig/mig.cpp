#include "wavemig/mig.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace wavemig {

namespace {

void check_signal(const std::vector<mig_network::node>& nodes, signal s, const char* what) {
  if (s.index() >= nodes.size()) {
    throw std::invalid_argument{std::string{what} + ": signal references unknown node"};
  }
}

/// Home slot of a sorted fan-in array: FNV-1a over the three raw signal
/// words, its high half folded into the low one before masking, so every
/// bit of every fan-in reaches the slot.
std::size_t strash_slot(const std::array<signal, 3>& fanin, std::size_t mask) {
  std::uint64_t h = 1469598103934665603ull;
  for (const signal s : fanin) {
    h ^= s.raw();
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h ^ (h >> 32)) & mask;
}

}  // namespace

mig_network::mig_network() {
  nodes_.push_back(node{node_kind::constant, {}, 0});
  levels_.push_back(0);
}

void mig_network::reserve(std::size_t num_nodes) {
  nodes_.reserve(num_nodes);
  levels_.reserve(num_nodes);
}

node_index mig_network::push_node(node_kind kind, const std::array<signal, 3>& fanin,
                                  std::uint32_t level) {
  const auto index = static_cast<node_index>(nodes_.size());
  nodes_.push_back(node{kind, fanin, 0});
  levels_.push_back(level);
  return index;
}

signal mig_network::create_pi(std::string name) {
  const node_index index = push_node(node_kind::primary_input, {}, 0);
  nodes_[index].aux = static_cast<std::uint32_t>(pis_.size());
  pis_.push_back(index);
  pi_names_.push_back(name.empty() ? "pi" + std::to_string(pis_.size() - 1) : std::move(name));
  return signal{index, false};
}

signal mig_network::create_maj(signal a, signal b, signal c) {
  check_signal(nodes_, a, "create_maj");
  check_signal(nodes_, b, "create_maj");
  check_signal(nodes_, c, "create_maj");

  // Functional reductions: M(x,x,y) = x and M(x,!x,y) = y.
  if (a == b) return a;
  if (a == c) return a;
  if (b == c) return b;
  if (a == !b) return c;
  if (a == !c) return b;
  if (b == !c) return a;

  // Complement-parity canonicalization via self-duality:
  // with two or more complemented fan-ins, flip all three and complement
  // the output, so stored nodes have at most one complemented fan-in.
  const int complemented = static_cast<int>(a.is_complemented()) +
                           static_cast<int>(b.is_complemented()) +
                           static_cast<int>(c.is_complemented());
  bool output_complemented = false;
  if (complemented >= 2) {
    a = !a;
    b = !b;
    c = !c;
    output_complemented = true;
  }

  std::array<signal, 3> in{a, b, c};
  std::sort(in.begin(), in.end());
  const std::size_t slot = probe(in);
  if (strash_[slot] == 0) {
    strash_[slot] = push_maj(in);
    ++num_hashed_;
  }
  return signal{strash_[slot], output_complemented};
}

signal mig_network::append_maj(signal a, signal b, signal c) {
  check_signal(nodes_, a, "append_maj");
  check_signal(nodes_, b, "append_maj");
  check_signal(nodes_, c, "append_maj");
  std::array<signal, 3> in{a, b, c};
  std::sort(in.begin(), in.end());
  // Sorted signals order by node index first, so equal nodes are adjacent.
  if (in[0].index() == in[1].index() || in[1].index() == in[2].index()) {
    throw std::logic_error{"append_maj: the three fan-in nodes must be distinct"};
  }
  if (static_cast<int>(a.is_complemented()) + static_cast<int>(b.is_complemented()) +
          static_cast<int>(c.is_complemented()) > 1) {
    throw std::logic_error{"append_maj: at most one fan-in may be complemented"};
  }
#ifndef NDEBUG
  const std::size_t slot = probe(in);
  assert(strash_[slot] == 0 && "append_maj: an equal gate exists; use create_maj");
  strash_[slot] = push_maj(in);
  ++num_hashed_;
  return signal{strash_[slot], false};
#else
  return signal{push_maj(in), false};
#endif
}

node_index mig_network::push_maj(const std::array<signal, 3>& sorted_fanin) {
  const std::uint32_t level = 1 + std::max({levels_[sorted_fanin[0].index()],
                                            levels_[sorted_fanin[1].index()],
                                            levels_[sorted_fanin[2].index()]});
  ++num_majorities_;
  return push_node(node_kind::majority, sorted_fanin, level);
}

std::size_t mig_network::probe(const std::array<signal, 3>& sorted_fanin) {
  if (num_hashed_ != num_majorities_ || 2 * (num_majorities_ + 1) > strash_.size()) {
    rebuild_strash();
  }
  const std::size_t mask = strash_.size() - 1;
  std::size_t slot = strash_slot(sorted_fanin, mask);
  while (strash_[slot] != 0 && nodes_[strash_[slot]].fanin != sorted_fanin) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void mig_network::rebuild_strash() {
  // Sized for one more gate: the smallest power of two, and at least 64,
  // that keeps the table at most half full. On the create_maj path that is
  // a doubling. Re-inserts by scanning the nodes in order, so every key
  // read is sequential.
  strash_.assign(std::bit_ceil(std::max<std::size_t>(64, 2 * (num_majorities_ + 1))), 0);
  const std::size_t mask = strash_.size() - 1;
  for (node_index n = 1; n < nodes_.size(); ++n) {
    if (nodes_[n].kind == node_kind::majority) {
      std::size_t slot = strash_slot(nodes_[n].fanin, mask);
      while (strash_[slot] != 0) {
        slot = (slot + 1) & mask;
      }
      strash_[slot] = n;
    }
  }
  num_hashed_ = num_majorities_;
}

signal mig_network::create_xor(signal a, signal b) {
  // a ^ b = (a | b) & !(a & b) = M(M(a,b,1), !M(a,b,0), 0)
  const signal any = create_or(a, b);
  const signal both = create_and(a, b);
  return create_and(any, !both);
}

signal mig_network::create_mux(signal sel, signal t, signal e) {
  if (t == e) {
    return t;
  }
  // sel ? t : e = (sel & t) | (!sel & e)
  return create_or(create_and(sel, t), create_and(!sel, e));
}

std::pair<signal, signal> mig_network::create_full_adder(signal a, signal b, signal c) {
  const signal carry = create_maj(a, b, c);
  const signal sum = create_maj(!carry, create_maj(a, b, !c), c);
  return {sum, carry};
}

signal mig_network::create_buffer(signal in) {
  check_signal(nodes_, in, "create_buffer");
  ++num_buffers_;
  return signal{push_node(node_kind::buffer, {in}, 1 + levels_[in.index()]), false};
}

signal mig_network::create_fanout(signal in) {
  check_signal(nodes_, in, "create_fanout");
  ++num_fanouts_;
  return signal{push_node(node_kind::fanout, {in}, 1 + levels_[in.index()]), false};
}

std::uint32_t mig_network::create_po(signal driver, std::string name) {
  check_signal(nodes_, driver, "create_po");
  if (!is_constant(driver.index())) {
    depth_ = std::max(depth_, levels_[driver.index()]);
  }
  const auto position = static_cast<std::uint32_t>(pos_.size());
  pos_.push_back(output{driver, name.empty() ? "po" + std::to_string(position) : std::move(name)});
  return position;
}

}  // namespace wavemig
