#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wavemig/signal.hpp"

namespace wavemig {

/// Kind of a network node. `majority` nodes are the only logic primitive of
/// a MIG (§II-A of the paper); `buffer` and `fanout` are the physical
/// components inserted by the wave-pipelining passes (§III, §IV).
enum class node_kind : std::uint8_t {
  constant,       ///< node 0; signal polarity selects logic 0 / logic 1
  primary_input,  ///< circuit input
  majority,       ///< 3-input majority gate
  buffer,         ///< 1-input delay element (wave balancing)
  fanout,         ///< 1-input fan-out gate (FOG), k physical output ports
};

/// Majority-Inverter Graph.
///
/// The network is append-only: nodes are never removed or re-wired, and a
/// node's fan-ins always have smaller indices, so **node index order is a
/// topological order**. Optimization passes produce new networks (see
/// cleanup.hpp, depth_rewriting.hpp, and the wave-pipelining passes in
/// core/), which keeps every intermediate result valid and hashable.
///
/// Every node carries its ASAP level, recorded when it is appended: PIs
/// and the constant sit at 0, and a component (majority, buffer, fan-out
/// gate) one above its deepest fan-in, so one fed only by constants sits at
/// 1. Because nodes are only appended and never re-wired, a level is final
/// once set, and so is `depth()` once the outputs are registered;
/// `compute_levels` (levels.hpp) copies them instead of walking the fan-ins.
///
/// Majority nodes are canonicalized (fan-ins sorted, at most one complemented
/// fan-in via the self-duality M(!a,!b,!c) = !M(a,b,c)) and structurally
/// hashed, so logically identical gates are created once. The functional
/// reductions M(x,x,y) = x and M(x,!x,y) = y are applied on construction.
/// Buffers and fan-out gates are *not* hashed: they are distinct physical
/// components even when fed by the same signal.
class mig_network {
public:
  struct node {
    node_kind kind{node_kind::constant};
    /// Fan-in signals; used slots: majority = 3, buffer/fanout = 1, else 0.
    std::array<signal, 3> fanin{};
    /// Kind-specific payload: PI position for primary inputs.
    std::uint32_t aux{0};
  };

  struct output {
    signal driver;
    std::string name;
  };

  mig_network();

  /// @name Construction
  /// @{

  /// Constant signal; the complement attribute encodes the value.
  [[nodiscard]] signal get_constant(bool value) const { return value ? constant1 : constant0; }

  /// Adds a primary input. `name` defaults to "pi<N>".
  signal create_pi(std::string name = {});

  /// Adds (or reuses) a canonicalized majority gate.
  signal create_maj(signal a, signal b, signal c);

  /// Appends a majority gate known to be new, without the structural-hash
  /// probe: the rebuild of a strashed network (the wave-pipelining passes)
  /// maps distinct gates onto distinct fan-in triples, so a probe would
  /// never match. Stores exactly the node `create_maj(a, b, c)` would
  /// create. Throws std::logic_error unless at most one fan-in is
  /// complemented and the three fan-in nodes are distinct; checked builds
  /// (!NDEBUG) also assert that no equal gate exists. The hash table is
  /// rebuilt once, at its final size, by the next `create_maj`.
  signal append_maj(signal a, signal b, signal c);

  /// AND as M(a, b, 0).
  signal create_and(signal a, signal b) { return create_maj(a, b, constant0); }
  /// OR as M(a, b, 1).
  signal create_or(signal a, signal b) { return create_maj(a, b, constant1); }
  /// XOR from three majority gates.
  signal create_xor(signal a, signal b);
  /// Multiplexer sel ? t : e built from AND/OR majority gates.
  signal create_mux(signal sel, signal t, signal e);

  /// Full adder: returns {sum, carry} using the 3-gate MIG construction
  /// carry = M(a,b,c), sum = M(!carry, M(a,b,!c), c).
  std::pair<signal, signal> create_full_adder(signal a, signal b, signal c);

  /// Adds a balancing buffer (never hashed).
  signal create_buffer(signal in);

  /// Adds a fan-out gate / FOG (never hashed).
  signal create_fanout(signal in);

  /// Registers a primary output; returns its position. `name` defaults to
  /// "po<N>".
  std::uint32_t create_po(signal driver, std::string name = {});

  /// Reserves room for `num_nodes` nodes in all, so a pass that knows the
  /// size of the network it builds allocates once.
  void reserve(std::size_t num_nodes);

  /// @}
  /// @name Structure queries
  /// @{

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_pis() const { return pis_.size(); }
  [[nodiscard]] std::size_t num_pos() const { return pos_.size(); }
  [[nodiscard]] std::size_t num_majorities() const { return num_majorities_; }
  [[nodiscard]] std::size_t num_buffers() const { return num_buffers_; }
  [[nodiscard]] std::size_t num_fanout_gates() const { return num_fanouts_; }

  /// Majority + buffer + fanout count: the component count used in the
  /// paper's netlist-size metrics (PIs and constants are not components).
  [[nodiscard]] std::size_t num_components() const {
    return num_majorities_ + num_buffers_ + num_fanouts_;
  }

  [[nodiscard]] node_kind kind(node_index n) const { return nodes_[n].kind; }
  /// Node 0 is the only constant node, so this reads no node.
  [[nodiscard]] bool is_constant(node_index n) const { return n == 0; }
  [[nodiscard]] bool is_pi(node_index n) const { return nodes_[n].kind == node_kind::primary_input; }
  [[nodiscard]] bool is_majority(node_index n) const { return nodes_[n].kind == node_kind::majority; }
  [[nodiscard]] bool is_buffer(node_index n) const { return nodes_[n].kind == node_kind::buffer; }
  [[nodiscard]] bool is_fanout_gate(node_index n) const { return nodes_[n].kind == node_kind::fanout; }

  /// Fan-in signals of a node (empty span for constants and PIs).
  [[nodiscard]] std::span<const signal> fanins(node_index n) const {
    // Used slots per node_kind: constant, primary_input, majority, buffer, fanout.
    static constexpr std::array<std::uint8_t, 5> arity{0, 0, 3, 1, 1};
    const auto& nd = nodes_[n];
    return {nd.fanin.data(), arity[static_cast<std::size_t>(nd.kind)]};
  }

  /// All PI node indices in creation order.
  [[nodiscard]] const std::vector<node_index>& pis() const { return pis_; }
  /// All primary outputs in creation order.
  [[nodiscard]] const std::vector<output>& pos() const { return pos_; }

  [[nodiscard]] signal po_signal(std::size_t position) const { return pos_[position].driver; }
  [[nodiscard]] const std::string& po_name(std::size_t position) const { return pos_[position].name; }
  [[nodiscard]] const std::string& pi_name(std::size_t position) const { return pi_names_[position]; }
  /// PI position of a primary-input node.
  [[nodiscard]] std::size_t pi_position(node_index n) const { return nodes_[n].aux; }

  /// ASAP level of a node (see the class comment).
  [[nodiscard]] std::uint32_t level(node_index n) const { return levels_[n]; }
  /// Levels of every node, by node index.
  [[nodiscard]] std::span<const std::uint32_t> levels() const { return levels_; }
  /// Maximum level over the non-constant primary-output drivers.
  [[nodiscard]] std::uint32_t depth() const { return depth_; }

  /// @}
  /// @name Iteration (index order == topological order)
  /// @{

  template <typename Fn>
  void foreach_node(Fn&& fn) const {
    for (node_index n = 0; n < nodes_.size(); ++n) {
      fn(n);
    }
  }

  template <typename Fn>
  void foreach_gate(Fn&& fn) const {
    for (node_index n = 1; n < nodes_.size(); ++n) {
      if (nodes_[n].kind == node_kind::majority) {
        fn(n);
      }
    }
  }

  template <typename Fn>
  void foreach_component(Fn&& fn) const {
    for (node_index n = 1; n < nodes_.size(); ++n) {
      const auto k = nodes_[n].kind;
      if (k == node_kind::majority || k == node_kind::buffer || k == node_kind::fanout) {
        fn(n);
      }
    }
  }

  /// @}

private:
  node_index push_node(node_kind kind, const std::array<signal, 3>& fanin, std::uint32_t level);
  node_index push_maj(const std::array<signal, 3>& sorted_fanin);
  std::size_t probe(const std::array<signal, 3>& sorted_fanin);
  void rebuild_strash();

  std::vector<node> nodes_;
  std::vector<std::uint32_t> levels_;  ///< ASAP level per node
  std::uint32_t depth_{0};
  std::vector<node_index> pis_;
  std::vector<std::string> pi_names_;
  std::vector<output> pos_;
  /// Structural hash of the majority nodes: open addressing with linear
  /// probing over node indices, keyed by each node's own sorted fan-in
  /// array. 0 (the constant node, never a majority) marks a free slot. The
  /// capacity is a power of two and at least twice the majority count.
  /// It holds `num_hashed_` gates; `append_maj` skips it, and the next
  /// probe rebuilds it when that falls behind `num_majorities_`.
  std::vector<node_index> strash_;
  std::size_t num_hashed_{0};
  std::size_t num_majorities_{0};
  std::size_t num_buffers_{0};
  std::size_t num_fanouts_{0};
};

}  // namespace wavemig
