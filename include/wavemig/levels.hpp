#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "wavemig/mig.hpp"

namespace wavemig {

/// Longest-path levels of a network (the paper's base-distance maxima):
/// PIs sit at level 0 and every component (majority gate, buffer, fan-out
/// gate) contributes one level. Constant fan-ins carry no data wave and are
/// ignored (§2.1 of DESIGN.md); a component whose non-constant fan-ins are
/// all PIs sits at level 1.
struct level_map {
  std::vector<std::uint32_t> level;  ///< per node index
  std::uint32_t depth{0};            ///< max level over all PO drivers

  [[nodiscard]] std::uint32_t operator[](node_index n) const { return level[n]; }
};

/// The levels the network recorded as its nodes were appended (see
/// mig_network): a copy of `net.levels()` and `net.depth()`. The network is
/// append-only, so these are final; nothing walks the fan-ins here.
level_map compute_levels(const mig_network& net);

/// Fan-out structure of a network. For each driver node, lists every
/// consumer fan-in slot and every primary output it feeds. A slot is a
/// physical connection: a node consuming the same driver through several
/// fan-in positions occupies several slots.
///
/// The lists are stored flat (compressed sparse rows): driver `n`'s edges
/// are `edges.flat[edges.offset[n] .. edges.offset[n + 1])`. Within one
/// driver the order is fixed: gate consumers by ascending node index, then
/// fan-in slot, followed by the primary outputs by ascending position.
/// Buffer insertion and fan-out restriction build their trees in this
/// order, so it determines their output netlists.
///
/// `edges[n]` is a view into the map, valid only while the map lives:
/// keep the map in a variable first, and never range over
/// `compute_fanouts(net).edges[n]` (the temporary dies before the loop).
struct fanout_map {
  static constexpr node_index po_consumer = std::numeric_limits<node_index>::max();

  struct edge {
    node_index consumer;  ///< consuming node, or `po_consumer` for an output
    std::uint32_t slot;   ///< fan-in position, or PO position for outputs
  };

  struct edge_rows {
    std::vector<std::uint32_t> offset;  ///< num_nodes + 1 row starts into `flat`
    std::vector<edge> flat;             ///< every edge, grouped by driver

    /// Edges of driver `n`.
    [[nodiscard]] std::span<const edge> operator[](node_index n) const {
      return {flat.data() + offset[n], flat.data() + offset[n + 1]};
    }
  };

  edge_rows edges;  ///< indexed by driver node

  /// Number of physical consumer connections of `n` (gate slots + POs).
  [[nodiscard]] std::size_t degree(node_index n) const {
    return edges.offset[n + 1] - edges.offset[n];
  }
};

/// Computes the fan-out map. Constant drivers are given empty edge lists:
/// constants are gate-internal biases, not routed signals.
fanout_map compute_fanouts(const mig_network& net);

/// Maximum fan-out degree over all non-constant nodes.
std::size_t max_fanout_degree(const mig_network& net);

/// Basic structural statistics used throughout benches and reports.
struct network_stats {
  std::size_t pis{0};
  std::size_t pos{0};
  std::size_t majorities{0};
  std::size_t buffers{0};
  std::size_t fanout_gates{0};
  std::size_t components{0};  ///< majorities + buffers + fanout gates
  std::uint32_t depth{0};
  std::size_t max_fanout{0};
};

network_stats compute_stats(const mig_network& net);

}  // namespace wavemig
