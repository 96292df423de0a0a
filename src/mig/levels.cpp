#include "wavemig/levels.hpp"

#include <algorithm>

namespace wavemig {

level_map compute_levels(const mig_network& net) {
  const auto levels = net.levels();
  return level_map{{levels.begin(), levels.end()}, net.depth()};
}

namespace {

/// Visits every routed consumer connection in fan-out map order: gate
/// fan-in slots by node index and slot, then primary outputs by position.
/// Constant drivers are skipped.
template <typename Fn>
void foreach_routed_edge(const mig_network& net, Fn&& fn) {
  net.foreach_node([&](node_index n) {
    const auto fis = net.fanins(n);
    for (std::uint32_t slot = 0; slot < fis.size(); ++slot) {
      const node_index driver = fis[slot].index();
      if (!net.is_constant(driver)) {
        fn(driver, fanout_map::edge{n, slot});
      }
    }
  });
  for (std::uint32_t position = 0; position < net.num_pos(); ++position) {
    const node_index driver = net.po_signal(position).index();
    if (!net.is_constant(driver)) {
      fn(driver, fanout_map::edge{fanout_map::po_consumer, position});
    }
  }
}

}  // namespace

fanout_map compute_fanouts(const mig_network& net) {
  // Two passes over the same edge sequence: count each driver's degree into
  // offset[driver + 2], so the prefix sum leaves driver d's row start at
  // offset[d + 1]; filling then advances offset[d + 1] to the row's end,
  // which is driver d + 1's start, and the spare last entry is dropped.
  fanout_map result;
  auto& offset = result.edges.offset;
  offset.assign(net.num_nodes() + 2, 0);
  foreach_routed_edge(net, [&](node_index driver, fanout_map::edge) { ++offset[driver + 2]; });
  for (std::size_t i = 2; i < offset.size(); ++i) {
    offset[i] += offset[i - 1];
  }
  result.edges.flat.resize(offset.back());
  foreach_routed_edge(net, [&](node_index driver, fanout_map::edge e) {
    result.edges.flat[offset[driver + 1]++] = e;
  });
  offset.pop_back();
  return result;
}

std::size_t max_fanout_degree(const mig_network& net) {
  std::vector<std::uint32_t> degree(net.num_nodes(), 0);
  foreach_routed_edge(net, [&](node_index driver, fanout_map::edge) { ++degree[driver]; });
  return degree.empty() ? 0 : *std::max_element(degree.begin(), degree.end());
}

network_stats compute_stats(const mig_network& net) {
  network_stats s;
  s.pis = net.num_pis();
  s.pos = net.num_pos();
  s.majorities = net.num_majorities();
  s.buffers = net.num_buffers();
  s.fanout_gates = net.num_fanout_gates();
  s.components = net.num_components();
  s.depth = net.depth();
  s.max_fanout = max_fanout_degree(net);
  return s;
}

}  // namespace wavemig
