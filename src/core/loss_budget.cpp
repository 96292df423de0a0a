#include "wavemig/loss_budget.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace wavemig {

namespace {

/// Longest unregenerated run of the network: per node, the consecutive
/// majority/FOG levels since the last PI or buffer (both regenerate).
std::uint32_t max_unregenerated_run(const mig_network& net) {
  std::vector<std::uint32_t> run(net.num_nodes(), 0);
  std::uint32_t worst = 0;
  net.foreach_node([&](node_index n) {
    if (!net.is_majority(n) && !net.is_fanout_gate(n)) {
      return;  // constants, PIs and buffers regenerate: run stays 0
    }
    std::uint32_t incoming = 0;
    for (const signal f : net.fanins(n)) {
      if (!net.is_constant(f.index())) {
        incoming = std::max(incoming, run[f.index()]);
      }
    }
    run[n] = incoming + 1;
    worst = std::max(worst, run[n]);
  });
  return worst;
}

}  // namespace

loss_budget_result enforce_loss_budget(const mig_network& old,
                                       const loss_budget_options& options) {
  loss_budget_result result;
  result.depth_before = old.depth();
  result.max_run_before = max_unregenerated_run(old);

  if (!options.max_unregenerated_levels) {
    result.max_run_after = result.max_run_before;
    result.depth_after = result.depth_before;
    result.net = old;
    return result;
  }
  const unsigned budget = *options.max_unregenerated_levels;
  if (budget == 0) {
    throw std::invalid_argument{
        "enforce_loss_budget: max_unregenerated_levels must be at least 1"};
  }

  // A repeater is spliced into a majority/FOG fan-in edge when one more
  // level through the consumer would exceed the budget. Per edge, never
  // shared — the driver's fan-out degree is preserved, so the pass
  // composes with restrict_fanout without re-violating the limit. The
  // decisions are made before anything is built: `run[n]` is the run the
  // rebuilt node of old node n will have (repeaters, PIs and buffers
  // regenerate to 0), which sizes the rebuilt network once.
  std::vector<std::uint32_t> run(old.num_nodes(), 0);
  const auto needs_repeater = [&](signal f) {
    return !old.is_constant(f.index()) && run[f.index()] + 1 > budget;
  };
  old.foreach_node([&](node_index n) {
    if (!old.is_majority(n) && !old.is_fanout_gate(n)) {
      return;
    }
    std::uint32_t incoming = 0;
    for (const signal f : old.fanins(n)) {
      if (needs_repeater(f)) {
        ++result.repeaters_added;
      } else if (!old.is_constant(f.index())) {
        incoming = std::max(incoming, run[f.index()]);
      }
    }
    run[n] = incoming + 1;
    result.max_run_after = std::max(result.max_run_after, run[n]);
  });

  mig_network net;
  net.reserve(old.num_nodes() + result.repeaters_added);
  std::vector<signal> map(old.num_nodes(), constant0);
  const auto mapped = [&](signal f) -> signal {
    if (old.is_constant(f.index())) {
      return f;
    }
    return map[f.index()].complement_if(f.is_complemented());
  };
  const auto regenerated = [&](signal f) -> signal {
    return needs_repeater(f) ? net.create_buffer(mapped(f)) : mapped(f);
  };
  old.foreach_node([&](node_index n) {
    const auto fis = old.fanins(n);
    switch (old.kind(n)) {
      case node_kind::constant:
        return;
      case node_kind::primary_input:
        map[n] = net.create_pi(old.pi_name(old.pi_position(n)));
        return;
      case node_kind::majority: {
        const signal a = regenerated(fis[0]);
        const signal b = regenerated(fis[1]);
        const signal c = regenerated(fis[2]);
        map[n] = net.append_maj(a, b, c);
        return;
      }
      case node_kind::buffer:
        map[n] = net.create_buffer(mapped(fis[0]));
        return;
      case node_kind::fanout:
        map[n] = net.create_fanout(regenerated(fis[0]));
        return;
    }
  });

  for (std::uint32_t p = 0; p < old.num_pos(); ++p) {
    const signal driver = old.po_signal(p);
    net.create_po(mapped(driver), old.po_name(p));
  }

  result.depth_after = net.depth();
  result.net = std::move(net);
  return result;
}

}  // namespace wavemig
