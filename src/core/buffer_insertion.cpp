#include "wavemig/buffer_insertion.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "tap_table.hpp"
#include "wavemig/levels.hpp"

namespace wavemig {

namespace {

/// The per-edge arithmetic of balancing, shared by `insert_buffers`, which
/// builds what it decides, and `plan_balance`, which only reads the clock
/// off it: the schedule policy, the tolerance, output padding and the
/// buffer-tree capacity.
class balance_rules {
public:
  balance_rules(const mig_network& net, const buffer_insertion_options& options)
      : options_{checked(options)}, levels_{compute_schedule(net, options.schedule)} {}

  [[nodiscard]] const level_map& levels() const { return levels_; }
  [[nodiscard]] level_map take_levels() { return std::move(levels_); }

  /// Required number of buffers on one consumer edge of driver `n`:
  /// the scheduled gap, reduced by the coherence tolerance (cells hold their
  /// value long enough to bridge `tolerance` extra levels).
  [[nodiscard]] std::uint32_t gap_of(node_index n, const fanout_map::edge& e) const {
    std::uint32_t gap;
    if (e.consumer == fanout_map::po_consumer) {
      gap = levels_.depth - levels_[n];  // Algorithm 1's second loop: pad to the depth
    } else {
      gap = levels_[e.consumer] - levels_[n] - 1;
    }
    return gap > options_.tolerance ? gap - options_.tolerance : 0;
  }

  /// Ports of one buffer-tree vertex: the fan-out limit, or unlimited.
  [[nodiscard]] std::uint64_t capacity() const {
    return options_.fanout_limit ? *options_.fanout_limit
                                 : std::numeric_limits<std::uint64_t>::max();
  }

private:
  static const buffer_insertion_options& checked(const buffer_insertion_options& options) {
    if (options.fanout_limit && *options.fanout_limit < 2) {
      throw std::invalid_argument{"insert_buffers: fanout limit must be at least 2"};
    }
    return options;
  }

  const buffer_insertion_options& options_;
  level_map levels_;
};

/// One driver's buffer tree, sized before any buffer exists: its edges
/// grouped by gap and the vertex count at every chain position. The
/// vectors are reused across drivers.
struct tree_shape {
  std::vector<std::uint32_t> gaps;       // gap per edge of the driver
  std::vector<std::uint32_t> tap_start;  // row starts of by_gap per gap
  std::vector<std::uint32_t> by_gap;     // edge positions sorted by gap
  std::vector<std::uint64_t> vertices;   // tree vertices per position
  std::uint32_t max_gap{0};

  /// Edges attaching after `p` buffers (valid once `size` ran).
  [[nodiscard]] std::uint64_t taps_at(std::uint32_t p) const {
    return tap_start[p + 1] - tap_start[p];
  }

  /// Sizes the tree of driver `n`. Throws std::invalid_argument when the
  /// driver's own ports cannot carry its unbuffered taps plus the first
  /// tree level.
  void size(const balance_rules& rules, node_index n, std::span<const fanout_map::edge> edges) {
    gaps.clear();
    max_gap = 0;
    for (const auto& e : edges) {
      gaps.push_back(rules.gap_of(n, e));
      max_gap = std::max(max_gap, gaps.back());
    }

    // Stable counting sort of the edges by gap: by_gap[tap_start[p] ..
    // tap_start[p + 1]) are the edges attaching after p buffers, in edge
    // order. Counts go to tap_start[p + 2]; placing advances each row's
    // start at tap_start[p + 1] to its end, the next row's start.
    tap_start.assign(max_gap + 3, 0);
    for (const std::uint32_t gap : gaps) {
      ++tap_start[gap + 2];
    }
    std::partial_sum(tap_start.begin(), tap_start.end(), tap_start.begin());
    by_gap.resize(edges.size());
    for (std::uint32_t i = 0; i < edges.size(); ++i) {
      by_gap[tap_start[gaps[i] + 1]++] = i;
    }

    // Bottom-up vertex counts: vertices at position p drive the taps at p
    // plus the carrier buffers at p+1.
    const std::uint64_t cap = rules.capacity();
    vertices.assign(max_gap + 2, 0);
    for (std::uint32_t p = max_gap; p >= 1; --p) {
      const std::uint64_t demand = taps_at(p) + vertices[p + 1];
      // Overflow-safe ceiling division (cap may be the unlimited sentinel).
      vertices[p] = demand == 0 ? 0 : 1 + (demand - 1) / cap;
    }
    if (taps_at(0) + vertices[1] > cap) {
      throw std::invalid_argument{
          "insert_buffers: driver fan-out exceeds the buffer-tree capacity; "
          "run fanout restriction first"};
    }
  }
};

class balance_builder {
public:
  balance_builder(const mig_network& old_net, const buffer_insertion_options& options)
      : old_{old_net},
        options_{options},
        rules_{old_net, options},
        levels_{rules_.levels()},
        fanouts_{compute_fanouts(old_net)},
        taps_{old_net} {}

  buffer_insertion_result run() {
    buffer_insertion_result result;
    result.depth_before = levels_.depth;

    const std::size_t num_nodes = old_.num_nodes() + planned_buffers();
    new_net_.reserve(num_nodes);
    schedule_.reserve(num_nodes);
    schedule_.push_back(0);  // the constant node

    std::vector<signal> map(old_.num_nodes(), constant0);
    old_.foreach_node([&](node_index n) {
      switch (old_.kind(n)) {
        case node_kind::constant:
          return;
        case node_kind::primary_input:
          map[n] = new_net_.create_pi(old_.pi_name(old_.pi_position(n)));
          break;
        case node_kind::majority: {
          const auto fis = old_.fanins(n);
          map[n] = new_net_.append_maj(tap_for(n, 0, fis[0]), tap_for(n, 1, fis[1]),
                                       tap_for(n, 2, fis[2]));
          break;
        }
        case node_kind::buffer:
          map[n] = new_net_.create_buffer(tap_for(n, 0, old_.fanins(n)[0]));
          break;
        case node_kind::fanout:
          map[n] = new_net_.create_fanout(tap_for(n, 0, old_.fanins(n)[0]));
          break;
      }
      record_schedule(map[n], levels_[n]);
      plan_driver(n, map[n]);
    });

    for (std::uint32_t position = 0; position < old_.num_pos(); ++position) {
      const signal driver = old_.po_signal(position);
      signal s;
      if (old_.is_constant(driver.index())) {
        s = driver;  // constant outputs carry no wave; no padding needed
      } else {
        s = taps_.at(fanout_map::po_consumer, position).complement_if(driver.is_complemented());
      }
      new_net_.create_po(s, old_.po_name(position));
    }

    result.buffers_added = new_net_.num_buffers() - old_.num_buffers();
    result.depth_after = new_net_.depth();

    result.schedule.level = std::move(schedule_);
    result.schedule.depth = 0;
    for (const auto& po : new_net_.pos()) {
      if (!new_net_.is_constant(po.driver.index())) {
        result.schedule.depth =
            std::max(result.schedule.depth, result.schedule.level[po.driver.index()]);
      }
    }
    result.net = std::move(new_net_);
    return result;
  }

private:
  /// Records the scheduled level of the node just created. Every rebuilt
  /// node is new (gates are appended, buffers never hashed), so nodes
  /// arrive in index order.
  void record_schedule([[maybe_unused]] signal s, std::uint32_t level) {
    assert(s.index() == schedule_.size());
    schedule_.push_back(level);
  }

  /// A tree strategy driver with more edges than a vertex has ports. Within
  /// capacity every tree position holds one vertex, which drives the next
  /// and the taps at its position: the chain, created in the same order.
  [[nodiscard]] bool over_capacity(std::span<const fanout_map::edge> edges) const {
    return options_.strategy == buffer_strategy::tree && edges.size() > rules_.capacity();
  }

  /// Buffers the pass adds, counted before any exists so the network and
  /// the schedule allocate once: per driver, every edge's gap (naive), the
  /// longest gap (the chain), or the vertices of a tree over capacity,
  /// whose sizing also refuses up front what the build would refuse.
  [[nodiscard]] std::size_t planned_buffers() {
    const bool naive = options_.strategy == buffer_strategy::naive;
    std::size_t total = 0;
    old_.foreach_node([&](node_index n) {
      const auto edges = fanouts_.edges[n];
      if (over_capacity(edges)) {
        shape_.size(rules_, n, edges);
        total += std::accumulate(shape_.vertices.begin(), shape_.vertices.end(), std::size_t{0});
        return;
      }
      std::uint32_t longest = 0;
      for (const auto& e : edges) {
        const std::uint32_t gap = rules_.gap_of(n, e);
        longest = std::max(longest, gap);
        total += naive ? gap : 0;
      }
      total += naive ? 0 : longest;
    });
    return total;
  }

  /// Plans the buffer structure hanging off driver `n` (whose rebuilt signal
  /// is `s`) and records the tap signal of every consumer edge.
  void plan_driver(node_index n, signal s) {
    const auto edges = fanouts_.edges[n];
    if (edges.empty()) {
      return;
    }
    switch (options_.strategy) {
      case buffer_strategy::naive:
        for (const auto& e : edges) {
          signal tap = s;
          for (std::uint32_t i = 0; i < rules_.gap_of(n, e); ++i) {
            tap = new_net_.create_buffer(tap);
            record_schedule(tap, levels_[n] + i + 1);
          }
          taps_.set(e, tap);
        }
        break;
      case buffer_strategy::tree:
        if (over_capacity(edges)) {
          plan_tree(n, s, edges);
          break;
        }
        [[fallthrough]];  // within capacity the tree is the chain
      case buffer_strategy::chain:
        // Algorithm 1: one shared chain; fan-outs sorted by required depth
        // tap it at their position (extending lazily gives the identical
        // structure for any processing order).
        chain_.assign(1, s);
        for (const auto& e : edges) {
          const std::uint32_t gap = rules_.gap_of(n, e);
          while (chain_.size() <= gap) {
            chain_.push_back(new_net_.create_buffer(chain_.back()));
            record_schedule(chain_.back(),
                            levels_[n] + static_cast<std::uint32_t>(chain_.size()) - 1);
          }
          taps_.set(e, chain_[gap]);
        }
        break;
    }
  }

  void plan_tree(node_index n, signal s, std::span<const fanout_map::edge> edges) {
    shape_.size(rules_, n, edges);
    const std::uint64_t cap = rules_.capacity();

    // Top-down materialization: the vertices at one position hand out their
    // `cap` ports in order, first to the carriers, then to the taps.
    current_.assign(1, s);
    for (std::uint32_t p = 0; p <= shape_.max_gap; ++p) {
      std::uint64_t taken = 0;
      const auto take_parent = [&] { return current_[taken++ / cap]; };
      next_.clear();
      if (p < shape_.max_gap) {
        for (std::uint64_t i = 0; i < shape_.vertices[p + 1]; ++i) {
          next_.push_back(new_net_.create_buffer(take_parent()));
          record_schedule(next_.back(), levels_[n] + p + 1);
        }
      }
      for (std::uint32_t k = shape_.tap_start[p]; k < shape_.tap_start[p + 1]; ++k) {
        taps_.set(edges[shape_.by_gap[k]], take_parent());
      }
      std::swap(current_, next_);
    }
  }

  /// Fan-in signal of the rebuilt consumer: the planned tap with the original
  /// edge complement, or the constant itself.
  signal tap_for(node_index consumer, std::uint32_t slot, signal original) {
    if (old_.is_constant(original.index())) {
      return original;
    }
    return taps_.at(consumer, slot).complement_if(original.is_complemented());
  }

  const mig_network& old_;
  const buffer_insertion_options& options_;
  balance_rules rules_;
  const level_map& levels_;
  fanout_map fanouts_;
  mig_network new_net_;
  detail::tap_table taps_;
  std::vector<std::uint32_t> schedule_;  // scheduled level per new node, in index order
  // Per-driver scratch, reused across drivers.
  std::vector<signal> chain_;
  tree_shape shape_;
  std::vector<signal> current_;
  std::vector<signal> next_;
};

}  // namespace

buffer_insertion_result insert_buffers(const mig_network& net,
                                       const buffer_insertion_options& options) {
  balance_builder builder{net, options};
  return builder.run();
}

balance_plan plan_balance(const mig_network& net, const buffer_insertion_options& options) {
  balance_rules rules{net, options};
  const level_map& levels = rules.levels();

  // The refusal insert_buffers makes driver by driver while building, made
  // here up front: it fires for the same networks with the same message.
  // A driver within capacity never trips it.
  if (options.strategy == buffer_strategy::tree && options.fanout_limit) {
    const fanout_map fanouts = compute_fanouts(net);
    tree_shape shape;
    net.foreach_node([&](node_index n) {
      if (fanouts.degree(n) > rules.capacity()) {
        shape.size(rules, n, fanouts.edges[n]);
      }
    });
  }

  // A consumer edge keeps the part of its gap the tolerance bridges: its
  // tap sits gap_of buffers above the driver, so the edge spans
  // level(consumer) - level(driver) - gap_of levels. Every buffer link
  // spans exactly one.
  balance_plan plan;
  std::uint32_t min_span = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t max_span = 0;
  bool buffered = false;
  net.foreach_node([&](node_index c) {
    const auto fis = net.fanins(c);
    for (std::uint32_t slot = 0; slot < fis.size(); ++slot) {
      const node_index n = fis[slot].index();
      if (net.is_constant(n)) {
        continue;  // constant fan-ins carry no data wave
      }
      const std::uint32_t gap = rules.gap_of(n, {c, slot});
      buffered = buffered || gap != 0;
      const std::uint32_t span = levels[c] - levels[n] - gap;
      min_span = std::min(min_span, span);
      max_span = std::max(max_span, span);
    }
  });
  plan.po_levels.assign(net.num_pos(), 0);
  for (std::uint32_t p = 0; p < net.num_pos(); ++p) {
    const node_index n = net.po_signal(p).index();
    if (net.is_constant(n)) {
      continue;  // constant outputs carry no wave; no padding needed
    }
    const std::uint32_t gap = rules.gap_of(n, {fanout_map::po_consumer, p});
    buffered = buffered || gap != 0;
    plan.po_levels[p] = levels[n] + gap;
    plan.depth = std::max(plan.depth, plan.po_levels[p]);
  }
  if (buffered) {
    min_span = std::min(min_span, 1u);
    max_span = std::max(max_span, 1u);
  }
  if (min_span <= max_span) {  // otherwise no data edge: the 1..1 default
    plan.min_edge_span = min_span;
    plan.max_edge_span = max_span;
  }
  plan.schedule = rules.take_levels();
  return plan;
}

}  // namespace wavemig
