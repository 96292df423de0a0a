#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "wavemig/mig.hpp"
#include "wavemig/scheduling.hpp"

namespace wavemig {

/// How balancing buffers are organized per driver (§III of the paper,
/// DESIGN.md §2.2).
enum class buffer_strategy {
  /// Private buffer chain per edge — no sharing. Strawman baseline used by
  /// the ablation bench; inserts the most buffers.
  naive,
  /// The paper's Algorithm 1: one shared buffer chain per driver; fan-outs
  /// tap the chain at their required depth (the cumulative `lastBD` greedy).
  chain,
  /// Bottom-up merged buffer trees that additionally respect a fan-out
  /// capacity on every vertex. With unlimited capacity this produces exactly
  /// the chain solution; with capacity k it is the strategy composed with
  /// fan-out restriction.
  tree,
};

struct buffer_insertion_options {
  buffer_strategy strategy{buffer_strategy::chain};
  /// Fan-out capacity honored by the `tree` strategy (taps + chain
  /// continuation per vertex). Ignored by `naive`/`chain`.
  std::optional<unsigned> fanout_limit{};
  /// Level assignment driving the per-edge buffer demand. The paper uses
  /// ASAP levels; ALAP/mid-slack redistribute slack and can shrink the
  /// buffer bill at identical depth (scheduling ablation bench).
  schedule_policy schedule{schedule_policy::asap};
  /// Allowed residual gap per edge. The paper balances exactly (0). Under a
  /// P-phase clock a non-volatile cell holds its value for P ticks, so an
  /// edge spanning up to `tolerance + 1` scheduled levels still delivers the
  /// same wave as long as tolerance <= P - 2 (see DESIGN.md §2.2 and the
  /// ablation_tolerance bench). With tolerance > 0 the result is coherent
  /// only under the *returned* schedule — components must be clocked by
  /// `buffer_insertion_result::schedule`, not by recomputed ASAP levels.
  unsigned tolerance{0};
};

struct buffer_insertion_result {
  mig_network net;
  std::size_t buffers_added{0};
  std::uint32_t depth_before{0};
  std::uint32_t depth_after{0};
  /// Scheduled level (clock-phase anchor) of every node in `net`. Equals the
  /// ASAP levels when tolerance == 0.
  level_map schedule;
};

/// Balances every path of the netlist so that all input→output paths have
/// equal length (the wave-pipelining requirement of §II-C). After the pass,
/// every non-constant edge spans exactly one level and all primary outputs
/// sit at the same depth; `check_wave_readiness` verifies both. The pass
/// never changes the circuit function — buffers are identity components.
///
/// Throws std::invalid_argument if `tree` with a finite `fanout_limit`
/// encounters a driver whose direct consumers already exceed the capacity
/// (run fan-out restriction first).
buffer_insertion_result insert_buffers(const mig_network& net,
                                       const buffer_insertion_options& options = {});

/// The clock of the netlist `insert_buffers(net, options)` builds, read off
/// `net` itself before any buffer exists. Buffers are one-input delay
/// elements: they move every edge's levels but never a majority gate, so
/// this clock plus the gates of `net` is everything a packed program of the
/// balanced netlist holds (see compiled_netlist's balance_plan
/// constructor).
struct balance_plan {
  /// Scheduled level of every node of `net` under `options.schedule`; each
  /// keeps it in the balanced netlist, whose buffers fill the levels between.
  level_map schedule;
  /// Per PO: scheduled level of its balanced driver (0 when constant).
  std::vector<std::uint32_t> po_levels;
  /// `insert_buffers(net, options).schedule.depth`.
  std::uint32_t depth{0};
  /// Bounds of level(consumer) - level(producer) over the balanced
  /// netlist's data edges under its schedule; 1 and 1 when it has none.
  std::uint32_t min_edge_span{1};
  std::uint32_t max_edge_span{1};
};

/// Plans `insert_buffers(net, options)` without building it. The same
/// per-edge rules decide both — schedule policy, tolerance and output
/// padding — and the same exceptions refuse: std::invalid_argument for a
/// fan-out limit below 2, and for a driver whose fan-out exceeds the
/// buffer-tree capacity.
balance_plan plan_balance(const mig_network& net, const buffer_insertion_options& options = {});

}  // namespace wavemig
