#include "wavemig/pipeline.hpp"

#include <utility>

#include "wavemig/wave_schedule.hpp"

namespace wavemig {

const mig_network& prepare_for_balancing(const mig_network& net,
                                         const pipeline_options& options,
                                         pipeline_result& result) {
  const std::optional<unsigned> limit = options.fanout_limit.resolve(options.scenario);

  // Each pass rebuilds the network, so the input is only copied when no
  // pass runs: `current` points at the input until a pass owns a result.
  const mig_network* current = &net;

  if (limit) {
    fanout_restriction_options fo;
    fo.limit = *limit;
    fo.fill_residual = options.fill_residual;
    auto restricted = restrict_fanout(*current, fo);
    result.fogs_added = restricted.fogs_added;
    result.restriction_buffers_added = restricted.buffers_added;
    result.delayed_edges = restricted.delayed_edges;
    result.net = std::move(restricted.net);
    current = &result.net;
  }

  // Loss budget after restriction (repeaters are per-edge, so the limit is
  // preserved) and before balancing (balance buffers regenerate, so
  // balancing never re-violates the budget).
  if (const std::optional<unsigned> budget = options.scenario.max_unregenerated_levels()) {
    loss_budget_options lb;
    lb.max_unregenerated_levels = budget;
    auto regenerated = enforce_loss_budget(*current, lb);
    result.repeater_buffers_added = regenerated.repeaters_added;
    result.max_attenuation_run = regenerated.max_run_before;
    result.net = std::move(regenerated.net);
    current = &result.net;
  }
  return *current;
}

buffer_insertion_options balance_options(const pipeline_options& options) {
  buffer_insertion_options bi;
  bi.strategy = options.strategy;
  bi.schedule = options.schedule;
  const std::optional<unsigned> limit = options.fanout_limit.resolve(options.scenario);
  if (limit && options.respect_limit_in_buffers) {
    bi.strategy = buffer_strategy::tree;
    bi.fanout_limit = limit;
  }
  return bi;
}

pipeline_result wave_pipeline(const mig_network& net, const pipeline_options& options) {
  pipeline_result result;
  result.original_stats = compute_stats(net);
  result.depth_before = result.original_stats.depth;

  const mig_network* current = &prepare_for_balancing(net, options, result);
  if (options.insert_buffers) {
    auto balanced = insert_buffers(*current, balance_options(options));
    result.balance_buffers_added = balanced.buffers_added;
    // Readiness under the clock the netlist was balanced for: alap and
    // mid_slack lift a constant-fed component above its ASAP level.
    result.wave_ready = check_wave_readiness(balanced.net, balanced.schedule, 0).ready;
    result.net = std::move(balanced.net);
    current = &result.net;
  } else {
    result.wave_ready = check_wave_readiness(*current).ready;
  }

  result.final_stats = compute_stats(*current);
  result.depth_after = result.final_stats.depth;
  if (current == &net) {
    result.net = net;
  }
  return result;
}

}  // namespace wavemig
