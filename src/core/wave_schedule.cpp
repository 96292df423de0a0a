#include "wavemig/wave_schedule.hpp"

#include <algorithm>
#include <span>

#include "wavemig/levels.hpp"

namespace wavemig {

namespace {

constexpr std::size_t max_reported_issues = 8;

void report(wave_readiness& r, std::string message) {
  if (r.issues.size() < max_reported_issues) {
    r.issues.push_back(std::move(message));
  }
}

/// The check under the clock `level` (per node index) of depth `depth`.
wave_readiness check_levels(const mig_network& net, std::span<const std::uint32_t> level,
                            std::uint32_t depth, unsigned tolerance) {
  wave_readiness result;
  result.depth = depth;
  result.outputs_aligned = true;

  net.foreach_node([&](node_index n) {
    for (const signal f : net.fanins(n)) {
      if (net.is_constant(f.index())) {
        continue;
      }
      const std::uint32_t producer = level[f.index()];
      const std::uint32_t consumer = level[n];
      // The span is only meaningful on forward edges; a backward or
      // level-equal edge is reported as such instead of as a wrapped-around
      // unsigned difference.
      if (consumer <= producer) {
        ++result.violating_edges;
        report(result, "edge " + std::to_string(f.index()) + " (level " +
                           std::to_string(producer) + ") -> " + std::to_string(n) +
                           " (level " + std::to_string(consumer) + ") does not advance");
      } else if (consumer - producer > tolerance + 1) {
        ++result.violating_edges;
        report(result, "edge " + std::to_string(f.index()) + " (level " +
                           std::to_string(producer) + ") -> " + std::to_string(n) +
                           " (level " + std::to_string(consumer) + ") spans " +
                           std::to_string(consumer - producer) + " levels");
      }
    }
  });

  std::uint32_t po_min = UINT32_MAX;
  std::uint32_t po_max = 0;
  for (const auto& po : net.pos()) {
    if (net.is_constant(po.driver.index())) {
      continue;
    }
    const std::uint32_t lvl = level[po.driver.index()];
    po_min = std::min(po_min, lvl);
    po_max = std::max(po_max, lvl);
  }
  if (po_min != UINT32_MAX && po_max - po_min > tolerance) {
    result.outputs_aligned = false;
    report(result, "outputs span levels " + std::to_string(po_min) + ".." +
                       std::to_string(po_max) + " (tolerance " + std::to_string(tolerance) + ")");
  }

  result.ready = result.violating_edges == 0 && result.outputs_aligned;
  return result;
}

}  // namespace

wave_readiness check_wave_readiness(const mig_network& net, const level_map& schedule,
                                    unsigned tolerance) {
  return check_levels(net, schedule.level, schedule.depth, tolerance);
}

wave_readiness check_wave_readiness(const mig_network& net) {
  return check_levels(net, net.levels(), net.depth(), 0);
}

}  // namespace wavemig
