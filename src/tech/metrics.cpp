#include "wavemig/metrics.hpp"

#include <algorithm>

#include "wavemig/inverter_optimization.hpp"
#include "wavemig/levels.hpp"

namespace wavemig {

component_inventory count_components(const mig_network& net, bool optimize_polarity) {
  component_inventory inv;
  inv.majorities = net.num_majorities();
  inv.buffers = net.num_buffers();
  inv.fanout_gates = net.num_fanout_gates();
  inv.outputs = net.num_pos();
  inv.inverters =
      optimize_polarity ? optimize_inverters(net).inverter_count : count_inverters(net);
  return inv;
}

circuit_metrics compute_metrics(const mig_network& net, const technology& tech,
                                bool wave_pipelined, unsigned phases) {
  circuit_metrics m;
  m.components = count_components(net);
  m.depth = net.depth();

  const auto maj = static_cast<double>(m.components.majorities);
  const auto buf = static_cast<double>(m.components.buffers);
  const auto fog = static_cast<double>(m.components.fanout_gates);
  const auto inv = static_cast<double>(m.components.inverters);

  m.area_um2 = tech.cell_area_um2 *
               (maj * tech.maj.area + buf * tech.buf.area + fog * tech.fog.area +
                inv * tech.inv.area);
  m.energy_per_op_fj =
      tech.cell_energy_fj * (maj * tech.maj.energy + buf * tech.buf.energy +
                             fog * tech.fog.energy + inv * tech.inv.energy) +
      tech.sense_amp_energy_fj * static_cast<double>(m.components.outputs);

  m.latency_ns = static_cast<double>(m.depth) * tech.phase_delay_ns;
  if (m.latency_ns <= 0.0) {
    m.latency_ns = tech.phase_delay_ns;  // degenerate single-level circuits
  }

  if (wave_pipelined) {
    m.throughput_mops = 1e3 / (static_cast<double>(phases) * tech.phase_delay_ns);
    // A depth-0 (PI-to-PO) network still carries one wave at a time —
    // consistent with the latency_ns degenerate-case fallback above.
    m.waves_in_flight = std::max(1u, (m.depth + phases - 1) / phases);
  } else {
    m.throughput_mops = 1e3 / m.latency_ns;
    m.waves_in_flight = 1;
  }

  // fJ / ns = uW. The paper's power model charges one operation over the
  // circuit latency; the steady-state model charges every wave in flight.
  m.power_uw = m.energy_per_op_fj / m.latency_ns;
  m.power_steady_state_uw = m.energy_per_op_fj * m.throughput_mops * 1e-3;
  return m;
}

scenario_metrics compute_scenario_metrics(const mig_network& net, const tech_scenario& scenario,
                                          bool wave_pipelined, std::size_t repeaters,
                                          unsigned phases) {
  scenario_metrics sm;
  sm.repeaters = repeaters;
  sm.fdm_lanes = scenario.fdm_lanes;
  sm.metrics = compute_metrics(net, scenario.tech, wave_pipelined, phases);

  const auto reps = static_cast<double>(repeaters);
  sm.repeater_area_delta_um2 =
      scenario.tech.cell_area_um2 * reps * (scenario.repeater.area - scenario.tech.buf.area);
  sm.repeater_energy_delta_fj = scenario.tech.cell_energy_fj * reps *
                                (scenario.repeater.energy - scenario.tech.buf.energy);

  circuit_metrics& m = sm.metrics;
  m.area_um2 += sm.repeater_area_delta_um2;
  m.energy_per_op_fj += sm.repeater_energy_delta_fj;
  if (wave_pipelined && scenario.fdm_lanes > 1) {
    m.throughput_mops *= static_cast<double>(scenario.fdm_lanes);
    m.waves_in_flight *= scenario.fdm_lanes;
  }
  m.power_uw = m.energy_per_op_fj / m.latency_ns;
  m.power_steady_state_uw = m.energy_per_op_fj * m.throughput_mops * 1e-3;
  return sm;
}

pipeline_comparison compare_metrics(const mig_network& original, const mig_network& pipelined,
                                    const technology& tech, unsigned phases) {
  pipeline_comparison c;
  c.original = compute_metrics(original, tech, false, phases);
  c.pipelined = compute_metrics(pipelined, tech, true, phases);
  c.ta_gain = c.pipelined.throughput_per_area() / c.original.throughput_per_area();
  c.tp_gain = c.pipelined.throughput_per_power() / c.original.throughput_per_power();
  return c;
}

}  // namespace wavemig
