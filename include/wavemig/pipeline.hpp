#pragma once

#include <cstdint>
#include <optional>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/fanout_restriction.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/loss_budget.hpp"
#include "wavemig/mig.hpp"
#include "wavemig/tech_scenario.hpp"

namespace wavemig {

/// Tri-state fan-out limit: derive from the technology scenario (default),
/// an explicit value, or explicitly unlimited. Keeps the original
/// `std::optional<unsigned>`-style call sites working: assigning an unsigned
/// makes the setting explicit, `reset()` makes it explicitly unlimited, and
/// in boolean context the setting is true only when an explicit value is
/// held (`*setting` then reads it).
class fanout_setting {
public:
  /// Default: derive the limit from pipeline_options::scenario.
  constexpr fanout_setting() = default;
  /// Explicit limit, overriding the scenario.
  constexpr fanout_setting(unsigned limit) : state_{state::exact}, limit_{limit} {}
  /// Legacy interop with the optional-typed call sites: a value is an
  /// explicit limit, nullopt is explicitly unlimited (never "derive").
  constexpr fanout_setting(std::optional<unsigned> limit)
      : state_{limit ? state::exact : state::none}, limit_{limit.value_or(3)} {}

  constexpr fanout_setting& operator=(unsigned limit) {
    state_ = state::exact;
    limit_ = limit;
    return *this;
  }

  /// Explicitly unlimited: skip the restriction pass regardless of scenario.
  constexpr void reset() { state_ = state::none; }

  /// True only when an explicit limit is held (not for derive/unlimited).
  constexpr explicit operator bool() const { return state_ == state::exact; }
  /// The explicit limit; only valid when `operator bool()` is true.
  constexpr unsigned operator*() const { return limit_; }

  /// The effective limit against a scenario — the documented precedence:
  /// an explicit value wins, `reset()` means unlimited, otherwise the
  /// scenario's fan-out capability applies (which may itself be unlimited).
  [[nodiscard]] constexpr std::optional<unsigned> resolve(const tech_scenario& scenario) const {
    switch (state_) {
      case state::exact:
        return limit_;
      case state::none:
        return std::nullopt;
      case state::derive:
        break;
    }
    return scenario.fanout_limit;
  }

private:
  enum class state { derive, exact, none };
  state state_{state::derive};
  unsigned limit_{3};
};

/// Options of the complete wave-pipelining enablement flow: optional fan-out
/// restriction (§IV), scenario loss-budget repeater insertion, then
/// path-balancing buffer insertion (§III), matching the paper's "FOx + BUF"
/// composition order ("it has to be performed before the buffer insertion
/// algorithm"). The technology scenario parameterizes the flow: it supplies
/// the derived fan-out limit and the attenuation budget.
struct pipeline_options {
  /// Fan-out restriction limit. Precedence: an explicitly assigned value
  /// overrides everything; `fanout_limit.reset()` disables the restriction
  /// pass outright; the default derives the limit from
  /// `scenario.fanout_limit` (SWD: 3, matching the historical default).
  fanout_setting fanout_limit{};
  /// Stretch early FOG-tree taps with buffers (see fanout_restriction).
  bool fill_residual{true};
  /// Run the balancing pass. Disable to study fan-out restriction alone.
  bool insert_buffers{true};
  /// Buffer organization (paper: shared chains).
  buffer_strategy strategy{buffer_strategy::chain};
  /// When a fanout limit is in effect, balance with capacity-aware buffer
  /// trees so the final netlist respects the limit on every vertex,
  /// including chain taps. When false the paper-literal chains are used even
  /// after restriction.
  bool respect_limit_in_buffers{true};
  /// Level scheduling for the balancing pass (see scheduling.hpp).
  schedule_policy schedule{schedule_policy::asap};
  /// Technology scenario the flow targets. Supplies the derived fan-out
  /// limit and the attenuation/regeneration budget; the loss-budget pass
  /// runs whenever the scenario has one. The default (SWD) is lossless with
  /// fan-out 3 — bit-identical to the historical behavior.
  tech_scenario scenario{tech_scenario::swd()};
};

struct pipeline_result {
  mig_network net;
  network_stats original_stats;
  network_stats final_stats;
  std::size_t fogs_added{0};
  std::size_t restriction_buffers_added{0};
  /// Regenerating repeaters inserted by the loss-budget pass (0 for
  /// lossless scenarios). Counted in final_stats.buffers alongside the
  /// restriction and balance buffers.
  std::size_t repeater_buffers_added{0};
  std::size_t balance_buffers_added{0};
  std::size_t delayed_edges{0};
  /// Longest unregenerated run entering the loss-budget pass (0 when the
  /// pass did not run: the scenario is lossless).
  std::uint32_t max_attenuation_run{0};
  std::uint32_t depth_before{0};
  std::uint32_t depth_after{0};
  /// Whether `net` is wave-ready: under the balancer's schedule
  /// (`check_wave_readiness(b.net, b.schedule, 0)` for the result `b` of
  /// `insert_buffers`, so true whenever buffers were inserted, under every
  /// schedule policy), or under the netlist's ASAP levels when
  /// `insert_buffers` is off.
  bool wave_ready{false};
};

/// Runs the full enablement flow and gathers the statistics reported in the
/// paper's Figs. 5, 7, 8 and Table II.
pipeline_result wave_pipeline(const mig_network& net, const pipeline_options& options = {});

/// The first half of `wave_pipeline`: fan-out restriction, then the loss
/// budget, under `options`, with their counters (`fogs_added`,
/// `restriction_buffers_added`, `delayed_edges`, `repeater_buffers_added`,
/// `max_attenuation_run`) written to `result`. Returns the netlist the flow
/// balances next: `net` itself when neither pass runs, otherwise
/// `result.net`, which then holds it.
const mig_network& prepare_for_balancing(const mig_network& net,
                                         const pipeline_options& options,
                                         pipeline_result& result);

/// The options `wave_pipeline` balances with: `strategy` and `schedule`,
/// or capacity-aware trees under the effective fan-out limit when one is in
/// effect and `respect_limit_in_buffers` holds.
buffer_insertion_options balance_options(const pipeline_options& options);

}  // namespace wavemig
