#pragma once

// Internal helper shared by the rebuilding passes in src/core. Not
// installed; nothing outside src/core includes this.

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "wavemig/levels.hpp"
#include "wavemig/mig.hpp"

namespace wavemig::detail {

/// The rebuilt signal ("tap") planned for every consumer connection of an
/// old network, stored densely: fan-in slot `slot` of node `consumer` at
/// 3 * consumer + slot, primary output `p` after all of those. Shared by the
/// passes that rebuild a network driver by driver (fan-out restriction,
/// buffer insertion).
class tap_table {
public:
  explicit tap_table(const mig_network& old)
      : po_base_{3 * old.num_nodes()}, taps_(po_base_ + old.num_pos(), missing) {}

  void set(const fanout_map::edge& e, signal tap) { taps_[index(e.consumer, e.slot)] = tap; }

  /// The tap of one consumer connection. A connection that no driver
  /// planned is a bug in the pass, never a constant 0.
  [[nodiscard]] signal at(node_index consumer, std::uint32_t slot) const {
    const signal tap = taps_[index(consumer, slot)];
    if (tap == missing) {
      throw std::logic_error{"tap_table: no tap planned for a consumer connection"};
    }
    return tap;
  }

private:
  static constexpr signal missing = signal::from_raw(std::numeric_limits<std::uint32_t>::max());

  [[nodiscard]] std::size_t index(node_index consumer, std::uint32_t slot) const {
    return consumer == fanout_map::po_consumer ? po_base_ + slot
                                               : 3 * static_cast<std::size_t>(consumer) + slot;
  }

  std::size_t po_base_;
  std::vector<signal> taps_;
};

}  // namespace wavemig::detail
