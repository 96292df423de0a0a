#pragma once

#include <cstdint>

namespace wavemig::engine {

/// Options of a compiled program: the level of the optimizer that runs
/// after lowering (see compiled_netlist), plus a scenario tag and an FDM
/// lane count that reach only the cache key and the clock metadata. Every
/// opt level produces a program that is bit-identical in its primary
/// outputs — the optimizer only touches the combinational program (the
/// cycle-accurate `tick_program` is a separate type it never sees), and no
/// pass reorders ops — so the level is a pure compile-time / memory /
/// throughput trade-off:
///
/// * `0` — raw lowering, exactly the ops the network dictates (one majority
///   op per majority node, buffers folded by reference forwarding, each op
///   in the one-complement form of `compiled_netlist::maj_op`).
/// * `1` — constant propagation through majority gates (M(x,x,y)=x,
///   M(x,!x,y)=y, and their constant instances), structural hashing /
///   common-subexpression elimination under majority self-duality
///   (M(!a,!b,!c) = !M(a,b,c)), and dead-op elimination from the
///   primary-output cone. Shrinks the op count.
/// * `2` — level 1 plus liveness-based slot recycling: a linear scan
///   reassigns op target slots from a free list, so the scratch working set
///   shrinks from one slot per gate to the program's peak liveness. This is
///   what keeps the multi-word packed kernel cache-resident on big MIGs.
///
/// What a level did shows in the program itself: compare its
/// `num_comb_ops()` and `comb_slot_count()` with those of the same network
/// compiled at level 0.
struct compile_options {
  unsigned opt_level{0};
  /// Technology-scenario tag of the program (tech_scenario::fingerprint());
  /// 0 = untagged. The tag flows into the batch/serving cache key, so one
  /// session caches and serves different scenarios of the same netlist as
  /// distinct programs. It never changes the computed output words.
  std::uint64_t scenario_fingerprint{0};
  /// FDM lanes of the scenario (logical waves per physical conduit slot);
  /// 1 = no multiplexing. Affects clock metadata only: with n lanes a batch
  /// of w waves occupies ceil(w/n) physical slots and n waves ride each
  /// phase, so `ticks` shrinks and `waves_in_flight` grows n-fold while the
  /// computed outputs stay bit-identical.
  unsigned fdm_lanes{1};
};

/// Fingerprint of a full `compile_options` value. Joins the batch/serving
/// cache key so two programs compiled from the same network under different
/// options — a different opt level, scenario tag or FDM lane count — occupy
/// distinct cache entries and can never cross-serve.
[[nodiscard]] constexpr std::uint64_t options_fingerprint(const compile_options& o) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  };
  mix(o.opt_level);
  mix(o.scenario_fingerprint);
  mix(o.fdm_lanes);
  return h;
}

}  // namespace wavemig::engine
