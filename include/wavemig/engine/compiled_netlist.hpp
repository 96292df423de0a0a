#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "wavemig/buffer_insertion.hpp"
#include "wavemig/engine/optimizer.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/mig.hpp"

namespace wavemig::engine {

/// Reference to a value slot with a complement attribute, mirroring the
/// encoding of wavemig::signal but resolved against the dense slot layout of
/// a compiled program: bit 0 is the complement, the remaining bits the slot.
using slot_ref = std::uint32_t;

/// All-ones when the reference carries a complement, zero otherwise — the
/// branch-free form of `ref & 1 ? ~v : v` for 64-bit words.
constexpr std::uint64_t complement_mask(slot_ref ref) {
  return static_cast<std::uint64_t>(0) - static_cast<std::uint64_t>(ref & 1u);
}

/// One-time lowering of a `mig_network` plus its clock into the packed
/// program every packed front-end runs: the majority gates in flat
/// structure-of-arrays form, with buffers and fan-out gates folded away by
/// reference forwarding, plus the clock metadata the packed path reports —
/// depth, PO levels, PO-constant flags and edge-span bounds — and the
/// options it was compiled with. This is the engine behind
/// `simulate_words`, `simulate_truth_tables` and the packed wave path,
/// where identity components contribute nothing.
///
/// The cycle-accurate tick program, which keeps every physical component,
/// is a separate type (`tick_program`, engine/wave_engine.hpp), so a packed
/// program never carries one. A served program is lowered from the
/// unbalanced netlist and clocked by its balance plan (see the
/// `balance_plan` constructor): no balancing buffer is ever built for it.
///
/// A compiled netlist is immutable and can be shared by any number of
/// concurrent evaluations; all mutable state lives in caller-provided
/// scratch vectors.
class compiled_netlist {
public:
  /// Majority operation of the combinational program. Fan-ins are
  /// `slot_ref`s into the combinational slot array. Invariant of every
  /// compiled program, at every opt level and from every constructor: at
  /// most one operand is complemented, and it is `a` (`b` and `c` are
  /// plain). Lowering and the optimizer apply self-duality,
  /// M(!a,!b,!c) = !M(a,b,c), to ops with two or three complemented
  /// operands and carry the flip on the output reference, so the packed
  /// kernel XORs one complement mask per op.
  struct maj_op {
    std::uint32_t target;
    slot_ref a, b, c;
  };

  /// Compiles against the network's ASAP levels, which it stores (see
  /// mig_network): nothing is recomputed or copied.
  explicit compiled_netlist(const mig_network& net, compile_options options = {});

  /// Compiles against an explicit clock schedule (required for
  /// tolerance-balanced netlists; see buffer_insertion_options::tolerance).
  /// Throws std::invalid_argument if the schedule does not match the network.
  compiled_netlist(const mig_network& net, const level_map& schedule,
                   compile_options options = {});

  /// Compiles the balanced netlist without building it: the gates of the
  /// unbalanced `net`, clocked by `plan = plan_balance(net, balance)`. The
  /// result has the comb program and clock metadata of
  /// `compiled_netlist{b.net, b.schedule, options}` with
  /// `b = insert_buffers(net, balance)` — buffers fold out of the comb
  /// program, and the plan fixes depth, PO levels and spans before any
  /// buffer exists. This is what every `batch_session` cache miss compiles,
  /// untagged or under a scenario, so every served program is clocked by
  /// the balancer's schedule.
  compiled_netlist(const mig_network& net, const balance_plan& plan,
                   compile_options options = {});

  /// Compiles only the combinational program — no level computation, no
  /// coherence metadata (wave_coherent is always false, every PO level 0).
  /// The cheap lowering for purely combinational consumers
  /// (simulate_words & friends).
  static compiled_netlist comb_only(const mig_network& net, compile_options options = {});

  /// @name Interface shape
  /// @{
  /// Resident bytes of the program (majority ops, PO references, PO levels
  /// and constant flags, plus the object header) — what a bounded
  /// compiled-netlist cache charges an entry against its byte budget.
  /// Deterministic for a given network: every vector is sized exactly
  /// during lowering and never reallocates.
  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] std::size_t num_pis() const { return num_pis_; }
  [[nodiscard]] std::size_t num_pos() const { return num_pos_; }
  /// Majority operations in the combinational program (after optimization).
  [[nodiscard]] std::size_t num_comb_ops() const { return comb_ops_.size(); }
  /// The combinational program itself, in execution order. Exposed so
  /// tests can audit op order and operand liveness.
  [[nodiscard]] const std::vector<maj_op>& comb_ops() const { return comb_ops_; }
  /// Value slots of the combinational program: 1 (constant) + PIs + gate
  /// slots. This is the scratch working set of the packed kernel, per word
  /// of kernel width; slot recycling (opt level >= 2) shrinks it to peak
  /// liveness.
  [[nodiscard]] std::size_t comb_slot_count() const { return comb_slot_count_; }
  /// The options this program was compiled with.
  [[nodiscard]] compile_options options() const { return options_; }
  /// Scheduled depth (max level over all primary-output drivers).
  [[nodiscard]] std::uint32_t depth() const { return depth_; }
  /// @}

  /// @name Coherence metadata
  ///
  /// Span of a data edge = level(consumer) - level(producer), constants
  /// excluded. Under a P-phase clock every wave stays coherent iff every
  /// edge span lies in [1, P] (DESIGN.md §2.2); `wave_coherent` is that
  /// predicate. Packed execution requires it; the cycle-accurate
  /// `tick_program` does not.
  /// @{
  [[nodiscard]] std::uint32_t min_edge_span() const { return min_edge_span_; }
  [[nodiscard]] std::uint32_t max_edge_span() const { return max_edge_span_; }
  [[nodiscard]] bool wave_coherent(unsigned phases) const {
    return min_edge_span_ >= 1 && max_edge_span_ <= phases;
  }
  /// @}

  /// @name Combinational evaluation
  /// @{

  /// Evaluates the combinational program over any word type supporting
  /// `~`, `&` and `|` (e.g. `std::uint64_t`, `truth_table`). `pi_value(i)`
  /// returns the word of PI position i; `zero` is the all-zero word (it
  /// carries the width for `truth_table`). `slots` is reusable scratch;
  /// read results with `po_value`.
  template <typename Word, typename PiFn>
  void eval(PiFn&& pi_value, const Word& zero, std::vector<Word>& slots) const {
    slots.clear();
    slots.resize(comb_slot_count_, zero);
    for (std::uint32_t i = 0; i < num_pis_; ++i) {
      slots[1 + i] = pi_value(i);
    }
    for (const auto& o : comb_ops_) {
      const Word a = read_slot(slots, o.a);
      const Word b = read_slot(slots, o.b);
      const Word c = read_slot(slots, o.c);
      slots[o.target] = (a & b) | (b & c) | (a & c);
    }
  }

  /// Value of primary output `position` after `eval` filled `slots`.
  template <typename Word>
  [[nodiscard]] Word po_value(const std::vector<Word>& slots, std::size_t position) const {
    return read_slot(slots, comb_po_refs_[position]);
  }

  /// Bit-parallel evaluation of 64 input patterns: `pi_words[i]` packs 64
  /// values of PI i, and `po_words[p]` receives the output word of PO p.
  /// `slots` is reusable scratch — the single-word (W=1) form of the packed
  /// kernel, behind `simulate_words` and `functionally_equivalent`.
  void eval_words_into(const std::uint64_t* pi_words, std::uint64_t* po_words,
                       std::vector<std::uint64_t>& slots) const;

  /// Word-blocks the multi-word kernel evaluates per pass: up to 8 chunks
  /// (512 waves) flow through the program together, so each op's three
  /// loads and one store amortize over 8 words — the software analogue of
  /// widening the datapath. An 8-word slot is one 64-byte cache line, and
  /// one AVX-512 register (two AVX2, four SSE2 or NEON registers).
  static constexpr std::size_t max_block_chunks = 8;

  /// The native multi-word entry: evaluates `num_chunks` consecutive
  /// 64-wave chunks in word-blocks of up to `max_block_chunks`, with
  /// **plane-major** I/O — PI i's chunk words contiguous at
  /// `pi_planes + i * pi_stride`, PO p's at `po_planes + p * po_stride`
  /// (the layout of `wave_batch::view()` / `packed_wave_result`). Each
  /// block's PI words load into the slot-major kernel blocks with unit
  /// stride (one contiguous W-word copy per PI) and PO words store the same
  /// way — no strided gather or scatter anywhere. The kernel is one source
  /// instantiated per ISA: AVX-512F and AVX2 on x86-64 when built in
  /// (WAVEMIG_ENABLE_AVX2), and the baseline ISA everywhere; the widest the
  /// CPU supports is picked once per process. `slots` is reusable scratch,
  /// whose slot blocks start on a 64-byte boundary wherever it is
  /// allocated; results are bit-identical to `eval_words_into` per chunk
  /// (fed chunk c's word of every plane). Strides must be at least
  /// `num_chunks`; a base may be null when its side has no planes (0 PIs or
  /// 0 POs). Every packed front-end reaches the kernel through this entry.
  void eval_planes_block(const std::uint64_t* pi_planes, std::size_t pi_stride,
                         std::uint64_t* po_planes, std::size_t po_stride,
                         std::size_t num_chunks, std::vector<std::uint64_t>& slots) const;

  /// Convenience wrapper; validates the input width.
  [[nodiscard]] std::vector<std::uint64_t> eval_words(
      const std::vector<std::uint64_t>& pi_words) const;

  /// @}
  /// @name Clock metadata
  /// @{

  /// Per PO: scheduled level of the driver (0 for PIs and constants).
  [[nodiscard]] const std::vector<std::uint32_t>& po_levels() const { return po_levels_; }
  /// Per PO: true when driven by the constant node.
  [[nodiscard]] const std::vector<bool>& po_constant() const { return po_constant_; }

  /// @}

  template <typename Word>
  [[nodiscard]] static Word read_slot(const std::vector<Word>& slots, slot_ref ref) {
    const Word& v = slots[ref >> 1];
    return (ref & 1u) != 0 ? ~v : v;
  }

private:
  compiled_netlist() = default;

  /// Lowers the combinational program and the clock under `schedule` (a
  /// level per node) of depth `depth`; an empty schedule leaves no clock
  /// (comb_only, or a balance plan's to come).
  void lower(const mig_network& net, std::span<const std::uint32_t> schedule,
             std::uint32_t depth);

  /// Runs the post-lowering optimizer over the combinational program
  /// (optimizer.cpp) at options_.opt_level; a no-op at opt level 0.
  void optimize();

  compile_options options_{};
  std::uint32_t num_pis_{0};
  std::uint32_t num_pos_{0};
  std::uint32_t depth_{0};
  std::uint32_t min_edge_span_{0};
  std::uint32_t max_edge_span_{0};

  // Combinational program: slot 0 = constant 0, slots 1..num_pis = PIs,
  // then one slot per majority gate.
  std::uint32_t comb_slot_count_{0};
  std::vector<maj_op> comb_ops_;
  std::vector<slot_ref> comb_po_refs_;

  // Clock metadata, per PO.
  std::vector<std::uint32_t> po_levels_;
  std::vector<bool> po_constant_;
};

}  // namespace wavemig::engine
