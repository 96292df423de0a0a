#pragma once

#include <cstdint>
#include <vector>

#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/levels.hpp"
#include "wavemig/mig.hpp"
#include "wavemig/wave_simulator.hpp"

namespace wavemig::engine {

/// @name Plane-major packed layout
///
/// Packed wave words are stored **plane-major** (word-transposed): for each
/// signal (PI of a batch, PO of a result) a contiguous run of chunk words —
/// `plane(s)[c]` packs waves [64c, 64c + 64) of signal s, wave w at bit
/// w % 64. This is the engine's only packed layout. The multi-word kernel
/// consumes slot-major word blocks, so plane-major I/O feeds it with
/// unit-stride copies: no strided gather per PI or scatter per PO.
/// @{

/// Read-only view of a plane-major word block: `num_signals` planes of
/// `num_chunks` contiguous words each, consecutive planes `plane_stride`
/// words apart (the stride may exceed `num_chunks` — a batch keeps spare
/// chunk capacity). `planes` may be null when the block holds no words (no
/// signals or no chunks). Bits above the last valid wave in the final chunk
/// are zero for every view handed out by the engine's containers.
struct wave_block_view {
  const std::uint64_t* planes{nullptr};
  std::size_t plane_stride{0};
  std::size_t num_signals{0};
  std::size_t num_chunks{0};

  [[nodiscard]] const std::uint64_t* plane(std::size_t signal) const {
    return planes + signal * plane_stride;
  }
};

/// @}

/// Packed batch of input waves: 64 waves per 64-bit word, stored plane-major
/// (see above) — PI i owns the contiguous words `plane(i)[0 .. num_chunks())`,
/// wave w at bit w % 64 of word w / 64. Invariant maintained by every
/// mutator: words beyond `num_waves()` (the tail bits of the last chunk and
/// any spare capacity chunks) are zero, so views of the batch never expose
/// stray bits.
class wave_batch {
public:
  explicit wave_batch(std::size_t num_pis) : num_pis_{num_pis} {}

  [[nodiscard]] std::size_t num_pis() const { return num_pis_; }
  [[nodiscard]] std::size_t num_waves() const { return num_waves_; }
  [[nodiscard]] std::size_t num_chunks() const {
    return num_waves_ / 64 + (num_waves_ % 64 != 0 ? 1 : 0);  // no wrap near SIZE_MAX
  }
  [[nodiscard]] bool empty() const { return num_waves_ == 0; }

  /// Appends one wave (one bool per PI). Throws std::invalid_argument on a
  /// width mismatch.
  void append(const std::vector<bool>& wave);

  /// What `from_plane_words` does with bits above `num_waves` in a plane's
  /// last chunk: `mask` (the default) zeroes them silently — right for
  /// trusted in-process producers reusing padded buffers; `reject` throws
  /// std::invalid_argument — right for untrusted payloads (the network
  /// front-end), where stray bits mean a corrupted or mis-declared frame.
  enum class tail_bits { mask, reject };

  /// Adopts `words` as plane-major storage without copying: `num_pis`
  /// planes of exactly ceil(num_waves / 64) words each (plane stride ==
  /// chunk count, PI i's words at `words[i * chunks .. (i+1) * chunks)`).
  /// Bits above `num_waves` in each plane's last chunk are masked off (or
  /// rejected, per `tail`). Throws std::invalid_argument when the vector's
  /// size does not match the declared shape — the check is division-based,
  /// so a hostile `num_waves` near SIZE_MAX cannot wrap the arithmetic
  /// into accepting a short buffer. This is the zero-copy ingestion path
  /// of serving_session::submit_packed.
  static wave_batch from_plane_words(std::vector<std::uint64_t> words, std::size_t num_pis,
                                     std::size_t num_waves, tail_bits tail = tail_bits::mask);

  /// Drops all waves but keeps the word storage for reuse (the allocation
  /// amortizer of wave_stream's flush path).
  void clear();

  /// Pre-allocates storage for `num_waves` waves.
  void reserve(std::size_t num_waves) { ensure_chunk_capacity((num_waves + 63) / 64); }

  [[nodiscard]] bool input(std::size_t wave, std::size_t pi) const {
    const std::uint64_t word = words_[pi * chunk_capacity_ + wave / 64];
    return ((word >> (wave % 64)) & 1u) != 0;
  }

  /// The contiguous chunk words of PI `pi` (plane-major native access).
  [[nodiscard]] const std::uint64_t* plane(std::size_t pi) const {
    return words_.data() + pi * chunk_capacity_;
  }

  /// Plane-major view of the whole batch — what the packed front-ends hand
  /// to the kernel. Valid until the next mutation.
  [[nodiscard]] wave_block_view view() const {
    return {words_.data(), chunk_capacity_, num_pis_, num_chunks()};
  }

  /// Packs per-wave bools (`waves[w][i]` = PI i of wave w) into a batch
  /// whose plane stride equals its chunk count. Every wave's width is
  /// checked before anything is packed: std::invalid_argument when one is
  /// not `num_pis`. Bits above the last wave are zero (the tail
  /// invariant). Cost: each 64-wave x 64-PI tile is read a word per wave
  /// and turned into plane words by one in-register 64 x 64 bit transpose,
  /// so the work grows with waves x ceil(num_pis / 64) words, not with
  /// waves x num_pis bits.
  static wave_batch from_waves(const std::vector<std::vector<bool>>& waves, std::size_t num_pis);

private:
  /// Grows the per-plane stride to at least `chunks` words (geometric), and
  /// re-strides the planes. New words are zero.
  void ensure_chunk_capacity(std::size_t chunks);

  std::size_t num_pis_;
  std::size_t num_waves_{0};
  std::size_t chunk_capacity_{0};  ///< plane stride in words
  std::vector<std::uint64_t> words_;  ///< num_pis_ * chunk_capacity_ words
};

/// Result of a packed wave run: 64 waves per word, plane-major like
/// wave_batch — PO p owns the contiguous words `plane(p)[0 .. num_chunks())`
/// (plane stride == chunk count exactly). Every engine front-end masks the
/// bits above `num_waves` in each plane's last chunk, so results uphold the
/// same tail-zero invariant as batches (hash or ship the words as-is).
/// Clocking metadata matches what the cycle-accurate simulator reports for
/// the same run.
struct packed_wave_result {
  std::size_t num_pos{0};
  std::size_t num_waves{0};
  std::vector<std::uint64_t> words;
  std::uint64_t ticks{0};
  std::uint32_t latency_ticks{0};
  std::uint32_t initiation_interval{0};
  std::uint32_t waves_in_flight{0};

  [[nodiscard]] std::size_t num_chunks() const {
    return num_waves / 64 + (num_waves % 64 != 0 ? 1 : 0);  // no wrap near SIZE_MAX
  }

  [[nodiscard]] bool output(std::size_t wave, std::size_t po) const {
    const std::uint64_t word = words[po * num_chunks() + wave / 64];
    return ((word >> (wave % 64)) & 1u) != 0;
  }

  /// The contiguous chunk words of PO `po`.
  [[nodiscard]] const std::uint64_t* plane(std::size_t po) const {
    return words.data() + po * num_chunks();
  }

  /// Unpacks into the per-wave bool layout of wave_run_result::outputs
  /// (`out[w][p] == output(w, p)`), the inverse of wave_batch::from_waves:
  /// 64 plane words of a 64-wave x 64-PO tile go through one 64 x 64 bit
  /// transpose and are stored a row word per wave. Each row is allocated
  /// and filled once; that per-wave allocation, which the return type
  /// requires, is most of what the call costs.
  [[nodiscard]] std::vector<std::vector<bool>> unpack() const;
};

/// The cycle-accurate program: every physical component of a netlist —
/// majority gates, buffers and fan-out gates — with its scheduled level,
/// preserving the semantics of wavemig::run_waves, including wave
/// interference on unbalanced netlists. `engine::run_waves` is its only
/// consumer, and `wavemig::run_waves` builds one per call from a netlist
/// and its schedule; a packed `compiled_netlist` never carries one
/// (buffers fold out of it). Immutable once built.
class tick_program {
public:
  enum class op_kind : std::uint8_t { majority, copy };

  /// Physical component. Fan-ins are `slot_ref`s into the per-node state
  /// array (slot == node index).
  struct op {
    std::uint32_t target;
    slot_ref a, b, c;     ///< copy ops use only `a`
    std::uint32_t level;  ///< scheduled level (>= 1 for components)
    op_kind kind;
  };

  /// Lowers every component of `net`, clocked by `schedule`. `fdm_lanes`
  /// tags the clock metadata as compile_options::fdm_lanes does (logical
  /// waves per physical slot); the simulation itself is lane-agnostic.
  /// Throws std::invalid_argument if the schedule does not match the network.
  tick_program(const mig_network& net, const level_map& schedule, unsigned fdm_lanes = 1);

  [[nodiscard]] std::size_t num_pis() const { return pi_slots_.size(); }
  [[nodiscard]] std::size_t num_pos() const { return po_refs_.size(); }
  /// Components in firing order (node order).
  [[nodiscard]] const std::vector<op>& ops() const { return ops_; }
  [[nodiscard]] std::size_t num_ops() const { return ops_.size(); }
  /// State slots (one per network node).
  [[nodiscard]] std::size_t slot_count() const { return slot_count_; }
  /// Node slots of the primary inputs, in PI position order.
  [[nodiscard]] const std::vector<std::uint32_t>& pi_slots() const { return pi_slots_; }
  /// Per PO: reference into the state array.
  [[nodiscard]] const std::vector<slot_ref>& po_refs() const { return po_refs_; }
  /// Per PO: scheduled level of the driver (0 for PIs and constants).
  [[nodiscard]] const std::vector<std::uint32_t>& po_levels() const { return po_levels_; }
  /// Per PO: true when driven by the constant node.
  [[nodiscard]] const std::vector<bool>& po_constant() const { return po_constant_; }
  /// Scheduled depth (max level over all primary-output drivers).
  [[nodiscard]] std::uint32_t depth() const { return depth_; }
  [[nodiscard]] unsigned fdm_lanes() const { return fdm_lanes_; }
  /// True when every data edge advances at least one level, so components
  /// can update in place instead of from a pre-tick snapshot.
  [[nodiscard]] bool edges_advance() const { return edges_advance_; }

private:
  std::uint32_t slot_count_{0};
  std::uint32_t depth_{0};
  unsigned fdm_lanes_{1};
  bool edges_advance_{true};
  std::vector<op> ops_;
  std::vector<std::uint32_t> pi_slots_;
  std::vector<slot_ref> po_refs_;
  std::vector<std::uint32_t> po_levels_;
  std::vector<bool> po_constant_;
};

/// Cycle-accurate wave simulation on a tick program — the exact semantics
/// of wavemig::run_waves (including wave interference on unbalanced
/// netlists), minus the interpreter overhead: components are pre-bucketed
/// into per-clock-phase firing lists and, when every edge advances at least
/// one level per tick, updated in place in decreasing level order instead
/// of snapshotting the full state every tick. Clock metadata comes from the
/// same formulas as the packed path's (FDM lanes included).
wave_run_result run_waves(const tick_program& program,
                          const std::vector<std::vector<bool>>& waves, unsigned phases);

/// Packed wave-pipelined execution: 64 independent waves per 64-bit word
/// per step. Requires `net.wave_coherent(phases)` — on a coherent netlist
/// every wave's sampled outputs equal the combinational evaluation of that
/// wave's inputs (§II-C), which the engine exploits to stream whole chunks
/// through the folded majority program. Throws std::invalid_argument when
/// the netlist is not coherent under `phases` (use the cycle-accurate
/// `run_waves` to observe interference) or when `phases == 0`. The batch is
/// one member of the engine's packed core, evaluated inline on the calling
/// thread in `max_block_chunks` steps; `run_waves_parallel` and the serving
/// front-ends shard the same core, so every path returns these words.
packed_wave_result run_waves_packed(const compiled_netlist& net, const wave_batch& waves,
                                    unsigned phases);

/// Streaming front-end over the packed engine for workloads whose waves
/// arrive incrementally: waves accumulate into a multi-chunk block
/// (`block_waves` = 512 at the default kernel width) that is evaluated in
/// one multi-word pass the moment it fills, with the pending storage and
/// scratch reused across blocks. Each flushed block is an inline member of
/// the packed core that writes the full-width result planes at its chunk
/// offset; the planes grow geometrically, and finish() compacts them to the
/// result stride, masks the tail and hands the buffer over. Result words
/// are bit-identical to `run_waves_packed`.
class wave_stream {
public:
  /// Waves per evaluated block: one full pass of the multi-word kernel.
  static constexpr std::size_t block_waves = 64 * compiled_netlist::max_block_chunks;

  /// The compiled netlist must outlive the stream. Throws
  /// std::invalid_argument when the netlist is not wave-coherent under
  /// `phases` or `phases == 0`.
  wave_stream(const compiled_netlist& net, unsigned phases);

  /// Enqueues one wave; evaluates transparently once a block is pending.
  void push(const std::vector<bool>& wave);

  [[nodiscard]] std::size_t waves_pushed() const { return pushed_; }
  /// Waves whose outputs are already available in the result.
  [[nodiscard]] std::size_t waves_completed() const { return completed_; }

  /// Flushes any pending partial block and returns the accumulated result
  /// for every pushed wave. The stream is reusable afterwards (resets).
  packed_wave_result finish();

private:
  void flush_pending();
  /// Grows `done_words_` (re-striding the planes) so chunks [0, needed)
  /// fit at a common stride.
  void ensure_capacity(std::size_t needed_chunks);

  const compiled_netlist& net_;
  unsigned phases_;
  wave_batch pending_;
  /// The result planes: num_pos planes of done_stride_ words each, of which
  /// the first flushed_chunks_ hold evaluated blocks.
  std::vector<std::uint64_t> done_words_;
  std::size_t done_stride_{0};
  std::size_t flushed_chunks_{0};
  std::vector<std::uint64_t> scratch_;
  std::size_t pushed_{0};
  std::size_t completed_{0};
};

}  // namespace wavemig::engine
