#pragma once

// The packed execution core. Every packed front-end — run_waves_packed,
// wave_stream, run_waves_parallel (and batch_session::run over it) and the
// serving dispatcher — is an adapter over the same three steps:
//
//   1. validate_run, once per run, before any word is touched;
//   2. evaluate its members — each an input and an output plane view of
//      equal chunk count — inline (eval_block) or cut into shard blocks
//      that one submit_group runs across an executor (launch_sharded);
//   3. assemble each result: clock metadata, then the tail mask.
//
// Wave coherence makes every 64-wave chunk a pure function of its own input
// chunk, so how members are cut into blocks never changes a result word.
// Not installed; nothing outside src/engine includes this.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "wavemig/engine/parallel_executor.hpp"
#include "wavemig/engine/wave_engine.hpp"

namespace wavemig::engine::detail {

/// Clocking metadata shared by the cycle-accurate and packed paths — the
/// one copy of the formulas, for a `compiled_netlist` and a `tick_program`
/// alike; they mirror the sampling schedule of the tick simulator exactly.
/// Even a depth-0 (PI-to-PO) network carries one wave at a time.
template <typename Result, typename Program>
void fill_clock_metrics(Result& result, const Program& program, unsigned fdm_lanes,
                        unsigned phases, std::size_t num_waves) {
  const std::uint32_t depth = program.depth();
  // FDM scenarios (fdm_lanes > 1) carry several logical waves per physical
  // conduit slot: wave w occupies slot w / lanes, and every physical wave in
  // flight holds `lanes` logical ones. Metadata only — computed words are
  // lane-independent.
  const unsigned lanes = std::max(1u, fdm_lanes);
  result.initiation_interval = phases;
  result.latency_ticks = depth > 0 ? depth : 1;
  result.waves_in_flight = std::max<std::uint32_t>(1, (depth + phases - 1) / phases) * lanes;
  if (num_waves == 0) {
    result.ticks = 0;
    return;
  }
  std::uint64_t last_tick = 0;
  const std::uint64_t last_wave = (num_waves - 1) / lanes;
  for (std::size_t p = 0; p < program.num_pos(); ++p) {
    if (program.po_constant()[p]) {
      continue;
    }
    const std::uint32_t lvl = program.po_levels()[p];
    last_tick = std::max(last_tick, last_wave * phases + (lvl > 0 ? lvl - 1 : 0));
  }
  result.ticks = last_tick + 1;
}

/// Step 1. Throws std::invalid_argument unless `phases >= 1`, `batch_pis`
/// matches the netlist, the netlist is wave-coherent under `phases`, and
/// the words of a `num_waves`-wave result fit in a vector (a 0-PI batch
/// declares any wave count without carrying a word, and the product of
/// chunks and POs must not wrap). `who` prefixes the diagnostic.
void validate_run(const compiled_netlist& net, std::size_t batch_pis, std::size_t num_waves,
                  unsigned phases, const char* who);

/// One member of a run: `num_chunks` chunks of input planes (PI i's words
/// at `pis + i * pi_stride`) evaluated into as many chunks of output planes
/// (PO p's at `pos + p * po_stride`). A side without planes — a 0-PI or
/// 0-PO program — may have a null base.
struct packed_member {
  const std::uint64_t* pis{nullptr};
  std::size_t pi_stride{0};
  std::uint64_t* pos{nullptr};
  std::size_t po_stride{0};
  std::size_t num_chunks{0};
};

/// A result shaped for `num_waves` waves of `net` (zeroed words, plane
/// stride == chunk count), ready for step 2 to write into.
packed_wave_result make_result(const compiled_netlist& net, std::size_t num_waves);

/// The member that evaluates `waves` into `result` (sized by make_result).
inline packed_member member_of(const wave_batch& waves, packed_wave_result& result) {
  const wave_block_view in = waves.view();
  return {in.planes, in.plane_stride, result.words.data(), result.num_chunks(), in.num_chunks};
}

/// `planes + first`, except that a null base (a side without planes) stays
/// null: `nullptr + first` is undefined behaviour even when nothing is read
/// through it.
template <typename Word>
Word* chunk_offset(Word* planes, std::size_t first) {
  return planes == nullptr ? planes : planes + first;
}

/// Step 2, inline: evaluates chunks [first, first + count) of `member` on
/// the calling thread, in max_block_chunks steps.
void eval_block(const compiled_netlist& net, const packed_member& member, std::size_t first,
                std::size_t count, std::vector<std::uint64_t>& scratch);

/// Step 2, sharded: cuts every member into blocks of
/// `shard_block_chunks(total chunks, workers)` chunks and runs them as one
/// submit_group, each block writing a disjoint chunk range of its member's
/// output planes. `done` fires once, on the worker that finished the last
/// block (inline when there is none); `net` and every member's planes must
/// stay alive until then.
void launch_sharded(const compiled_netlist& net, std::vector<packed_member> members,
                    parallel_executor& executor, group_callback done);

/// Step 3: clock metadata for `result.num_waves` waves, then the bits above
/// `num_waves` in each plane's last chunk zeroed. The kernel computes tail
/// lanes like any other lane (complemented outputs make them 1), so every
/// front-end masks here to uphold the containers' tail-zero invariant.
void assemble(packed_wave_result& result, const compiled_netlist& net, unsigned phases);

}  // namespace wavemig::engine::detail
