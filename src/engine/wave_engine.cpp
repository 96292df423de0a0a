#include "wavemig/engine/wave_engine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "packed_kernel.hpp"
#include "packed_run.hpp"

namespace wavemig::engine {

namespace {

/// Word `word` of a bool vector — its bits [64 * word, 64 * word + 64) at
/// bits 0..63 — with the bits at and above `width` cleared (`width` is the
/// number of the vector's bits in that word). `store_bits` writes such a
/// word back, zeroing the bits above `width`. On libstdc++ with 64-bit
/// storage words they load and store those words directly instead of
/// stepping a bit iterator 64 times; the debug-mode container hides the
/// words, so there, and with other libraries, they fall back to a per-bit
/// loop. The mask on load matters: a vector<bool> shrunk by resize keeps
/// stale bits in its last word.
#if defined(__GLIBCXX__) && !defined(_GLIBCXX_DEBUG) && __SIZEOF_LONG__ == 8
std::uint64_t load_bits(const std::vector<bool>& v, std::size_t word, std::size_t width) {
  const std::uint64_t bits = v.begin()._M_p[word];
  return width >= 64 ? bits : bits & ((std::uint64_t{1} << width) - 1);
}

void store_bits(std::vector<bool>& v, std::size_t word, std::size_t width, std::uint64_t bits) {
  v.begin()._M_p[word] = width >= 64 ? bits : bits & ((std::uint64_t{1} << width) - 1);
}
#else
std::uint64_t load_bits(const std::vector<bool>& v, std::size_t word, std::size_t width) {
  std::uint64_t bits = 0;
  for (std::size_t b = 0; b < width; ++b) {
    bits |= static_cast<std::uint64_t>(v[64 * word + b]) << b;
  }
  return bits;
}

void store_bits(std::vector<bool>& v, std::size_t word, std::size_t width, std::uint64_t bits) {
  for (std::size_t b = 0; b < width; ++b) {
    v[64 * word + b] = ((bits >> b) & 1u) != 0;
  }
}
#endif

}  // namespace

// --------------------------------------------------------- wave_batch ---

void wave_batch::ensure_chunk_capacity(std::size_t chunks) {
  if (chunks <= chunk_capacity_) {
    return;
  }
  // Geometric growth keeps per-wave append amortized O(1) even though a
  // re-stride moves every plane.
  const std::size_t new_capacity = std::max(chunks, 2 * chunk_capacity_);
  std::vector<std::uint64_t> grown(num_pis_ * new_capacity, 0);
  if (const std::size_t used = num_chunks(); used != 0) {
    for (std::size_t i = 0; i < num_pis_; ++i) {
      std::memcpy(grown.data() + i * new_capacity, words_.data() + i * chunk_capacity_,
                  used * sizeof(std::uint64_t));
    }
  }
  words_.swap(grown);
  chunk_capacity_ = new_capacity;
}

void wave_batch::clear() {
  // Zero only the words that carried waves — spare capacity is zero by
  // invariant — so the storage is immediately reusable.
  if (const std::size_t used = num_chunks(); used != 0) {
    for (std::size_t i = 0; i < num_pis_; ++i) {
      std::memset(words_.data() + i * chunk_capacity_, 0, used * sizeof(std::uint64_t));
    }
  }
  num_waves_ = 0;
}

void wave_batch::append(const std::vector<bool>& wave) {
  if (wave.size() != num_pis_) {
    throw std::invalid_argument{"wave_batch: each wave needs one value per primary input"};
  }
  const std::size_t bit = num_waves_ % 64;
  if (bit == 0) {
    ensure_chunk_capacity(num_waves_ / 64 + 1);
  }
  // Offsets are taken inside the loop: a 0-PI batch has no storage, and its
  // null base must not be offset.
  std::uint64_t* words = words_.data();
  const std::size_t chunk = num_waves_ / 64;
  for (std::size_t i = 0; i < num_pis_; ++i) {
    words[i * chunk_capacity_ + chunk] |= static_cast<std::uint64_t>(wave[i]) << bit;
  }
  ++num_waves_;
}

wave_batch wave_batch::from_plane_words(std::vector<std::uint64_t> words, std::size_t num_pis,
                                        std::size_t num_waves, tail_bits tail) {
  // Overflow-proof shape check: (num_waves + 63) could wrap for a hostile
  // num_waves near SIZE_MAX, and chunks * num_pis could wrap right back
  // onto the attacker's buffer size. Divide instead of multiplying: the
  // buffer decides how many chunks per plane there are, and num_waves must
  // agree with that count exactly.
  const std::size_t chunks = num_waves / 64 + (num_waves % 64 != 0 ? 1 : 0);
  const bool size_matches = num_pis == 0
                                ? words.size() == 0
                                : words.size() % num_pis == 0 && words.size() / num_pis == chunks;
  if (!size_matches) {
    throw std::invalid_argument{
        "wave_batch: plane words must hold ceil(num_waves / 64) chunks per primary input"};
  }
  wave_batch batch{num_pis};
  batch.words_ = std::move(words);
  batch.chunk_capacity_ = chunks;
  batch.num_waves_ = num_waves;
  // Restore the tail invariant: the adopted buffer may carry stray bits
  // above num_waves in each plane's last chunk. Under `reject` they are a
  // shape error (an untrusted producer mis-declared its wave count).
  if (const std::size_t live = num_waves % 64; live != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << live) - 1;
    for (std::size_t i = 0; i < num_pis; ++i) {
      std::uint64_t& last = batch.words_[i * chunks + chunks - 1];
      if (tail == tail_bits::reject && (last & ~mask) != 0) {
        throw std::invalid_argument{
            "wave_batch: stray bits above num_waves in a plane's last chunk"};
      }
      last &= mask;
    }
  }
  return batch;
}

wave_batch wave_batch::from_waves(const std::vector<std::vector<bool>>& waves,
                                  std::size_t num_pis) {
  for (const auto& wave : waves) {
    if (wave.size() != num_pis) {
      throw std::invalid_argument{"wave_batch: each wave needs one value per primary input"};
    }
  }
  // Per 64-wave chunk and 64-PI block: one row word per wave, transposed
  // into one plane word per PI. Rows past the last wave stay zero, so the
  // tail bits of every plane's last chunk come out zero.
  const std::size_t chunks = (waves.size() + 63) / 64;
  std::vector<std::uint64_t> words(num_pis * chunks);
  const auto transpose = detail::supported_kernels().front().transpose;
  alignas(64) std::uint64_t tile[64];
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lanes = std::min<std::size_t>(64, waves.size() - c * 64);
    for (std::size_t b = 0; b * 64 < num_pis; ++b) {
      const std::size_t width = std::min<std::size_t>(64, num_pis - b * 64);
      for (std::size_t w = 0; w < 64; ++w) {
        tile[w] = w < lanes ? load_bits(waves[c * 64 + w], b, width) : 0;
      }
      transpose(tile);
      for (std::size_t i = 0; i < width; ++i) {
        words[(b * 64 + i) * chunks + c] = tile[i];
      }
    }
  }
  return from_plane_words(std::move(words), num_pis, waves.size());
}

// -------------------------------------------------- packed_wave_result ---

std::vector<std::vector<bool>> packed_wave_result::unpack() const {
  // The inverse of from_waves: per 64-wave chunk and 64-PO block, 64 plane
  // words transposed into one row word per wave. Rows are created chunk by
  // chunk, so each is filled while it is still in cache.
  std::vector<std::vector<bool>> out;
  out.reserve(num_waves);
  const std::size_t chunks = num_chunks();
  const auto transpose = detail::supported_kernels().front().transpose;
  alignas(64) std::uint64_t tile[64];
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lanes = std::min<std::size_t>(64, num_waves - c * 64);
    for (std::size_t w = 0; w < lanes; ++w) {
      out.emplace_back(num_pos);
    }
    for (std::size_t b = 0; b * 64 < num_pos; ++b) {
      const std::size_t width = std::min<std::size_t>(64, num_pos - b * 64);
      for (std::size_t i = 0; i < 64; ++i) {
        tile[i] = i < width ? words[(b * 64 + i) * chunks + c] : 0;
      }
      transpose(tile);
      for (std::size_t w = 0; w < lanes; ++w) {
        store_bits(out[c * 64 + w], b, width, tile[w]);
      }
    }
  }
  return out;
}

// --------------------------------------------------------- scalar path ---

tick_program::tick_program(const mig_network& net, const level_map& schedule,
                           unsigned fdm_lanes)
    : slot_count_{static_cast<std::uint32_t>(net.num_nodes())},
      depth_{schedule.depth},
      fdm_lanes_{fdm_lanes} {
  if (schedule.level.size() != net.num_nodes()) {
    throw std::invalid_argument{"tick_program: schedule does not match the network"};
  }
  const auto ref = [](signal s) -> slot_ref {
    return (s.index() << 1u) | static_cast<slot_ref>(s.is_complemented());
  };
  ops_.reserve(net.num_components());
  pi_slots_.assign(net.num_pis(), 0);
  net.foreach_node([&](node_index n) {
    const auto fis = net.fanins(n);
    for (const signal f : fis) {
      // A custom schedule may contain an edge that does not advance.
      if (!net.is_constant(f.index()) && schedule[n] <= schedule[f.index()]) {
        edges_advance_ = false;
      }
    }
    switch (net.kind(n)) {
      case node_kind::constant:
        break;
      case node_kind::primary_input:
        pi_slots_[net.pi_position(n)] = n;
        break;
      case node_kind::majority:
        ops_.push_back({n, ref(fis[0]), ref(fis[1]), ref(fis[2]), schedule[n], op_kind::majority});
        break;
      case node_kind::buffer:
      case node_kind::fanout:
        ops_.push_back({n, ref(fis[0]), 0, 0, schedule[n], op_kind::copy});
        break;
    }
  });
  po_refs_.assign(net.num_pos(), 0);
  po_levels_.assign(net.num_pos(), 0);
  po_constant_.assign(net.num_pos(), false);
  for (std::size_t p = 0; p < net.num_pos(); ++p) {
    const signal driver = net.po_signal(p);
    po_refs_[p] = ref(driver);
    po_levels_[p] = schedule[driver.index()];
    po_constant_[p] = net.is_constant(driver.index());
  }
}

wave_run_result run_waves(const tick_program& program,
                          const std::vector<std::vector<bool>>& waves, unsigned phases) {
  if (phases == 0) {
    throw std::invalid_argument{"run_waves: at least one clock phase required"};
  }
  for (const auto& wave : waves) {
    if (wave.size() != program.num_pis()) {
      throw std::invalid_argument{"run_waves: each wave needs one value per primary input"};
    }
  }

  wave_run_result result;
  detail::fill_clock_metrics(result, program, program.fdm_lanes(), phases, waves.size());
  result.outputs.assign(waves.size(), std::vector<bool>(program.num_pos(), false));
  if (waves.empty()) {
    return result;
  }
  // The tick simulator models a single physical lane: every wave occupies
  // its own initiation slot regardless of the program's FDM tag, so the
  // simulated tick span is computed lane-agnostically. result.ticks carries
  // the (possibly FDM-compressed) clock metadata and must not bound the
  // simulation loop — that would drop waves past the first physical slot.
  std::uint64_t last_tick = 0;
  const std::uint64_t final_wave = waves.size() - 1;
  for (std::uint32_t p = 0; p < program.num_pos(); ++p) {
    if (program.po_constant()[p]) {
      continue;
    }
    const std::uint32_t lvl = program.po_levels()[p];
    last_tick = std::max(last_tick, final_wave * phases + (lvl > 0 ? lvl - 1 : 0));
  }

  // Per-clock-phase firing lists, resolved once instead of per tick. Ops in
  // a list are ordered by decreasing level so the in-place update below
  // preserves synchronous (pre-tick snapshot) semantics: every data edge
  // spans >= 1 level, hence a consumer always updates before its producer
  // within the same tick. Only min(phases, max level) buckets can be
  // non-empty, so allocation stays bounded by the netlist, not by `phases`.
  const auto& ops = program.ops();
  std::uint32_t max_level = 0;
  for (const auto& o : ops) {
    max_level = std::max(max_level, o.level);
  }
  const std::size_t num_buckets = std::min<std::uint64_t>(phases, max_level);
  std::vector<std::vector<std::uint32_t>> phase_ops(num_buckets);
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    if (ops[i].level == 0) {
      continue;  // unscheduled component: never fires (matches interpreter)
    }
    phase_ops[(ops[i].level - 1) % phases].push_back(i);
  }
  for (auto& list : phase_ops) {
    std::stable_sort(list.begin(), list.end(), [&](std::uint32_t a, std::uint32_t b) {
      return ops[a].level > ops[b].level;
    });
  }
  // A custom schedule may contain non-advancing edges; fall back to a full
  // pre-tick snapshot in that case to keep the semantics exact.
  const bool in_place = program.edges_advance();

  // Per-tick PO sampling schedule, resolved once: output p (driver level
  // lvl) samples wave w at tick w * phases + start with start = lvl - 1, so
  // only the outputs whose start is congruent to t modulo `phases` can
  // sample at tick t. Bucketing them by that residue turns the former
  // every-tick rescan of all POs into O(actual samples) work.
  struct po_sample {
    std::uint32_t po;
    std::uint64_t start;
    slot_ref ref;
  };
  // Like phase_ops above, allocation is bounded by the netlist, not by
  // `phases`: only residues up to the largest sampling start can be
  // occupied, so ticks beyond the bucket count simply sample nothing.
  std::uint64_t max_start = 0;
  for (std::uint32_t p = 0; p < program.num_pos(); ++p) {
    const std::uint32_t lvl = program.po_levels()[p];
    max_start = std::max<std::uint64_t>(max_start, lvl > 0 ? lvl - 1 : 0);
  }
  std::vector<std::vector<po_sample>> sample_buckets(
      static_cast<std::size_t>(std::min<std::uint64_t>(phases, max_start + 1)));
  for (std::uint32_t p = 0; p < program.num_pos(); ++p) {
    if (program.po_constant()[p]) {
      continue;
    }
    const std::uint32_t lvl = program.po_levels()[p];
    const std::uint64_t start = lvl > 0 ? lvl - 1 : 0;
    sample_buckets[start % phases].push_back({p, start, program.po_refs()[p]});
  }

  std::vector<std::uint8_t> value(program.slot_count(), 0);
  std::vector<std::uint8_t> snapshot;

  const auto read = [](const std::vector<std::uint8_t>& state, slot_ref ref) -> std::uint8_t {
    return state[ref >> 1] ^ static_cast<std::uint8_t>(ref & 1u);
  };
  const auto apply = [&](const tick_program::op& o, const std::vector<std::uint8_t>& state) {
    if (o.kind == tick_program::op_kind::majority) {
      const std::uint8_t a = read(state, o.a);
      const std::uint8_t b = read(state, o.b);
      const std::uint8_t c = read(state, o.c);
      value[o.target] = static_cast<std::uint8_t>((a & b) | (b & c) | (a & c));
    } else {
      value[o.target] = read(state, o.a);
    }
  };

  for (std::uint64_t t = 0; t <= last_tick; ++t) {
    // Present the input wave for this initiation slot (inputs hold their
    // value between injections).
    const std::uint64_t wave = t / phases;
    if (t % phases == 0 && wave < waves.size()) {
      for (std::size_t i = 0; i < program.num_pis(); ++i) {
        value[program.pi_slots()[i]] = static_cast<std::uint8_t>(waves[wave][i]);
      }
    }

    if (const std::size_t bucket = t % phases; bucket < num_buckets) {
      const auto& fired = phase_ops[bucket];
      if (in_place) {
        for (const std::uint32_t i : fired) {
          apply(ops[i], value);
        }
      } else {
        snapshot = value;
        for (const std::uint32_t i : fired) {
          apply(ops[i], snapshot);
        }
      }
    }

    // Sample every output whose driver just latched its wave: exactly the
    // bucket of this tick's residue (start ≡ t mod phases there, so
    // t >= start already implies t lands on a sampling tick).
    if (const std::size_t residue = t % phases; residue < sample_buckets.size()) {
      for (const auto& s : sample_buckets[residue]) {
        if (t < s.start) {
          continue;  // before the first wave can arrive
        }
        const std::uint64_t w = (t - s.start) / phases;
        if (w < waves.size()) {
          result.outputs[w][s.po] = read(value, s.ref) != 0;
        }
      }
    }
  }

  // Constant-driven outputs are the same for every wave.
  for (std::size_t p = 0; p < program.num_pos(); ++p) {
    if (!program.po_constant()[p]) {
      continue;
    }
    const bool v = (program.po_refs()[p] & 1u) != 0;
    for (auto& out : result.outputs) {
      out[p] = v;
    }
  }

  return result;
}

// --------------------------------------------------------- packed path ---

packed_wave_result run_waves_packed(const compiled_netlist& net, const wave_batch& waves,
                                    unsigned phases) {
  detail::validate_run(net, waves.num_pis(), waves.num_waves(), phases, "run_waves_packed");
  // The whole run is one inline member: the kernel steps through it in
  // max_block_chunks word-blocks with unit-stride PI/PO word I/O.
  auto result = detail::make_result(net, waves.num_waves());
  std::vector<std::uint64_t> scratch;
  detail::eval_block(net, detail::member_of(waves, result), 0, waves.num_chunks(), scratch);
  detail::assemble(result, net, phases);
  return result;
}

wave_stream::wave_stream(const compiled_netlist& net, unsigned phases)
    : net_{net}, phases_{phases}, pending_{net.num_pis()} {
  detail::validate_run(net, net.num_pis(), 0, phases, "wave_stream");
  pending_.reserve(block_waves);
}

void wave_stream::push(const std::vector<bool>& wave) {
  pending_.append(wave);  // validates the width
  ++pushed_;
  if (pending_.num_waves() == block_waves) {
    flush_pending();
  }
}

void wave_stream::ensure_capacity(std::size_t needed_chunks) {
  if (done_stride_ >= needed_chunks) {
    return;
  }
  // Geometric growth: re-striding copies every flushed chunk word, so
  // doubling keeps the total copy cost linear in the stream length.
  const std::size_t new_stride = std::max(needed_chunks, 2 * done_stride_);
  std::vector<std::uint64_t> grown(new_stride * net_.num_pos(), 0);
  if (flushed_chunks_ != 0) {
    for (std::size_t p = 0; p < net_.num_pos(); ++p) {
      std::memcpy(grown.data() + p * new_stride, done_words_.data() + p * done_stride_,
                  flushed_chunks_ * sizeof(std::uint64_t));
    }
  }
  done_words_.swap(grown);
  done_stride_ = new_stride;
}

void wave_stream::flush_pending() {
  // Evaluate straight into the full-width result planes at this block's
  // chunk offset. Flushes are chunk-aligned except possibly the last
  // (block_waves is a multiple of 64; a partial block only flushes at
  // finish), so every block owns a whole chunk range of each plane.
  const std::size_t chunks = pending_.num_chunks();
  ensure_capacity(flushed_chunks_ + chunks);
  const wave_block_view in = pending_.view();
  detail::eval_block(net_,
                     {in.planes, in.plane_stride,
                      detail::chunk_offset(done_words_.data(), flushed_chunks_), done_stride_,
                      chunks},
                     0, chunks, scratch_);
  flushed_chunks_ += chunks;
  completed_ += pending_.num_waves();
  pending_.clear();  // keeps the packed-word storage for the next block
}

packed_wave_result wave_stream::finish() {
  if (!pending_.empty()) {
    flush_pending();
  }
  packed_wave_result out;
  out.num_pos = net_.num_pos();
  out.num_waves = completed_;
  // Compact each plane down to the result stride (ascending planes: the
  // destination never overruns the source), then hand the buffer over.
  const std::size_t total_chunks = out.num_chunks();
  if (done_stride_ > total_chunks) {
    for (std::size_t p = 1; p < out.num_pos; ++p) {
      std::memmove(done_words_.data() + p * total_chunks, done_words_.data() + p * done_stride_,
                   total_chunks * sizeof(std::uint64_t));
    }
  }
  done_words_.resize(total_chunks * out.num_pos);
  out.words = std::move(done_words_);
  detail::assemble(out, net_, phases_);
  done_words_ = {};
  done_stride_ = 0;
  flushed_chunks_ = 0;
  pushed_ = 0;
  completed_ = 0;
  return out;
}

}  // namespace wavemig::engine
