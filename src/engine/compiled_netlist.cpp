#include "wavemig/engine/compiled_netlist.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "packed_kernel.hpp"

// Prefetch is a pure hint; compile it out where the builtin is unavailable.
#if defined(__GNUC__) || defined(__clang__)
#define WAVEMIG_PREFETCH(addr, rw) __builtin_prefetch((addr), (rw))
#else
#define WAVEMIG_PREFETCH(addr, rw) ((void)0)
#endif

namespace wavemig::engine {

namespace {

/// The kernel at every width, under the caller's ISA.
[[gnu::always_inline]] inline void eval_ops_any_width(const compiled_netlist::maj_op* ops,
                                                      std::size_t num_ops, std::uint64_t* slots,
                                                      std::size_t width) {
  switch (width) {
    case 8: return detail::eval_ops<8>(ops, num_ops, slots);
    case 7: return detail::eval_ops<7>(ops, num_ops, slots);
    case 6: return detail::eval_ops<6>(ops, num_ops, slots);
    case 5: return detail::eval_ops<5>(ops, num_ops, slots);
    case 4: return detail::eval_ops<4>(ops, num_ops, slots);
    case 3: return detail::eval_ops<3>(ops, num_ops, slots);
    case 2: return detail::eval_ops<2>(ops, num_ops, slots);
    default: return detail::eval_ops<1>(ops, num_ops, slots);
  }
}

// The instances: explicit target attributes, picked once per process by
// `supported_kernels`. Not `target_clones`: an ifunc-resolved variant of
// the same kernel measured about 2.7% slower on every layer of wavebench's
// `flow` workload, kernel or not (cause not established).
#if defined(WAVEMIG_HAVE_X86_KERNELS)
[[gnu::target("avx512f")]] void eval_ops_avx512f(const compiled_netlist::maj_op* ops,
                                                 std::size_t num_ops, std::uint64_t* slots,
                                                 std::size_t width) {
  eval_ops_any_width(ops, num_ops, slots, width);
}

[[gnu::target("avx512f")]] void transpose_avx512f(std::uint64_t* tile) {
  detail::transpose64_rows8(tile);
}

[[gnu::target("avx2")]] void eval_ops_avx2(const compiled_netlist::maj_op* ops,
                                           std::size_t num_ops, std::uint64_t* slots,
                                           std::size_t width) {
  eval_ops_any_width(ops, num_ops, slots, width);
}
#endif

void eval_ops_baseline(const compiled_netlist::maj_op* ops, std::size_t num_ops,
                       std::uint64_t* slots, std::size_t width) {
  eval_ops_any_width(ops, num_ops, slots, width);
}

}  // namespace

std::span<const detail::kernel_instance> detail::supported_kernels() {
  static const auto supported = [] {
    std::array<kernel_instance, 3> list{};
    std::size_t n = 0;
#if defined(WAVEMIG_HAVE_X86_KERNELS)
    if (__builtin_cpu_supports("avx512f") != 0) {
      list[n++] = {"avx512f", eval_ops_avx512f, transpose_avx512f};
    }
    if (__builtin_cpu_supports("avx2") != 0) {
      // Split into two ymm registers per vector, transpose64_rows8 spills
      // and runs slower than the scalar transpose.
      list[n++] = {"avx2", eval_ops_avx2, detail::transpose64};
    }
#endif
    list[n++] = {"baseline", eval_ops_baseline, detail::transpose64};
    return std::pair{list, n};
  }();
  return std::span{supported.first}.first(supported.second);
}

compiled_netlist::compiled_netlist(const mig_network& net, compile_options options) {
  options_ = options;
  lower(net, net.levels(), net.depth());
  optimize();
}

compiled_netlist::compiled_netlist(const mig_network& net, const level_map& schedule,
                                   compile_options options) {
  if (schedule.level.size() != net.num_nodes()) {
    throw std::invalid_argument{"compiled_netlist: schedule does not match the network"};
  }
  options_ = options;
  lower(net, schedule.level, schedule.depth);
  optimize();
}

compiled_netlist::compiled_netlist(const mig_network& net, const balance_plan& plan,
                                   compile_options options) {
  if (plan.schedule.level.size() != net.num_nodes() || plan.po_levels.size() != net.num_pos()) {
    throw std::invalid_argument{"compiled_netlist: balance plan does not match the network"};
  }
  options_ = options;
  lower(net, {}, 0);
  depth_ = plan.depth;
  po_levels_ = plan.po_levels;
  min_edge_span_ = plan.min_edge_span;
  max_edge_span_ = plan.max_edge_span;
  optimize();
}

compiled_netlist compiled_netlist::comb_only(const mig_network& net, compile_options options) {
  compiled_netlist compiled;
  compiled.options_ = options;
  compiled.lower(net, {}, 0);
  compiled.optimize();
  return compiled;
}

void compiled_netlist::lower(const mig_network& net, std::span<const std::uint32_t> schedule,
                             std::uint32_t depth) {
  num_pis_ = static_cast<std::uint32_t>(net.num_pis());
  num_pos_ = static_cast<std::uint32_t>(net.num_pos());
  depth_ = depth;

  // Combinational program: fold buffers/fan-out gates by reference
  // forwarding, so the hot loop touches majority gates only. `comb_ref[n]`
  // is the resolved slot reference of node n's regular (non-complemented)
  // output.
  std::vector<slot_ref> comb_ref(net.num_nodes(), 0);
  comb_slot_count_ = 1 + num_pis_;  // slot 0 = constant, then the PIs
  comb_ops_.clear();
  comb_ops_.reserve(net.num_majorities());

  min_edge_span_ = std::numeric_limits<std::uint32_t>::max();
  max_edge_span_ = 0;
  bool any_edge = false;

  const auto resolve = [&](signal s) -> slot_ref {
    return comb_ref[s.index()] ^ static_cast<slot_ref>(s.is_complemented());
  };
  const auto note_edge = [&](node_index consumer, signal fanin) {
    if (schedule.empty() || net.is_constant(fanin.index())) {
      return;  // no clock, or a constant fan-in, which carries no data wave
    }
    any_edge = true;
    const std::uint32_t consumer_level = schedule[consumer];
    const std::uint32_t producer_level = schedule[fanin.index()];
    const std::uint32_t span =
        consumer_level > producer_level ? consumer_level - producer_level : 0;
    min_edge_span_ = std::min(min_edge_span_, span);
    max_edge_span_ = std::max(max_edge_span_, span);
  };

  net.foreach_node([&](node_index n) {
    switch (net.kind(n)) {
      case node_kind::constant:
        comb_ref[n] = 0;  // slot 0, regular edge
        break;
      case node_kind::primary_input:
        comb_ref[n] = (1 + static_cast<std::uint32_t>(net.pi_position(n))) << 1u;
        break;
      case node_kind::majority: {
        const auto fis = net.fanins(n);
        const std::uint32_t slot = comb_slot_count_++;
        slot_ref a = resolve(fis[0]);
        slot_ref b = resolve(fis[1]);
        slot_ref c = resolve(fis[2]);
        // The kernel's one-mask form; a flip rides on the output reference.
        const slot_ref out_complement = detail::flip_to_one_complement(a, b, c);
        detail::complemented_first(a, b, c);
        comb_ops_.push_back({slot, a, b, c});
        comb_ref[n] = (slot << 1u) | out_complement;
        note_edge(n, fis[0]);
        note_edge(n, fis[1]);
        note_edge(n, fis[2]);
        break;
      }
      case node_kind::buffer:
      case node_kind::fanout: {
        const signal in = net.fanins(n)[0];
        comb_ref[n] = resolve(in);
        note_edge(n, in);
        break;
      }
    }
  });

  if (schedule.empty()) {
    min_edge_span_ = 0;  // no schedule: never wave-coherent
    max_edge_span_ = 0;
  } else if (!any_edge) {
    min_edge_span_ = 1;  // vacuous coherence (constant / PI-only networks)
    max_edge_span_ = 1;
  }

  comb_po_refs_.assign(num_pos_, 0);
  po_levels_.assign(num_pos_, 0);
  po_constant_.assign(num_pos_, false);
  for (std::size_t p = 0; p < num_pos_; ++p) {
    const signal driver = net.po_signal(p);
    comb_po_refs_[p] = resolve(driver);
    po_levels_[p] = schedule.empty() ? 0 : schedule[driver.index()];
    po_constant_[p] = net.is_constant(driver.index());
  }
  assert(detail::one_complement_each(comb_ops_));
}

std::size_t compiled_netlist::memory_bytes() const {
  const auto vec_bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return sizeof(*this) + vec_bytes(comb_ops_) + vec_bytes(comb_po_refs_) +
         vec_bytes(po_levels_) + (po_constant_.capacity() + 7) / 8;
}

void compiled_netlist::eval_words_into(const std::uint64_t* pi_words, std::uint64_t* po_words,
                                       std::vector<std::uint64_t>& slots) const {
  slots.resize(comb_slot_count_);
  slots[0] = 0;
  std::copy(pi_words, pi_words + num_pis_, slots.begin() + 1);
  detail::eval_ops<1>(comb_ops_.data(), comb_ops_.size(), slots.data());
  for (std::size_t p = 0; p < num_pos_; ++p) {
    const slot_ref ref = comb_po_refs_[p];
    po_words[p] = slots[ref >> 1] ^ complement_mask(ref);
  }
}

void compiled_netlist::eval_planes_block(const std::uint64_t* pi_planes, std::size_t pi_stride,
                                         std::uint64_t* po_planes, std::size_t po_stride,
                                         std::size_t num_chunks,
                                         std::vector<std::uint64_t>& slots) const {
  static const auto run_kernel = detail::supported_kernels().front().eval;

  // Slot-major W-word blocks: slot k occupies s[k*w .. k*w + w). The blocks
  // start on a 64-byte boundary wherever the allocator put the scratch (7
  // spare words cover any 8-byte-aligned base), so no 8-word slot straddles
  // a cache line.
  constexpr std::size_t line_words = 64 / sizeof(std::uint64_t);
  slots.resize(comb_slot_count_ * std::min(max_block_chunks, num_chunks) + line_words - 1);
  const std::size_t pad =
      (0 - reinterpret_cast<std::uintptr_t>(slots.data()) / sizeof(std::uint64_t)) % line_words;
  std::uint64_t* s = slots.data() + pad;

  for (std::size_t done = 0; done < num_chunks;) {
    const std::size_t w = std::min(max_block_chunks, num_chunks - done);
    std::fill(s, s + w, 0);  // constant slot
    const bool more = done + w < num_chunks;
    for (std::size_t i = 0; i < num_pis_; ++i) {
      const std::uint64_t* src = pi_planes + i * pi_stride + done;
      // Each plane contributes one cache line per block, a full plane
      // stride apart from its neighbors — too many streams for hardware
      // prefetchers to track, so the next block's line is requested here,
      // with a whole kernel pass of latency to hide behind.
      if (more) {
        WAVEMIG_PREFETCH(src + w, 0);
      }
      // Plane-major input: the block's W words of PI i are already adjacent.
      // A plain loop, not memcpy — the runtime-sized call would cost more
      // than the 64-byte copy itself, per PI per block.
      std::uint64_t* dst = s + (1 + i) * w;
      for (std::size_t j = 0; j < w; ++j) {
        dst[j] = src[j];
      }
    }

    run_kernel(comb_ops_.data(), comb_ops_.size(), s, w);

    for (std::size_t p = 0; p < num_pos_; ++p) {
      const slot_ref ref = comb_po_refs_[p];
      const std::uint64_t* out_slot = s + static_cast<std::size_t>(ref >> 1) * w;
      const std::uint64_t mask = complement_mask(ref);
      std::uint64_t* dst = po_planes + p * po_stride + done;
      if (more) {
        WAVEMIG_PREFETCH(dst + w, 1);
      }
      for (std::size_t j = 0; j < w; ++j) {
        dst[j] = out_slot[j] ^ mask;  // unit stride, no scatter
      }
    }
    done += w;
  }
}

std::vector<std::uint64_t> compiled_netlist::eval_words(
    const std::vector<std::uint64_t>& pi_words) const {
  if (pi_words.size() != num_pis_) {
    throw std::invalid_argument{"compiled_netlist: one word per primary input required"};
  }
  std::vector<std::uint64_t> po_words(num_pos_);
  std::vector<std::uint64_t> slots;
  eval_words_into(pi_words.data(), po_words.data(), slots);
  return po_words;
}

}  // namespace wavemig::engine
