#include "packed_run.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace wavemig::engine::detail {

namespace {

/// Chunks per shard block for `num_chunks` chunks across `num_workers`
/// workers: full kernel width (`max_block_chunks`) on big runs so dispatch
/// amortizes, shrinking toward one chunk per block when the run cannot
/// feed every worker at full width (at least two blocks per worker where
/// possible — parallelism beats kernel width then).
std::size_t shard_block_chunks(std::size_t num_chunks, std::size_t num_workers) {
  const std::size_t block = num_chunks / (2 * std::max<std::size_t>(num_workers, 1));
  return std::clamp<std::size_t>(block, 1, compiled_netlist::max_block_chunks);
}

}  // namespace

void validate_run(const compiled_netlist& net, std::size_t batch_pis, std::size_t num_waves,
                  unsigned phases, const char* who) {
  if (phases == 0) {
    throw std::invalid_argument{std::string{who} + ": at least one clock phase required"};
  }
  if (batch_pis != net.num_pis()) {
    throw std::invalid_argument{std::string{who} +
                                ": each wave needs one value per primary input"};
  }
  if (!net.wave_coherent(phases)) {
    throw std::invalid_argument{
        std::string{who} + ": netlist is not wave-coherent under " + std::to_string(phases) +
        " phases (edge spans " + std::to_string(net.min_edge_span()) + ".." +
        std::to_string(net.max_edge_span()) +
        " must lie in [1, phases]); balance it with insert_buffers or use the "
        "cycle-accurate run_waves"};
  }
  const std::size_t chunks = num_waves / 64 + (num_waves % 64 != 0 ? 1 : 0);
  if (net.num_pos() != 0 && chunks > std::vector<std::uint64_t>{}.max_size() / net.num_pos()) {
    throw std::invalid_argument{std::string{who} + ": " + std::to_string(num_waves) +
                                " waves of " + std::to_string(net.num_pos()) +
                                " outputs exceed the largest result"};
  }
}

packed_wave_result make_result(const compiled_netlist& net, std::size_t num_waves) {
  packed_wave_result result;
  result.num_pos = net.num_pos();
  result.num_waves = num_waves;
  result.words.resize(result.num_chunks() * result.num_pos);
  return result;
}

void eval_block(const compiled_netlist& net, const packed_member& member, std::size_t first,
                std::size_t count, std::vector<std::uint64_t>& scratch) {
  net.eval_planes_block(chunk_offset(member.pis, first), member.pi_stride,
                        chunk_offset(member.pos, first), member.po_stride, count, scratch);
}

void launch_sharded(const compiled_netlist& net, std::vector<packed_member> members,
                    parallel_executor& executor, group_callback done) {
  std::size_t total = 0;
  for (const packed_member& m : members) {
    total += m.num_chunks;
  }
  const std::size_t block = shard_block_chunks(total, executor.num_threads());
  struct shard {
    std::size_t member, first, count;
  };
  std::vector<shard> shards;
  shards.reserve((total + block - 1) / block + members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    for (std::size_t first = 0; first < members[m].num_chunks; first += block) {
      shards.push_back({m, first, std::min(block, members[m].num_chunks - first)});
    }
  }
  const std::size_t num_shards = shards.size();
  executor.submit_group(
      num_shards,
      [&net, &executor, members = std::move(members), shards = std::move(shards)](
          std::size_t s, unsigned worker) {
        const shard& k = shards[s];
        eval_block(net, members[k.member], k.first, k.count, executor.scratch(worker));
      },
      std::move(done));
}

void assemble(packed_wave_result& result, const compiled_netlist& net, unsigned phases) {
  fill_clock_metrics(result, net, net.options().fdm_lanes, phases, result.num_waves);
  const std::size_t tail = result.num_waves % 64;
  if (tail == 0 || result.words.empty()) {
    return;
  }
  const std::uint64_t mask = (std::uint64_t{1} << tail) - 1;
  const std::size_t chunks = result.num_chunks();
  for (std::size_t p = 0; p < result.num_pos; ++p) {
    result.words[p * chunks + chunks - 1] &= mask;
  }
}

}  // namespace wavemig::engine::detail
