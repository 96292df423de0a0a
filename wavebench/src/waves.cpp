// waves workload: the single-threaded bool API a user simulating a
// wave-pipelined circuit calls. Each request goes through
// wave_batch::from_waves (ingest), run_waves_packed (kernel) and unpack
// (extract). adder64 is I/O-heavy (192 ops for 128 PIs and 65 POs);
// des_area and diffeq1 keep a kernel change visible once I/O is fixed.
// flow and serve never ingest bool waves or extract them. Every gated
// time is scaled by the host reference (common.hpp) run after each request
// and flow sample of the same round.

#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/metrics.hpp"

namespace wavebench {

namespace {

using namespace wavemig;

const std::vector<std::string> circuits{"adder64", "des_area", "diffeq1"};
/// Request sizes: 64 to 65,536 waves in steps of 4x, each shortened by a
/// seeded 0-1.6% so most requests end in a partial chunk. The fixed ladder
/// keeps every seed's request mix alike, so the latency quantiles compare
/// across seeds.
const std::vector<std::size_t> ladder{64, 256, 1024, 4096, 16384, 65536};
constexpr unsigned phases = 3;
constexpr int setup_repeats = 7;
constexpr std::size_t checked_chunks = 2;
/// Largest reconciliation gap accepted; see the reconciliation below.
constexpr double reconcile_tolerance = 0.05;

text_program prepare(const std::string& text, tracer& tr, std::uint64_t request) {
  engine::compile_options opts;
  opts.opt_level = 2;
  return text_to_program(text, tech_scenario::swd(), opts, tr, "waves.setup", request);
}

struct request_slot {
  std::size_t circuit{0};
  std::size_t waves{0};
  std::vector<std::vector<bool>> inputs;
  std::vector<std::uint64_t> expected;  ///< reference PO planes, stride = chunks
  std::vector<double> ms;
  std::vector<double> traced_ms;
};

}  // namespace

void run_waves(const run_options& opts, run_record& out) {
  // ---- inputs (the benchmark's own generation; not part of set-up) ----
  std::vector<mig_network> sources;
  std::vector<std::string> texts;
  std::vector<request_slot> slots;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    sources.push_back(gen::build_benchmark(circuits[c]));
    const mig_network& net = sources.back();
    auto rng = make_rng(opts.seed, 200 + c);
    texts.push_back(shuffled_mig_text(net, circuits[c], rng));
    for (const std::size_t size : ladder) {
      request_slot slot;
      slot.circuit = c;
      slot.waves = size - std::uniform_int_distribution<std::size_t>{0, size / 64 - 1}(rng);
      const std::size_t chunks = (slot.waves + 63) / 64;
      const auto planes = random_planes(net.num_pis(), slot.waves, rng);
      slot.inputs.assign(slot.waves, std::vector<bool>(net.num_pis()));
      for (std::size_t i = 0; i < net.num_pis(); ++i) {
        for (std::size_t w = 0; w < slot.waves; ++w) {
          slot.inputs[w][i] = ((planes[i * chunks + w / 64] >> (w % 64)) & 1u) != 0;
        }
      }
      slot.expected.resize(net.num_pos() * chunks);
      reference_eval_planes(net, planes.data(), chunks, slot.expected.data(), chunks, slot.waves);
      slots.push_back(std::move(slot));
    }
  }

  tracer tr;
  std::uint64_t request = 0;

  // ---- set-up: read + pipeline + compile each circuit, repeated; the
  // median repetition, host-scaled as in the flow workload (each circuit
  // is followed by one run of the host reference), is setup_s. The traced
  // run traces the last one. ----
  host_reference reference;
  std::vector<text_program> programs;
  std::vector<double> setup_s;
  for (int r = 0; r < setup_repeats; ++r) {
    tr.enable(opts.trace && r + 1 == setup_repeats);
    programs.clear();
    double setup_ms = 0.0;
    double reference_ms = 0.0;
    for (const auto& text : texts) {
      ++out.attempted;
      const auto t0 = bench_clock::now();
      programs.push_back(prepare(text, tr, ++request));
      setup_ms += ms_between(t0, bench_clock::now());
      reference_ms += reference.run_ms();
    }
    const double host =
        reference_ms / (static_cast<double>(texts.size()) * host_reference::nominal_ms);
    setup_s.push_back(setup_ms / host / 1e3);
    if (tr.enabled()) {
      for (const auto& p : programs) {
        trace_pipeline_passes(p.input, tech_scenario::swd(), tr, request);
      }
    }
    tr.enable(false);
  }
  for (const auto& p : programs) {
    if (!p.pipelined.wave_ready || !p.program->wave_coherent(phases)) {
      ++out.failed;
      out.note("waves: a prepared program is not wave-coherent");
    }
  }

  const auto sample_rng_seed = make_rng(opts.seed, 2)();
  std::mt19937_64 sample_rng{sample_rng_seed};
  const auto attempt = [&](request_slot& slot, bool traced) {
    double result_ms = std::nan("");
    ++out.attempted;
    ++request;
    tr.enable(traced);
    const auto& program = *programs[slot.circuit].program;
    try {
      const auto t0 = bench_clock::now();
      std::vector<std::vector<bool>> outputs;
      {
        scoped_span root{tr, "waves.request", -1, request};
        engine::wave_batch batch{0};
        {
          scoped_span s{tr, "engine.ingest", root.index(), request};
          batch = engine::wave_batch::from_waves(slot.inputs, program.num_pis());
        }
        engine::packed_wave_result result;
        {
          scoped_span s{tr, "engine.kernel", root.index(), request};
          result = engine::run_waves_packed(program, batch, phases);
        }
        scoped_span s{tr, "engine.extract", root.index(), request};
        outputs = result.unpack();
      }
      const double ms = ms_between(t0, bench_clock::now());
      tr.enable(false);
      // Sampled check: the last chunk plus random ones, every output.
      const std::size_t chunks = (slot.waves + 63) / 64;
      bool ok = outputs.size() == slot.waves;
      for (std::size_t k = 0; ok && k < checked_chunks + 1; ++k) {
        const std::size_t c =
            k == 0 ? chunks - 1 : std::uniform_int_distribution<std::size_t>{0, chunks - 1}(sample_rng);
        for (std::size_t w = c * 64; ok && w < std::min(slot.waves, c * 64 + 64); ++w) {
          ok = outputs[w].size() == program.num_pos();
          for (std::size_t p = 0; ok && p < program.num_pos(); ++p) {
            ok = outputs[w][p] == (((slot.expected[p * chunks + c] >> (w % 64)) & 1u) != 0);
          }
        }
      }
      if (ok) {
        result_ms = ms;
      } else {
        ++out.failed;
      }
    } catch (const std::exception& e) {
      tr.enable(false);
      ++out.failed;
      out.note(std::string{"waves: "} + e.what());
    }
    return result_ms;
  };

  // ---- timed rounds over every request, always in the same order ----
  // Each round also times one circuit's set-up flow, round-robin, for
  // gates_per_s: sampled across the whole run it follows the same host
  // state as the requests (timed only at the start of a run, it swung with
  // the host waking up). Every request and the flow sample are followed by
  // one run of the host reference, and every time of the round is divided
  // by the round's host factor. The traced run alternates traced and
  // untraced rounds so host noise hits both alike.
  std::vector<std::vector<double>> flow_ms(texts.size());
  std::vector<double> round_ms(slots.size());
  std::vector<double> host_factors;
  // Host-scaled round times: end-to-end of the untraced rounds, the
  // layers' self times of the traced ones (for the reconciliation).
  std::vector<double> untraced_round_ms;
  std::vector<double> traced_layers_ms;
  double layers_before = 0.0;
  const auto start = bench_clock::now();
  std::size_t rounds = 0;
  while (rounds < 3 || ms_between(start, bench_clock::now()) < opts.seconds * 1e3) {
    const bool traced = opts.trace && rounds % 2 == 1;
    double reference_ms = 0.0;
    for (std::size_t k = 0; k < slots.size(); ++k) {
      round_ms[k] = attempt(slots[k], traced);
      reference_ms += reference.run_ms();
    }
    const std::size_t c = rounds % texts.size();
    ++out.attempted;
    const auto t0 = bench_clock::now();
    (void)prepare(texts[c], tr, 0);
    const double prepare_ms = ms_between(t0, bench_clock::now());
    reference_ms += reference.run_ms();
    const double host = reference_ms / (static_cast<double>(slots.size() + 1) *
                                        host_reference::nominal_ms);
    host_factors.push_back(host);
    flow_ms[c].push_back(prepare_ms / host);
    double sum_ms = 0.0;
    for (std::size_t k = 0; k < slots.size(); ++k) {
      if (std::isnan(round_ms[k])) {
        continue;
      }
      sum_ms += round_ms[k];
      (traced ? slots[k].traced_ms : slots[k].ms).push_back(round_ms[k] / host);
    }
    if (traced) {
      const double layers = tr.self_ms_sum({"engine.ingest", "engine.kernel", "engine.extract"});
      traced_layers_ms.push_back((layers - layers_before) / host);
      layers_before = layers;
    } else {
      untraced_round_ms.push_back(sum_ms / host);
    }
    ++rounds;
  }

  // ---- end-to-end metrics ----
  double waves = 0.0;
  double total_ms = 0.0;
  double traced_ms = 0.0;
  std::vector<double> request_ms;
  for (const auto& slot : slots) {
    const double m = median(slot.ms);
    request_ms.push_back(m);
    waves += static_cast<double>(slot.waves);
    total_ms += m;
    traced_ms += median(slot.traced_ms);
  }
  double gates = 0.0;
  double set_up_ms = 0.0;
  double log_ta = 0.0;
  for (std::size_t c = 0; c < texts.size(); ++c) {
    const text_program& p = programs[c];
    gates += static_cast<double>(p.input.num_majorities());
    set_up_ms += median(flow_ms[c]);
    log_ta += std::log(
        compare_metrics(p.input, p.pipelined.net, tech_scenario::swd().tech).ta_gain);
  }
  const double setup = median(setup_s);
  out.e2e("setup_s", setup, "s");
  out.e2e("gates_per_s", gates / (set_up_ms / 1e3), "gates/s");
  out.e2e("ta_gain", std::exp(log_ta / static_cast<double>(programs.size())), "ratio");
  out.e2e("waves_per_s", waves / (total_ms / 1e3), "waves/s");
  out.e2e("p50_ms", quantile(request_ms, 0.5), "ms");
  out.e2e("p90_ms", quantile(request_ms, 0.9), "ms");
  out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  char line[512];
  std::snprintf(line, sizeof line,
                "waves.requests %zu rounds %zu round_ms %.3f (host-scaled) host_factor p10 %.3f "
                "median %.3f p90 %.3f",
                slots.size(), rounds, total_ms, quantile(host_factors, 0.1),
                median(host_factors), quantile(host_factors, 0.9));
  out.note(line);
  if (!opts.trace) {
    return;
  }

  // ---- per-layer metrics: set-up layers from the traced set-up, request
  // layers per traced round ----
  const auto self = tr.self_ms();
  const auto total = tr.total_ms();
  const auto get = [](const std::map<std::string, double>& m, const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  std::size_t text_bytes = 0;
  for (const auto& text : texts) {
    text_bytes += text.size();
  }
  const double read_ms = get(self, "io.read_mig");
  out.layer("io.read_mig.ms", read_ms, "ms");
  out.layer("io.read_mig.mb_per_s", static_cast<double>(text_bytes) / 1e6 / (read_ms / 1e3),
            "MB/s");
  out.layer("core.wave_pipeline.ms", get(total, "core.wave_pipeline"), "ms");
  out.layer("core.restrict_fanout.ms", get(self, "core.restrict_fanout"), "ms");
  out.layer("core.loss_budget.ms", get(self, "core.loss_budget"), "ms");
  out.layer("core.insert_buffers.ms", get(self, "core.insert_buffers"), "ms");
  out.layer("mig.levels.ms", get(self, "mig.levels"), "ms");
  out.layer("engine.compile.ms", get(self, "engine.compile"), "ms");
  double fogs = 0.0;
  double repeaters = 0.0;
  double buffers = 0.0;
  double ops_out = 0.0;
  double comb_slots = 0.0;
  for (const auto& p : programs) {
    fogs += static_cast<double>(p.pipelined.fogs_added);
    repeaters += static_cast<double>(p.pipelined.repeater_buffers_added);
    buffers += static_cast<double>(p.pipelined.balance_buffers_added);
    ops_out += static_cast<double>(p.program->num_comb_ops());
    comb_slots += static_cast<double>(p.program->comb_slot_count());
  }
  out.layer("core.restrict_fanout.fogs", fogs, "count");
  out.layer("core.loss_budget.repeaters", repeaters, "count");
  out.layer("core.insert_buffers.buffers", buffers, "count");
  out.layer("engine.compile.ops_out", ops_out, "count");
  out.layer("engine.compile.slots", comb_slots, "count");

  const double traced_rounds = static_cast<double>(rounds / 2);
  const double round_waves = waves;
  double round_op_words = 0.0;
  for (const auto& slot : slots) {
    round_op_words += static_cast<double>(programs[slot.circuit].program->num_comb_ops() *
                                          ((slot.waves + 63) / 64));
  }
  const double ingest_ms = get(self, "engine.ingest") / traced_rounds;
  const double kernel_ms = get(self, "engine.kernel") / traced_rounds;
  const double extract_ms = get(self, "engine.extract") / traced_rounds;
  const double request_total = get(total, "waves.request") / traced_rounds;
  out.layer("engine.ingest.ns_per_wave", ingest_ms * 1e6 / round_waves, "ns");
  out.layer("engine.ingest.share", ingest_ms / request_total, "ratio");
  out.layer("engine.extract.ns_per_wave", extract_ms * 1e6 / round_waves, "ns");
  out.layer("engine.extract.share", extract_ms / request_total, "ratio");
  out.layer("engine.kernel.ns_per_wave", kernel_ms * 1e6 / round_waves, "ns");
  out.layer("engine.kernel.op_words_per_s", round_op_words / (kernel_ms / 1e3), "1/s");
  out.layer("engine.kernel.bytes_moved", round_op_words * 32.0, "B");

  // Reconciliation: the layers' self times in a traced round must add up
  // to the untraced end-to-end time of a round. Both are host-scaled
  // medians over their rounds, which alternate. The gap holds the tracing
  // overhead and the noise between the two sets of rounds; ingest and
  // extract are about 42% and 51% of a round, the kernel 7%.
  const double untraced_ms = median(untraced_round_ms);
  const double layers = median(traced_layers_ms);
  const double gap = std::abs(untraced_ms - layers) / untraced_ms;
  out.layer("reconcile.gap", gap, "ratio");
  out.layer("reconcile.tolerance", reconcile_tolerance, "ratio");
  std::snprintf(line, sizeof line,
                "reconcile waves: ingest %.3f + kernel %.3f + extract %.3f ms per traced round; "
                "host-scaled medians %.3f ms vs untraced round %.3f ms: gap %.4f, tolerance "
                "%.2f, %s",
                ingest_ms, kernel_ms, extract_ms, layers, untraced_ms, gap, reconcile_tolerance,
                gap <= reconcile_tolerance ? "PASS" : "FAIL");
  out.note(line);
  if (gap > reconcile_tolerance) {
    ++out.failed;
  }
  out.layer("trace.overhead", traced_ms / total_ms - 1.0, "ratio");
  if (!opts.trace_dir.empty()) {
    tr.write(opts.trace_dir + "/waves-seed" + std::to_string(opts.seed) + ".jsonl");
  }
}

}  // namespace wavebench
