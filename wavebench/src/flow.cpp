// flow workload: the paper's enablement flow on suite netlists given as
// `.mig` text. One timed unit is one (circuit, scenario) pair: read_mig,
// wave_pipeline, then lowering with the serving session's default compile
// options. This is also the serving cache-miss path; it does no wave work,
// so a change to ingest, extract or the kernel predicts no change here.
// Each freshly compiled program then runs its seeded check waves once
// (timed apart, as waves_per_s) and is checked against the reference.
// Every gated time is scaled by the host reference (common.hpp) run after
// each unit in the same pass.

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common.hpp"
#include "wavemig/engine/wave_engine.hpp"
#include "wavemig/gen/suite.hpp"
#include "wavemig/metrics.hpp"

namespace wavebench {

namespace {

using namespace wavemig;

/// Fixed circuit set: four of the paper's Table II circuits (sasc,
/// hamming, revx, des_area) plus one or two per remaining suite family,
/// 458 to 5.8k gates and at most 58k components once pipelined. The
/// largest suite circuits (mul32, diffeq1, rand_mid; mul64 and rand_large
/// take 0.4 s or more per flow) are left out: their flows moved up to twice
/// as much as the small ones between runs as the host's speed drifted.
/// Simulated from measured per-circuit costs, a seeded draw of 12 of the
/// suite's circuits spread gates_per_s by 20-36% (quartile distance over
/// ten seeds), so the seed varies each netlist instead (gate order, wire
/// names, fan-in order).
const std::vector<std::string> circuits{"sasc",  "hamming", "adder64",    "barrel64",
                                        "max32x4", "revx",  "tv80",       "fsm_ctrl",
                                        "mul16", "mac16",   "systemcdes", "des_area"};
constexpr std::size_t check_waves = 4096;
constexpr unsigned phases = 3;
constexpr int setup_repeats = 5;
/// Largest reconciliation gap accepted; see the reconciliation below.
constexpr double reconcile_tolerance = 0.03;

struct unit {
  std::string circuit;
  tech_scenario scenario;
  const mig_network* source{nullptr};
  const std::string* text{nullptr};
  const std::vector<std::uint64_t>* check_in{nullptr};
  const std::vector<std::uint64_t>* check_out{nullptr};
  std::size_t gates{0};
  double ta_gain{0.0};
  // Counts of the unit's first flow; later flows must reproduce them.
  std::size_t components{0};
  std::size_t fogs{0};
  std::size_t repeaters{0};
  std::size_t buffers{0};
  std::size_t ops_out{0};
  std::size_t slots{0};
  std::vector<double> flow_ms;
  std::vector<double> run_ms;
  std::vector<double> traced_flow_ms;
};

engine::compile_options serving_compile_options(const tech_scenario& scenario) {
  // The serving session's default compile options, tagged with the
  // scenario exactly as batch_session tags scenario programs.
  engine::compile_options opts;
  opts.scenario_fingerprint = scenario.fingerprint();
  opts.fdm_lanes = scenario.fdm_lanes;
  return opts;
}

/// First use of a fresh program: its seeded check waves through the packed
/// engine, compared with the reference outputs. Returns false on mismatch.
bool check_unit(const unit& u, const text_program& out, tracer& tr, std::uint64_t request,
                double& run_ms) {
  if (!out.pipelined.wave_ready || !out.program->wave_coherent(phases)) {
    return false;
  }
  std::vector<std::uint64_t> planes = *u.check_in;
  const auto t0 = bench_clock::now();
  engine::packed_wave_result result;
  {
    scoped_span root{tr, "flow.check", -1, request};
    engine::wave_batch batch{0};
    {
      scoped_span s{tr, "engine.ingest", root.index(), request};
      batch = engine::wave_batch::from_plane_words(std::move(planes), u.source->num_pis(),
                                                   check_waves);
    }
    scoped_span s{tr, "engine.kernel", root.index(), request};
    result = engine::run_waves_packed(*out.program, batch, phases);
  }
  run_ms = ms_between(t0, bench_clock::now());
  return result.words.size() == u.check_out->size() &&
         std::memcmp(result.words.data(), u.check_out->data(),
                     result.words.size() * sizeof(std::uint64_t)) == 0;
}

}  // namespace

void run_flow(const run_options& opts, run_record& out) {
  // ---- inputs (the benchmark's own generation; not part of set-up) ----
  std::vector<mig_network> sources;
  std::vector<std::string> texts;
  std::vector<std::vector<std::uint64_t>> check_in;
  std::vector<std::vector<std::uint64_t>> check_out;
  sources.reserve(circuits.size());
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    sources.push_back(gen::build_benchmark(circuits[c]));
    auto rng = make_rng(opts.seed, 100 + c);
    texts.push_back(shuffled_mig_text(sources.back(), circuits[c], rng));
    check_in.push_back(random_planes(sources.back().num_pis(), check_waves, rng));
    const std::size_t chunks = check_waves / 64;
    check_out.emplace_back(sources.back().num_pos() * chunks);
    reference_eval_planes(sources.back(), check_in.back().data(), chunks,
                          check_out.back().data(), chunks, check_waves);
  }
  std::vector<unit> units;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    for (const auto& scenario : {tech_scenario::swd(), tech_scenario::fdm_swd()}) {
      unit u;
      u.circuit = circuits[c];
      u.scenario = scenario;
      u.source = &sources[c];
      u.text = &texts[c];
      u.check_in = &check_in[c];
      u.check_out = &check_out[c];
      u.gates = sources[c].num_majorities();
      units.push_back(std::move(u));
    }
  }

  tracer tr;
  host_reference reference;
  std::uint64_t request = 0;
  /// One attempt of a unit; its flow and check-run times, NaN on failure.
  struct timing {
    double flow_ms{std::nan("")};
    double run_ms{std::nan("")};
  };
  const auto attempt = [&](unit& u, bool traced) {
    ++out.attempted;
    ++request;
    tr.enable(traced);
    timing t;
    try {
      const auto t0 = bench_clock::now();
      const text_program result = text_to_program(
          *u.text, u.scenario, serving_compile_options(u.scenario), tr, "flow.unit", request);
      const double flow_ms = ms_between(t0, bench_clock::now());
      const std::size_t components = result.pipelined.net.num_components();
      if (u.components == 0) {
        u.components = components;
        u.fogs = result.pipelined.fogs_added;
        u.repeaters = result.pipelined.repeater_buffers_added;
        u.buffers = result.pipelined.balance_buffers_added;
        u.ops_out = result.program->num_comb_ops();
        u.slots = result.program->comb_slot_count();
        u.ta_gain = compare_metrics(result.input, result.pipelined.net, u.scenario.tech).ta_gain;
      }
      double run_ms = 0.0;
      const bool ok = check_unit(u, result, tr, request, run_ms) && components == u.components;
      if (traced) {
        trace_pipeline_passes(result.input, u.scenario, tr, request);
      }
      tr.enable(false);
      if (ok) {
        t = {flow_ms, run_ms};
      } else {
        ++out.failed;
      }
    } catch (const std::exception& e) {
      tr.enable(false);
      ++out.failed;
      out.note(std::string{"flow: "} + u.circuit + "/" + u.scenario.name + ": " + e.what());
    }
    return t;
  };
  /// One pass over every unit, always in the same order (a shuffled order
  /// moved peak_rss_mb by 8% between runs), each unit followed by one run
  /// of the host reference. Returns the pass's host factor: how much slower
  /// than nominal the reference ran during the pass.
  std::vector<timing> pass_timings(units.size());
  const auto pass = [&](bool traced) {
    double reference_ms = 0.0;
    for (std::size_t k = 0; k < units.size(); ++k) {
      pass_timings[k] = attempt(units[k], traced);
      reference_ms += reference.run_ms();
    }
    return reference_ms / (static_cast<double>(units.size()) * host_reference::nominal_ms);
  };

  // ---- set-up: warm-up passes; the median host-scaled pass is setup_s ----
  std::vector<double> setup_s;
  for (int r = 0; r < setup_repeats; ++r) {
    const double host = pass(false);
    double pass_ms = 0.0;
    for (const auto& t : pass_timings) {
      pass_ms += std::isnan(t.flow_ms) ? 0.0 : t.flow_ms;
    }
    setup_s.push_back(pass_ms / host / 1e3);
  }

  // ---- timed passes. Every time is divided by its pass's host factor, so
  // it reads as on the host at nominal speed: two 10-run sets of unscaled
  // pass times taken half an hour apart had medians 35% apart. The traced
  // run alternates traced and untraced passes so host noise hits both
  // alike. ----
  const auto start = bench_clock::now();
  std::size_t passes = 0;
  std::vector<double> host_factors;
  // Host-scaled pass times: end-to-end of the untraced passes, the
  // layers' self times of the traced ones (for the reconciliation).
  std::vector<double> untraced_pass_ms;
  std::vector<double> traced_layers_ms;
  double layers_before = 0.0;
  while (passes < 3 || ms_between(start, bench_clock::now()) < opts.seconds * 1e3) {
    const bool traced = opts.trace && passes % 2 == 1;
    const double host = pass(traced);
    host_factors.push_back(host);
    double pass_ms = 0.0;
    for (std::size_t k = 0; k < units.size(); ++k) {
      const timing& t = pass_timings[k];
      if (std::isnan(t.flow_ms)) {
        continue;
      }
      pass_ms += t.flow_ms;
      (traced ? units[k].traced_flow_ms : units[k].flow_ms).push_back(t.flow_ms / host);
      if (!traced) {
        units[k].run_ms.push_back(t.run_ms / host);
      }
    }
    if (traced) {
      const double layers = tr.self_ms_sum({"io.read_mig", "core.wave_pipeline", "engine.compile"});
      traced_layers_ms.push_back((layers - layers_before) / host);
      layers_before = layers;
    } else {
      untraced_pass_ms.push_back(pass_ms / host);
    }
    ++passes;
  }

  // ---- end-to-end metrics, from host-scaled times ----
  double gates = 0.0;
  double flow_ms = 0.0;
  double traced_ms = 0.0;
  double waves = 0.0;
  double run_ms = 0.0;
  double log_ta = 0.0;
  std::vector<double> unit_ms;
  for (const auto& u : units) {
    const double m = median(u.flow_ms);
    unit_ms.push_back(m);
    gates += static_cast<double>(u.gates);
    flow_ms += m;
    traced_ms += median(u.traced_flow_ms);
    waves += static_cast<double>(check_waves);
    run_ms += median(u.run_ms);
    log_ta += std::log(u.ta_gain);
  }
  out.e2e("setup_s", median(setup_s), "s");
  out.e2e("gates_per_s", gates / (flow_ms / 1e3), "gates/s");
  out.e2e("ta_gain", std::exp(log_ta / static_cast<double>(units.size())), "ratio");
  out.e2e("waves_per_s", waves / (run_ms / 1e3), "waves/s");
  out.e2e("p50_ms", quantile(unit_ms, 0.5), "ms");
  out.e2e("p90_ms", quantile(unit_ms, 0.9), "ms");
  out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  char line[512];
  std::snprintf(line, sizeof line,
                "flow.units %zu passes %zu pass_ms %.3f (host-scaled) host_factor p10 %.3f "
                "median %.3f p90 %.3f (reference %.4f ms per run at the median)",
                units.size(), passes, flow_ms, quantile(host_factors, 0.1),
                median(host_factors), quantile(host_factors, 0.9),
                median(host_factors) * host_reference::nominal_ms);
  out.note(line);
  if (!opts.trace) {
    return;
  }

  // ---- per-layer metrics from the traced passes (unscaled) ----
  const double traced_passes = static_cast<double>(passes / 2);
  const auto self = tr.self_ms();
  const auto total = tr.total_ms();
  const auto per_pass = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / traced_passes;
  };
  const auto total_per_pass = [&](const std::string& name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second / traced_passes;
  };
  std::size_t text_bytes = 0;
  for (const auto& u : units) {
    text_bytes += u.text->size();
  }
  const double read_ms = per_pass("io.read_mig");
  const double pipe_ms = total_per_pass("core.wave_pipeline");
  const double compile_ms = per_pass("engine.compile");
  out.layer("io.read_mig.ms", read_ms, "ms");
  out.layer("io.read_mig.mb_per_s", static_cast<double>(text_bytes) / 1e6 / (read_ms / 1e3),
            "MB/s");
  out.layer("core.wave_pipeline.ms", pipe_ms, "ms");
  out.layer("core.restrict_fanout.ms", per_pass("core.restrict_fanout"), "ms");
  out.layer("core.loss_budget.ms", per_pass("core.loss_budget"), "ms");
  out.layer("core.insert_buffers.ms", per_pass("core.insert_buffers"), "ms");
  out.layer("mig.levels.ms", per_pass("mig.levels"), "ms");
  out.layer("engine.compile.ms", compile_ms, "ms");

  // Counts of one pass, from the pipeline's and the compiler's own results.
  double fogs = 0.0;
  double repeaters = 0.0;
  double buffers = 0.0;
  double ops_out = 0.0;
  double slots = 0.0;
  for (const auto& u : units) {
    fogs += static_cast<double>(u.fogs);
    repeaters += static_cast<double>(u.repeaters);
    buffers += static_cast<double>(u.buffers);
    ops_out += static_cast<double>(u.ops_out);
    slots += static_cast<double>(u.slots);
  }
  const double op_words = ops_out * static_cast<double>(check_waves / 64);
  out.layer("core.restrict_fanout.fogs", fogs, "count");
  out.layer("core.loss_budget.repeaters", repeaters, "count");
  out.layer("core.insert_buffers.buffers", buffers, "count");
  out.layer("engine.compile.ops_out", ops_out, "count");
  out.layer("engine.compile.slots", slots, "count");

  const double kernel_ms = per_pass("engine.kernel");
  const double ingest_ms = per_pass("engine.ingest");
  const double check_ms = total_per_pass("flow.check");
  out.layer("engine.kernel.ns_per_wave", kernel_ms * 1e6 / waves, "ns");
  out.layer("engine.kernel.op_words_per_s", op_words / (kernel_ms / 1e3), "1/s");
  out.layer("engine.kernel.bytes_moved", op_words * 32.0, "B");
  out.layer("engine.ingest.ns_per_wave", ingest_ms * 1e6 / waves, "ns");
  out.layer("engine.ingest.share", ingest_ms / check_ms, "ratio");

  // Reconciliation: the layers' self times in a traced pass must add up to
  // the untraced end-to-end time of a pass. Both are host-scaled medians
  // over their passes, which alternate. The gap holds the tracing overhead
  // and the noise between the two sets of passes; read and pipeline are
  // 27% and 70% of a pass, compile 3%.
  const double untraced_ms = median(untraced_pass_ms);
  const double layers = median(traced_layers_ms);
  const double gap = std::abs(untraced_ms - layers) / untraced_ms;
  std::snprintf(line, sizeof line,
                "reconcile flow: read %.3f + pipeline %.3f + compile %.3f ms per traced pass; "
                "host-scaled medians %.3f ms vs untraced pass %.3f ms: gap %.4f, tolerance %.2f, "
                "%s",
                read_ms, pipe_ms, compile_ms, layers, untraced_ms, gap, reconcile_tolerance,
                gap <= reconcile_tolerance ? "PASS" : "FAIL");
  out.note(line);
  out.layer("reconcile.gap", gap, "ratio");
  out.layer("reconcile.tolerance", reconcile_tolerance, "ratio");
  if (gap > reconcile_tolerance) {
    ++out.failed;
  }
  out.layer("trace.overhead", traced_ms / flow_ms - 1.0, "ratio");
  if (!opts.trace_dir.empty()) {
    tr.write(opts.trace_dir + "/flow-seed" + std::to_string(opts.seed) + ".jsonl");
  }
}

}  // namespace wavebench
