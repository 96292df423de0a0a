// Shared pieces of the wavemig benchmark: clocks, order statistics, seeded
// input generation, the independent reference evaluator, the span tracer,
// and the result record every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "wavemig/engine/compiled_netlist.hpp"
#include "wavemig/mig.hpp"
#include "wavemig/pipeline.hpp"
#include "wavemig/tech_scenario.hpp"

namespace wavebench {

using bench_clock = std::chrono::steady_clock;

inline double ms_between(bench_clock::time_point a, bench_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        bench_clock::now().time_since_epoch())
                                        .count());
}

/// Quantile with linear interpolation between order statistics (q in [0, 1]).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Independent random stream `stream` of workload seed `seed`.
std::mt19937_64 make_rng(std::uint64_t seed, std::uint64_t stream);

/// Seeded isomorphic variant of `net` as `.mig` text: the gates appear in a
/// random topological order under random wire names, with shuffled fan-in
/// operands. PI and PO order are kept, so the text computes exactly the
/// function of `net` on the same input positions.
std::string shuffled_mig_text(const wavemig::mig_network& net, const std::string& model,
                              std::mt19937_64& rng);

/// Reference evaluator: walks the nodes of `net` on 64-bit words (constant,
/// PI, majority, and identity buffers / fan-out gates). It calls nothing in
/// wavemig::engine, so it checks the compiled programs independently.
/// Inputs and outputs are plane-major: signal s's chunk words at
/// `planes + s * stride`, ceil(num_waves / 64) chunks each. Output bits
/// above `num_waves` are cleared, as the engine clears them.
void reference_eval_planes(const wavemig::mig_network& net, const std::uint64_t* pi_planes,
                           std::size_t pi_stride, std::uint64_t* po_planes,
                           std::size_t po_stride, std::size_t num_waves);

/// Random plane-major input words for `num_waves` waves of `num_pis` PIs,
/// bits above `num_waves` in each plane's last chunk cleared.
std::vector<std::uint64_t> random_planes(std::size_t num_pis, std::size_t num_waves,
                                         std::mt19937_64& rng);

/// Host-speed reference: a fixed task in the benchmark's own code, shaped
/// like the front of the flow. It parses a fixed `.mig`-style text of 2,048
/// majority gates line by line, resolves operand names through a hash map
/// and computes every gate's level. It calls nothing in wavemig, so no
/// change to the program under test moves it; it slows with the host's
/// shared caches and memory as the flow does (on the 4-vCPU Xeon host the
/// benchmark was tuned on, the flow's pass time and this task's correlated
/// at 0.81, while a plain arithmetic loop did not follow the flow at all).
class host_reference {
public:
  /// Median wall time of one `run_ms` between flow units on that host: the
  /// speed to which the flow and waves workloads scale their times.
  static constexpr double nominal_ms = 1.1;

  host_reference();
  /// Runs the task once and returns its wall time in milliseconds. Throws
  /// if the task's result differs from that of its first run.
  double run_ms();

private:
  std::string text_;
  std::uint64_t checksum_{0};
};

/// One measured number of a run.
struct metric {
  double value{0.0};
  std::string unit;
};

/// What a workload reports: counts of attempted and failed operations
/// (exceptions, non-ok statuses, outputs that differ from the reference),
/// end-to-end metrics, per-layer metrics, and free-form report lines.
struct run_record {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, metric> end_to_end;
  std::map<std::string, metric> per_layer;
  std::vector<std::string> report;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void note(const std::string& line) { report.push_back(line); }
};

/// Options every workload receives from the command line.
struct run_options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  std::string trace_dir;
};

/// In-memory span recorder for the traced run. A span is a benchmark call
/// into one layer: name, start, end, parent span and request id. Spans are
/// only recorded while enabled; they are written out by `write` when the
/// run ends. Thread-safe (the serve workload records from several threads).
class tracer {
public:
  struct span {
    std::uint32_t name{0};
    std::int64_t parent{-1};
    std::uint64_t request{0};
    std::uint64_t start_ns{0};
    std::uint64_t end_ns{0};
  };

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records a finished span (nothing when disabled).
  void record(const std::string& name, std::int64_t parent, std::uint64_t request,
              std::uint64_t start_ns, std::uint64_t end_ns);
  /// Opens a span whose end is filled in by `close`.
  std::int64_t open(const std::string& name, std::int64_t parent, std::uint64_t request);
  void close(std::int64_t index);

  /// Self time of every span (duration minus the parts covered by its
  /// direct children), summed per span name, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Self time of every span with one of `names`, summed, in milliseconds.
  [[nodiscard]] double self_ms_sum(std::initializer_list<const char*> names) const;
  /// Inclusive time summed per span name, in milliseconds.
  [[nodiscard]] std::map<std::string, double> total_ms() const;
  /// Number of spans per name.
  [[nodiscard]] std::map<std::string, std::size_t> counts() const;

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

private:
  std::uint32_t intern(const std::string& name);

  bool enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<span> spans_;
};

/// RAII span on the calling thread. Inert when the tracer is disabled.
class scoped_span {
public:
  scoped_span(tracer& t, const std::string& name, std::int64_t parent = -1,
              std::uint64_t request = 0)
      : tracer_{t}, index_{t.enabled() ? t.open(name, parent, request) : -1} {}
  ~scoped_span() {
    if (index_ >= 0) {
      tracer_.close(index_);
    }
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  [[nodiscard]] std::int64_t index() const { return index_; }

private:
  tracer& tracer_;
  std::int64_t index_;
};

/// A netlist taken from `.mig` text to a compiled, wave-ready program.
struct text_program {
  wavemig::mig_network input;
  wavemig::pipeline_result pipelined;
  std::shared_ptr<const wavemig::engine::compiled_netlist> program;
};

/// io::read_mig, then wave_pipeline under `scenario`, then lowering with
/// `options`. With the tracer enabled each call into a layer is a span
/// under a root span named `root`.
text_program text_to_program(const std::string& text, const wavemig::tech_scenario& scenario,
                             const wavemig::engine::compile_options& options, tracer& tr,
                             const std::string& root, std::uint64_t request);

/// wave_pipeline's passes called one by one, each under its own span
/// (traced runs only, outside any timed unit): mig.levels,
/// core.restrict_fanout, core.loss_budget, core.insert_buffers. Mirrors the
/// composition in src/core/pipeline.cpp; the pipeline's own result supplies
/// the pass counts.
void trace_pipeline_passes(const wavemig::mig_network& input,
                           const wavemig::tech_scenario& scenario, tracer& tr,
                           std::uint64_t request);

/// Workload entry points (flow.cpp, waves.cpp, serve.cpp).
void run_flow(const run_options& opts, run_record& out);
void run_waves(const run_options& opts, run_record& out);
void run_serve(const run_options& opts, run_record& out);

/// Environment record (env.cpp): nproc, effective parallelism from a
/// 1/2/4-thread spin probe, AVX2 dispatch, build type, fault injection
/// build state, and compiler.
std::vector<std::string> environment_record();

}  // namespace wavebench
