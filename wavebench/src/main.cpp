// wavemig benchmark: runs one workload (flow, waves or serve) for a
// fixed measuring time and prints an environment record, a human-readable
// report, and, as the last line, one JSON object with the outcome counts
// and the metrics the workload recorded: end-to-end (untraced run) or
// per-layer (traced run). wavebench/run.py builds this binary, checks the
// metrics against BENCHMARK.json and documents them.

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: wavebench --workload flow|waves|serve --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n(see wavebench/run.py --help)\n");
}

void print_metrics(const std::map<std::string, wavebench::metric>& metrics) {
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  wavebench::run_options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::string{argv[++i]} == "1";
    } else if (arg == "--trace-dir" && has_value) {
      opts.trace_dir = argv[++i];
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || opts.seconds <= 0.0) {
    usage();
    return 2;
  }

  for (const auto& line : wavebench::environment_record()) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
  std::fflush(stdout);

  wavebench::run_record record;
  try {
    if (opts.workload == "flow") {
      wavebench::run_flow(opts, record);
    } else if (opts.workload == "waves") {
      wavebench::run_waves(opts, record);
    } else if (opts.workload == "serve") {
      wavebench::run_serve(opts, record);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wavebench: %s\n", e.what());
    return 1;
  }

  for (const auto& line : record.report) {
    std::printf("%s\n", line.c_str());
  }
  const double error_rate = record.attempted == 0
                                ? 1.0
                                : static_cast<double>(record.failed) /
                                      static_cast<double>(record.attempted);
  std::printf("error_rate %.6g failed/attempted (%llu/%llu)\n", error_rate,
              static_cast<unsigned long long>(record.failed),
              static_cast<unsigned long long>(record.attempted));
  record.layer("error_rate", error_rate, "failed/attempted");
  // run.py checks the names and units against BENCHMARK.json.
  const auto& shown = opts.trace ? record.per_layer : record.end_to_end;
  for (const auto& [name, m] : shown) {
    std::printf("%s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }

  for (const auto& [name, m] : shown) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "wavebench: metric %s is not finite\n", name.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              record.failed == 0 && record.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(record.attempted),
              static_cast<unsigned long long>(record.failed));
  print_metrics(shown);
  std::printf("}}\n");
  return 0;
}
