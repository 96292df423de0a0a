#!/usr/bin/env python3
"""wavemig benchmark: builds the benchmark binary from the checkout's
sources and runs one workload, or runs a workload N times to show how
steady its end-to-end metrics are.

Run from the root of a checkout:

    python3 wavebench/run.py --workload flow --seed 1 --seconds 35 --trace 0
    python3 wavebench/run.py --steady 10 --workload serve --seconds 35

The last line of a run's standard output is one JSON object with the keys
correct, attempted, failed and metrics: every end-to-end metric with
--trace 0, every per-layer metric with --trace 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "wavebench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Seeds: claims are made on the default seed and must also hold on the
# held-out seed, which is not used while a change is written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

WORKLOADS = """\
workloads (each runs in its own process; the program under test receives
only generated inputs: .mig netlist text, bool waves and plane words):
  flow   12 fixed suite circuits (sasc, hamming, adder64, barrel64, max32x4,
         revx, tv80, fsm_ctrl, mul16, mac16, systemcdes, des_area), each as
         seeded .mig text (random gate order, wire names, fan-in order).
         One timed unit = one (circuit, scenario) pair, SWD and FDM-SWD:
         io::read_mig -> wave_pipeline -> compiled_netlist (serving default
         options). The paper's flow and the serving cache-miss path; no wave
         work. Each fresh program then runs 4096 seeded check waves.
  waves  the single-threaded bool API: wave_batch::from_waves ->
         run_waves_packed -> unpack on adder64 (I/O-heavy), des_area and
         diffeq1 (compiled at opt_level 2 during set-up), requests of 64 to
         65,536 waves (4x ladder, seeded 0-1.6% shorter), seeded bits.
  serve  loopback wire_server over a serving_session (one worker, one
         dispatcher), one generator connection with seeded Poisson arrivals
         at 200 requests/s after 2 s of unmeasured warm-up traffic;
         plane-major payloads name adder64, tv80 or des_area by fingerprint,
         30 sizes per program log-spaced from 256 to 32,768 waves (the
         smallest coalesce), dealt evenly; 1 in 128 requests is cold and
         inlines a fresh netlist on a short-lived second connection.
         Latency is timed from when each request was due, or from when it
         was sent if the generator overslept its own timer.
  The fixed circuit sets, the 4x/log-spaced size ladders and the evenly
  dealt shapes keep the offered work alike across seeds; a seeded circuit
  draw moved flow's gates_per_s by 20-36% between seeds."""

METRICS = """\
end-to-end metrics (untraced run; every workload prints all of them):
  setup_s      s        median of repeated set-ups, host-scaled: flow = a
                        warm-up pass; waves = read + pipeline + compile of
                        its circuits; serve = server start, registration,
                        first compile of each program
  peak_rss_mb  MiB      peak resident set of the workload's process
  gates_per_s  gates/s  input majority gates from .mig text to a compiled,
                        wave-ready program per second (flow: the timed
                        passes; waves: its set-up flow, one circuit timed
                        per round across the run; both host-scaled; serve:
                        the
                        server's cache-miss path, read_mig +
                        batch_session::compile, timed in process after each
                        cold request)
  ta_gain      ratio    geometric mean of Table II's T/A gain
                        (compare_metrics) over the workload's programs
  waves_per_s  waves/s  waves per second: waves = bool in to bool out;
                        flow = the fresh programs' check runs (both
                        host-scaled);
                        serve = waves delivered at the fixed open-loop rate,
                        i.e. the offered load, which drops only if the
                        server falls behind (serve has no gated throughput)
  p50_ms       ms       median over the workload's request shapes (flow:
                        circuit x scenario; waves: circuit x size; both
                        host-scaled; serve: program x size) of each shape's
                        median latency
  p90_ms       ms       the 90th percentile over the same shapes of each
                        shape's median: the typical latency of the largest
                        shapes, not a tail. serve has no gated tail metric:
                        the median over shapes of each shape's p90 spread
                        by 0.57 over five seeds, and the all-request p90 and
                        p99 swung 2x between runs with wake-up tails of idle
                        virtual CPUs; they are diagnostics (serve.p90_all_ms,
                        serve.p99_ms)
  Host-scaled: a time divided by the host factor of its flow pass, waves
  round or set-up: the wall time of a fixed task in the benchmark's own
  code (parse a 2,048-gate .mig-style text, resolve names, compute levels;
  it calls nothing in wavemig) run after each unit, request, circuit or
  serve set-up, over its nominal 1.1 ms. Unscaled flow times of two 10-run
  sets half an hour apart differed by 35%; scaling halved the run-to-run
  spread of flow's and waves' times and cut serve's set-up spread from 0.32
  to 0.11. Each run's report prints its host factors. serve's latencies
  are not scaled: at its light load they are wake-up and queueing delays,
  not compute the reference tracks.
  Failures (exceptions, non-ok wire statuses, outputs that differ from the
  benchmark's own reference evaluator) are the JSON's failed/attempted,
  printed as error_rate.

per-layer metrics (traced run; unscaled; a layer a workload does not use
reads 0), with the end-to-end metric each should move. flow measures io,
core, mig, engine.compile, and the kernel and ingest of its check runs;
waves measures io, core, mig and engine.compile on its set-up, then
ingest, kernel and extract; serve measures io and engine.cache.miss_ms on
fresh netlists, the kernel and ingest on its request shapes, and serving,
cache and net on the wire and in-process phases.
  io.read_mig.ms, .mb_per_s                         gates_per_s
  core.wave_pipeline.ms, core.restrict_fanout.ms,
    core.loss_budget.ms, core.insert_buffers.ms     gates_per_s (flow)
  core.restrict_fanout.fogs, core.loss_budget.repeaters,
    core.insert_buffers.buffers                     ta_gain (flow)
  mig.levels.ms                                     gates_per_s (flow)
  engine.compile.ms, .ops_out, .slots               gates_per_s, setup_s
  engine.ingest/extract.ns_per_wave, .share         waves_per_s (waves)
  engine.kernel.ns_per_wave, .op_words_per_s,
    .bytes_moved (32 B per op-word)                 waves_per_s, p50_ms
  engine.serving.queue_wait_p50_ms/_p90_ms,
    .inproc_p50_ms/_p90_ms, .coalesced_share,
    .fused_passes                                   p50_ms, p90_ms (serve)
  engine.cache.hit_ratio, engine.cache.miss_ms      p90_ms, gates_per_s (serve)
  net.overhead_p50_ms, net.send_us, net.refused     p50_ms (serve)
  serve.p90_all_ms, serve.p99_ms (+ serve.p99_n), serve.max_rps,
    serve.gen_late_ms, trace.overhead, reconcile.gap/.tolerance,
    error_rate                                      diagnostics
The traced run also checks that per-layer self times add up to the
workload's untraced end-to-end time (flow: read + pipeline + compile
against an untraced pass; waves: ingest + kernel + extract against an
untraced round; serve: in-process + net overhead against the untraced
p50) within the printed tolerance; a miss counts as a failure."""


def fail(message):
    print("wavebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at the checkout root; the library sources are missing")
    configured = os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    jobs = str(min(4, os.cpu_count() or 1))
    if not configured:
        cmd = ["cmake", "-S", os.path.join(ROOT, "wavebench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "wavebench"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def conform(result, spec, trace):
    """Checks the binary's metrics against BENCHMARK.json: end_to_end with
    --trace 0, per_layer with --trace 1. A name outside the list or with
    another unit is a benchmark bug; a missing end-to-end metric too. A
    per-layer metric of a layer the workload does not use reads 0."""
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if listed.get(name) != m["unit"]:
            fail("metric %s (%s) is not listed in BENCHMARK.json" % (name, m["unit"]))
    for name, unit in listed.items():
        if name not in metrics:
            if not trace:
                fail("end-to-end metric %s missing" % name)
            metrics[name] = {"value": 0.0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in listed}
    return result


def run_once(workload, seed, seconds, trace, spec, echo=True):
    """Runs the binary; returns the checked result object."""
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--trace-dir", trace_dir]
    try:
        # A run measures for `seconds`; the traced serve run, the longest,
        # adds about 15 s of set-up, probes and rate ladder.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=3 * seconds + 60)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % workload)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("workload %s exited with %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("workload %s printed no result" % workload)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result")
    if echo:
        for line in lines[:-1]:
            print(line)
    return conform(result, spec, trace)


def steady(args, spec):
    """Runs one workload N times on consecutive seeds and prints each
    end-to-end metric's median, quartiles and spread against its bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for k in range(args.steady):
        seed = args.seed + k
        result = run_once(args.workload, seed, args.seconds, False, spec, echo=False)
        if not result["correct"]:
            fail("seed %d: incorrect result (%d/%d failed)" %
                 (seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in sorted(result["metrics"].items()))),
            flush=True)
    print("%-12s %12s %12s %12s %8s %8s %s" %
          ("metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    for name in sorted(values):
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "TOO NOISY")
        print("%-12s %12.6g %12.6g %12.6g %8.4f %8s %s" %
              (name, q1, med, q3, spread, "-" if bound is None else "%.2f" % bound, verdict))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, epilog=WORKLOADS + "\n\n" + METRICS +
        "\n\nseeds: default %d, held-out %d" % (DEFAULT_SEED, HELD_OUT_SEED),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["flow", "waves", "serve"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run N times on seeds seed..seed+N-1 and print each "
                             "end-to-end metric's quartiles and spread against its bound")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.steady == 1 or args.steady < 0:
        parser.error("--steady needs at least 2 runs for quartiles")
    spec = load_spec()
    build()
    if args.steady:
        steady(args, spec)
        return
    result = run_once(args.workload, args.seed, args.seconds, args.trace == 1, spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
