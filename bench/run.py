#!/usr/bin/env python3
"""stiffid benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload cli-roundtrip --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` beside this
directory.  One run is one fresh process: a single client in a closed
loop, running ops back to back for ``--seconds`` after an untimed,
checked warm-up op.  numpy's BLAS is pinned to ``BLAS_THREADS`` threads.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics from the traced ones (see ``tracer.py``); the
untraced ops give the tracing overhead.

Every op's output is checked.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print each metric with its unit, the
environment, the noise-free gate and the digests.  The full record,
with per-op samples, is written to ``--results`` (default
``bench/out/results``).  Exit code 0 when every check passed, 1 when
one failed, 2 when the benchmark cannot run at all.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from reference import REFERENCE_MS, ReferenceKernel, speed_factor  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import NOISE_FREE_ZERO_LIMIT, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Interpreter spawns per run whose median is setup_s.  They are spread
# evenly over the timed loop, between ops, so that they sample the same
# machine-speed phases as the ops do.
IMPORT_SPAWNS = 15
MAX_REPORTED_FAILURES = 5
# A traced op's root span opens just before the op's start time is read
# and closes just after its end time is read, so it must cover the
# measured op wall time and exceed it only by a few clock calls (about
# 10 us).  The limit applies to the run's median gap, so that one op
# preempted between two clock calls does not fail the run.
ROOT_SPAN_SLACK_S = 0.5e-3


def clock() -> float:
    return time.perf_counter()


def quantile(values, q: int) -> float:
    """q-th percentile, by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def import_spawn(kernel) -> tuple[float, float, dict, dict]:
    """Seconds from spawning an interpreter to `import stiffid.cli`
    returning: (scaled, wall, kernel parts before, kernel parts after)."""
    code = ("import time, stiffid.cli; "
            "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    before = kernel.parts()
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    wall = (int(done.stdout.strip()) - start) / 1e9
    after = kernel.parts()
    return wall * speed_factor([before, after]), wall, before, after


def environment(workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
            return int(out)
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes_shared": getconf("LEVEL3_CACHE_SIZE"),
        "machine": platform.machine(),
    }
    if workload.name == "fit-large":
        n = workload.nodes_per_op // 6
        env["fit_large_arrays"] = {
            "nodes_per_field": n,
            "bytes_per_n3_array": n * 3 * 8,
            "input_bytes_per_op": workload.nodes_per_op * 48,
            "input_bytes_per_node": 48,
            "note": "computed bytes, not a bandwidth measurement: each array "
                    "is far below 4x the last-level cache",
        }
    return env


def per_layer_metrics(summary: dict, errors, traced_ops: int, overhead: float) -> dict:
    totals = summary["totals"]

    def total(name, k):
        return totals.get(name, [0] * 6)[k]

    def calls(name):
        return total(name, 0) / traced_ops

    def self_ms(name):
        return total(name, 1) / 1e6 / traced_ops

    def rate(name, k, scale):
        seconds = total(name, 1) / 1e9
        return total(name, k) / seconds / scale if seconds > 0 else 0.0

    def share(name, numerator, denominator):
        d = total(name, denominator)
        return total(name, numerator) / d if d else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for fn in ("read_field_csv", "write_field_csv"):
        span = "field." + fn
        put(span + ".calls", calls(span), "count")
        put(span + ".self_ms", self_ms(span), "ms")
        put(span + ".rows_per_s", rate(span, 3, 1.0), "rows/s")
    put("field.center_field.self_ms", self_ms("field.center_field"), "ms")
    put("field.select_sensor.self_ms", self_ms("field.select_sensor"), "ms")
    selected = total("field.select_sensor", 2)
    put("field.select_sensor.kept_frac",
        1.0 - total("field.select_sensor", 4) / selected if selected else 0.0, "ratio")
    put("field.DisplacementField.calls", calls("field.DisplacementField"), "count")
    put("field.DisplacementField.self_ms", self_ms("field.DisplacementField"), "ms")

    for fn in ("main", "cmd_identify", "cmd_simulate", "cmd_benchmark", "load_manifest"):
        put(f"cli.{fn}.self_ms", self_ms("cli." + fn), "ms")

    put("estimation.estimate_lin.calls", calls("estimation.estimate_lin"), "count")
    put("estimation.estimate_lin.self_ms", self_ms("estimation.estimate_lin"), "ms")
    put("estimation.estimate_lin.mnodes_per_s",
        rate("estimation.estimate_lin", 2, 1e6), "Mnodes/s")
    put("estimation.Deflection.self_ms", self_ms("estimation.Deflection"), "ms")
    put("estimation.FitResult.self_ms", self_ms("estimation.FitResult"), "ms")
    experiments = total("pipeline.run_identification", 5)
    fits = total("estimation.estimate_lin", 0) + total("estimation.estimate_svd", 0)
    put("estimation.fits_per_experiment", fits / experiments if experiments else 0.0,
        "ratio")

    put("stats.estimate_sigma.self_ms", self_ms("stats.estimate_sigma"), "ms")
    put("stats.filter_outliers.self_ms", self_ms("stats.filter_outliers"), "ms")
    put("stats.filter_outliers.removed_frac",
        share("stats.filter_outliers", 4, 2), "ratio")
    put("stats.deflection_covariance.self_ms", self_ms("stats.deflection_covariance"), "ms")
    put("stats.significance_test.self_ms", self_ms("stats.significance_test"), "ms")

    for fn in ("assemble_canonical", "symmetrize", "save_compliance_json",
               "Wrench", "ComplianceMatrix"):
        put(f"compliance.{fn}.self_ms", self_ms("compliance." + fn), "ms")
    put("compliance.assemble_overdetermined.calls",
        calls("compliance.assemble_overdetermined"), "count")

    put("pipeline.run_identification.calls", calls("pipeline.run_identification"), "count")
    put("pipeline.run_identification.self_ms",
        self_ms("pipeline.run_identification"), "ms")

    for fn in ("run_zero_detection_study", "beam_load_cases", "beam_tip_field",
               "generate_pattern", "apply_rigid_transform"):
        put(f"synthetic.{fn}.self_ms", self_ms("synthetic." + fn), "ms")

    for module in ("field", "cli", "estimation", "stats", "compliance",
                   "pipeline", "synthetic"):
        put(module + ".errors", errors[module], "count")

    unattributed = summary["op_unattributed_ns"].values()
    put("trace.overhead_frac", overhead, "ratio")
    put("trace.unattributed_ms", sum(unattributed) / 1e6 / traced_ops, "ms")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=HERE / "out" / "results",
                        help="directory for the run record and span file")
    args = parser.parse_args(argv)

    if not (SRC / "stiffid" / "__init__.py").is_file():
        print(f"bench: no stiffid package under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import stiffid
    import stiffid.cli

    if Path(stiffid.__file__).resolve().parent != (SRC / "stiffid").resolve():
        print(f"bench: stiffid imported from {stiffid.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = HERE / "out" / "work" / f"{args.workload}.{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    args.results.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, stiffid, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, sf, workload_cls, work: Path) -> int:
    traced = bool(args.trace)
    kernel = ReferenceKernel(workload_cls.reference_parts)
    record = {"workload": workload_cls.name, "seed": args.seed,
              "seconds": args.seconds, "trace": int(traced),
              "reference_ms": REFERENCE_MS}
    imports = []
    workload = workload_cls(sf, args.seed, work)
    record["environment"] = environment(workload)

    failures = []   # failed ops and failed run-level checks

    def fail(i, reason):
        failures.append({"op": i, "reason": reason})
        if len(failures) <= MAX_REPORTED_FAILURES:
            print(f"bench: {i}: {reason}", file=sys.stderr)

    t0 = clock()
    gate = workload.setup()
    record["bench_setup_s"] = clock() - t0
    gate_ok = gate["noise_free_max_zero"] <= NOISE_FREE_ZERO_LIMIT
    record["noise_free_gate"] = dict(gate, limit=NOISE_FREE_ZERO_LIMIT, passed=gate_ok)
    if not gate_ok:
        fail("setup", f"noise-free structural zero {gate['noise_free_max_zero']:.3e} "
                      f"above {NOISE_FREE_ZERO_LIMIT:g}")

    tracer = Tracer()
    kernel_s = []    # reference kernel parts before op i (and after the last op)
    done = []        # (op, traced, wall s, phases) of timed ops that passed
    root_gaps = []   # root span minus measured wall, s, per traced op
    accuracy = []
    i = 0
    deadline = None
    while deadline is None or clock() < deadline:
        trace_op = traced and i % 2 == 0 and i > 0
        try:
            workload.prepare(i)
            kernel_s.append(kernel.parts())
            if trace_op:
                tracer.install()
                tracer.begin_op(i)
            try:
                start = clock()
                phases = workload.run(clock)
                wall = clock() - start
            finally:
                if trace_op:
                    root = tracer.end_op() / 1e9
                    tracer.uninstall()
            reason, acc = workload.check(i)
            if trace_op:
                root_gaps.append(root - wall)
                if reason is None and root < wall:
                    reason = (f"root span {root * 1e3:.4f} ms shorter than the "
                              f"measured op wall {wall * 1e3:.4f} ms")
        except Exception:
            reason, acc = "exception: " + traceback.format_exc(limit=3), {}
        if len(kernel_s) == i:
            kernel_s.append(kernel.parts())
        if reason is not None:
            fail(i, reason)
        elif i == 0:
            record["digests"] = workload.digests()
        else:
            done.append((i, trace_op, wall, phases))
            accuracy.append(acc)
        if i == 0:
            next_spawn = clock()
            deadline = next_spawn + args.seconds
        if not traced and len(imports) < IMPORT_SPAWNS and clock() >= next_spawn:
            spawn_start = clock()
            imports.append(import_spawn(kernel))
            deadline += clock() - spawn_start
            next_spawn += args.seconds / IMPORT_SPAWNS
        i += 1
    kernel_s.append(kernel.parts())
    attempted = i
    while not traced and len(imports) < IMPORT_SPAWNS:
        imports.append(import_spawn(kernel))

    def scaled(op, seconds):
        return seconds * speed_factor(kernel_s[op:op + 2])

    op_s = {False: [], True: []}     # scaled op seconds, untraced / traced
    phase_s = {p: [] for p in workload.phases}
    for op, trace_op, wall, phases in done:
        op_s[trace_op].append(scaled(op, wall))
        for p in workload.phases:
            phase_s[p].append(scaled(op, phases[p]))
    plain = op_s[False]
    failed = sum(isinstance(f["op"], int) for f in failures)
    record["ops"] = {"attempted": attempted, "failed": failed,
                     "untraced": len(plain), "traced": len(op_s[True])}
    record["failures"] = failures
    record["samples_s"] = {"op_wall": [d[2] for d in done],
                           "traced": [d[1] for d in done],
                           "reference_kernel": kernel_s,
                           "op_scaled": [scaled(d[0], d[2]) for d in done]}
    metrics = {}
    if not plain:
        fail("run", "no op completed")
    elif traced:
        summary = tracer.summarize()
        if not op_s[True]:
            fail("trace", "no traced op passed")
        elif statistics.median(root_gaps) > ROOT_SPAN_SLACK_S:
            fail("trace", f"median root span - measured op wall "
                          f"{statistics.median(root_gaps) * 1e3:.4f} ms above "
                          f"{ROOT_SPAN_SLACK_S * 1e3:g} ms")
        else:
            overhead = statistics.median(op_s[True]) / statistics.median(plain) - 1.0
            metrics = per_layer_metrics(summary, tracer.errors, len(op_s[True]),
                                        overhead)
            record["root_span_check"] = {
                "ops_checked": len(root_gaps),
                "min_gap_ms": min(root_gaps) * 1e3,
                "median_gap_ms": statistics.median(root_gaps) * 1e3,
                "max_gap_ms": max(root_gaps) * 1e3,
                "rule": "per traced op, root span >= measured op wall; "
                        "median of root span - measured op wall "
                        f"<= {ROOT_SPAN_SLACK_S * 1e3:g} ms"}
        tracer.write(args.results / f"spans.{workload.name}.csv.gz")
    else:
        def put(name, value, unit):
            metrics[name] = {"value": value, "unit": unit}

        put("setup_s", statistics.median(s[0] for s in imports), "s")
        put("op_p50_ms", statistics.median(plain) * 1e3, "ms")
        put("op_p90_ms", quantile(plain, 90) * 1e3, "ms")
        put("mnodes_per_s", workload.nodes_per_op * len(plain) / sum(plain) / 1e6,
            "Mnodes/s")
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MiB")
        put("ok_frac", 1.0 - failed / attempted, "ratio")
        if "zero_pattern_ok_frac" in accuracy[0]:
            frac = statistics.median(a["zero_pattern_ok_frac"] for a in accuracy)
        else:
            frac = sum(a["zero_pattern_ok"] for a in accuracy) / len(accuracy)
        put("zero_pattern_ok_frac", frac, "ratio")
        record["import_samples_s"] = imports

    if accuracy and "k_rel_err" in accuracy[0]:
        record["k_rel_err"] = {
            "median": statistics.median(a["k_rel_err"] for a in accuracy),
            "max": max(a["k_rel_err"] for a in accuracy),
            "tolerance": workload.tolerance}
    record["phases_ms"] = {
        p: {"p50": statistics.median(v) * 1e3, "p90": quantile(v, 90) * 1e3,
            "samples": len(v)}
        for p, v in phase_s.items() if v}
    if plain:
        record["op_wall_ms"] = {
            "p50": statistics.median(d[2] for d in done if not d[1]) * 1e3,
            "p90": quantile([d[2] for d in done if not d[1]], 90) * 1e3}

    correct = not failures
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    name = f"{workload.name}.seed{args.seed}.trace{int(traced)}.json"
    (args.results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name} seed {args.seed} trace {int(traced)}: "
          f"{len(plain)} untraced + {len(op_s[True])} traced ops in "
          f"{args.seconds:g} s")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(f"noise-free gate: max structural zero "
          f"{gate['noise_free_max_zero']:.3e} (limit {NOISE_FREE_ZERO_LIMIT:g}) "
          f"{'PASS' if gate_ok else 'FAIL'}")
    print("digests: " + json.dumps(record.get("digests"), sort_keys=True))
    if "k_rel_err" in record:
        k = record["k_rel_err"]
        print(f"k_rel_err: median {k['median']:.4g}, max {k['max']:.4g} "
              f"(tolerance {k['tolerance']:g})")
    if "op_wall_ms" in record:
        w = record["op_wall_ms"]
        print(f"op wall time, unscaled: p50 {w['p50']:.4f} ms, p90 {w['p90']:.4f} ms")
    for p, v in record["phases_ms"].items():
        print(f"{p}: p50 {v['p50']:.4f} ms, p90 {v['p90']:.4f} ms "
              f"over {v['samples']} ops (scaled)")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(f"checks: {attempted - failed}/{attempted} ops passed; "
          f"{len(failures) - failed} run-level checks failed")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
