"""The repo benchmark's one command.

The benchmark contract's form, one workload per invocation::

    python3 bench/run.py --workload ingest --seed 0 --seconds 12 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name with its unit, and as the last line of standard
output one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Without ``--workload`` it runs all four workloads in both modes and prints
everything (``PYTHONPATH=src python -m bench.run --seed 0`` is the same
command); ``--out`` keeps the result for ``--compare``.  ``--check-repeat``
measures twice and insists that the exact metrics are bit-identical.

Every measurement runs in a child process of its own (``bench/child.py``),
one at a time, with ``PYTHONHASHSEED=0``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench import metrics as M  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 170
MIN_SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 7
DEFAULT_SECONDS = 12


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(mode, workload=None, seed=0, scale="full", extra=()):
    """Run one ``bench/child.py`` process to its end; its JSON report."""
    command = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--mode", mode]
    if workload is not None:
        command += ["--workload", workload]
    command += ["--seed", str(seed), "--scale", scale, *extra]
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=SRC,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    # subprocess.run kills the child and waits for it if the time runs out
    done = subprocess.run(
        command, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(
            "%s run of %s exited with %d:\n%s"
            % (mode, workload, done.returncode, done.stderr[-2000:])
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_problems(reports):
    """What makes a set of reports of one workload incorrect."""
    problems = []
    for report in reports:
        if report.get("errors"):
            problems.append("%s run raised: %s" % (report["mode"], report["errors"][0]))
        if report.get("mismatches"):
            problems.append(
                "%s run disagrees with the oracle: %r"
                % (report["mode"], report["mismatches"][0])
            )
        if report["digest"] != reports[0]["digest"]:
            problems.append(
                "%s and %s runs computed different answers or simulated costs"
                % (reports[0]["mode"], report["mode"])
            )
    return problems


def measure_end_to_end(workload, seed, seconds, scale):
    """Plain run, counted run, then set-up samples from fresh processes
    until ``seconds`` of measuring are spent."""
    plain = child("plain", workload, seed, scale)
    counted = child("counted", workload, seed, scale)
    setup_samples = [plain["setup_s"], counted["setup_s"]]
    measured = plain["wall_s"] + counted["wall_s"] + sum(setup_samples)
    while len(setup_samples) < MIN_SETUP_SAMPLES or (
        measured < seconds and len(setup_samples) < MAX_SETUP_SAMPLES
    ):
        sample = child("setup", workload, seed, scale)["setup_s"]
        setup_samples.append(sample)
        measured += sample
    return {
        "values": M.end_to_end(plain, counted, setup_samples),
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "problems": run_problems([plain, counted]),
        "setup_samples": setup_samples,
        "host": M.host_trend(plain),
        "kernel_backend": plain["kernel_backend"],
    }


def measure_per_layer(workload, seed, scale):
    """Counted (set-up included), traced and plain runs, and the tracer
    slice; per-layer values and the checks that tie them together."""
    trace_file = os.path.join(OUT_DIR, "trace_%s.json" % workload)
    counted = child("counted", workload, seed, scale, extra=("--count-setup",))
    traced = child("traced", workload, seed, scale, extra=("--trace-out", trace_file))
    plain = child("plain", workload, seed, scale)
    tracer_slice = child("tracer_on", None, seed, scale)
    values = M.per_layer(plain, counted, traced, tracer_slice)
    problems = run_problems([plain, counted, traced])
    problems += M.layer_checks(
        workload, values, counted["steps_total"] / counted["ops"]
    )
    if not tracer_slice["identical"]:
        problems.append("answers or simulated fields change with enable_tracing()")
    if traced["trace_error"]:
        problems.append("trace file is invalid: %s" % traced["trace_error"])
    return {
        "values": values,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "problems": problems,
        "kernel_backend": plain["kernel_backend"],
        "trace_file": os.path.relpath(trace_file, ROOT),
        "trace_events": traced["trace_events"],
        "spans_missing": traced["spans_missing"],
    }


def print_values(values, table):
    for name in table:
        print("%-44s %18.6f %s" % (name, values[name], table[name][0]))


def contract_line(result, table):
    """The benchmark contract's result object."""
    return json.dumps(
        {
            "correct": not result["problems"] and result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["values"][name], "unit": table[name][0]}
                for name in table
            },
        }
    )


def environment(seed, scale, kernel_backend):
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": kernel_backend,
        "nproc": os.cpu_count(),
        "seed": seed,
        "scale": scale,
    }


# -- the contract's form: one workload, one mode ---------------------------------


def run_one(args):
    if args.trace:
        result = measure_per_layer(args.workload, args.seed, args.scale)
        table = M.PER_LAYER
        print("trace: %s (%d events)" % (result["trace_file"], result["trace_events"]))
        for spec in result["spans_missing"]:
            print("no span: entry point %s is gone" % spec)
    else:
        result = measure_end_to_end(args.workload, args.seed, args.seconds, args.scale)
        table = M.END_TO_END
    print_values(result["values"], table)
    for problem in result["problems"]:
        print("INCORRECT: %s" % problem)
    meta = environment(args.seed, args.scale, result["kernel_backend"])
    print("environment: %s" % json.dumps(meta, sort_keys=True))
    print(contract_line(result, table))
    return 0


# -- everything: four workloads, both modes --------------------------------------


def run_all(args):
    results = {}
    kernel_backend = None
    for workload in M.WORKLOAD_NAMES:
        end_to_end = measure_end_to_end(workload, args.seed, args.seconds, args.scale)
        layers = measure_per_layer(workload, args.seed, args.scale)
        kernel_backend = end_to_end["kernel_backend"]
        problems = end_to_end["problems"] + layers["problems"]
        print("== %s ==" % workload)
        print_values(end_to_end["values"], M.END_TO_END)
        print(
            "%-44s %18.6f ratio"
            % ("failed_ops_share", end_to_end["failed"] / end_to_end["attempted"])
        )
        print_values(layers["values"], M.PER_LAYER)
        print("trace: %s (%d events)" % (layers["trace_file"], layers["trace_events"]))
        for problem in problems:
            print("INCORRECT: %s" % problem)
        results[workload] = {
            "end_to_end": end_to_end["values"],
            "per_layer": layers["values"],
            "attempted": end_to_end["attempted"],
            "failed": end_to_end["failed"],
            "setup_samples": end_to_end["setup_samples"],
            "problems": problems,
        }
    meta = environment(args.seed, args.scale, kernel_backend)
    print("environment: %s" % json.dumps(meta, sort_keys=True))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"meta": meta, "workloads": results}, handle, indent=1)
    bad = [w for w, r in results.items() if r["problems"] or r["failed"]]
    return 1 if bad else 0


# -- --check-repeat ----------------------------------------------------------------


def check_repeat(args):
    """Measure every workload twice; exact metrics must be bit-identical."""
    failures = 0
    kernel_backend = None
    for workload in M.WORKLOAD_NAMES:
        first = measure_end_to_end(workload, args.seed, 0, args.scale)
        second = measure_end_to_end(workload, args.seed, 0, args.scale)
        kernel_backend = first["kernel_backend"]
        print("== %s ==" % workload)
        for name in M.END_TO_END:
            a, b = first["values"][name], second["values"][name]
            if name in M.EXACT_METRICS:
                ok = a == b
                rule = "bit-identical"
            else:
                ok = abs(a - b) <= M.same_seed_bound(name) * min(a, b)
                rule = "within %.0f%%" % (M.same_seed_bound(name) * 100)
            failures += not ok
            print(
                "%-22s %-14s %s  %r  %r"
                % (name, rule, "ok  " if ok else "FAIL", a, b)
            )
        for name, a in first["host"].items():
            b = second["host"][name]
            spread = 100.0 * abs(a - b) / min(a, b) if min(a, b) else 0.0
            print(
                "%-24s host trend, spread %.1f%%  %r  %r" % (name, spread, a, b)
            )
        for result in (first, second):
            for problem in result["problems"]:
                failures += 1
                print("INCORRECT: %s" % problem)
    meta = environment(args.seed, args.scale, kernel_backend)
    print("environment: %s" % json.dumps(meta, sort_keys=True))
    print("check-repeat: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


# -- --compare ----------------------------------------------------------------------


def compare(path_a, path_b):
    """One row per (end-to-end metric, workload); non-zero on any ``worse``
    or on a higher failed-ops share."""
    with open(path_a) as handle:
        base = json.load(handle)["workloads"]
    with open(path_b) as handle:
        new = json.load(handle)["workloads"]
    bad = 0
    print(
        "%-16s %-20s %-11s %9s  %s"
        % ("workload", "metric", "verdict", "change", "new / base")
    )
    for workload in M.WORKLOAD_NAMES:
        if workload not in base or workload not in new:
            continue
        a, b = base[workload], new[workload]
        for name in M.END_TO_END:
            spread = 0.0
            if name == "setup_s":
                spread = max(
                    (max(r["setup_samples"]) - min(r["setup_samples"]))
                    / statistics.median(r["setup_samples"])
                    for r in (a, b)
                )
            outcome, change = M.verdict(
                name, a["end_to_end"][name], b["end_to_end"][name], spread
            )
            bad += outcome == "worse"
            print(
                "%-16s %-20s %-11s %+8.2f%%  %r / %r"
                % (
                    workload, name, outcome, 100.0 * change,
                    b["end_to_end"][name], a["end_to_end"][name],
                )
            )
        share_a = a["failed"] / a["attempted"]
        share_b = b["failed"] / b["attempted"]
        outcome = "worse" if share_b > share_a else "unchanged"
        bad += share_b > share_a
        print(
            "%-16s %-20s %-11s %9s  %d/%d / %d/%d"
            % (
                workload, "failed_ops_share", outcome, "",
                b["failed"], b["attempted"], a["failed"], a["attempted"],
            )
        )
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=M.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="how long one run measures: after the plain and the counted run, "
        "set-up is sampled from fresh processes until this much is spent",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="write all results here (all-workload form)")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE.json", "NEW.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if os.environ.get("REPRO_KERNELS"):
        print("refusing to run with REPRO_KERNELS set: it overrides the "
              "configured kernel backend", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("src/repro not found beside bench/: nothing to measure",
              file=sys.stderr)
        return 2
    try:
        if args.check_repeat:
            return check_repeat(args)
        if args.workload:
            return run_one(args)
        return run_all(args)
    except (BenchError, subprocess.TimeoutExpired) as error:
        print("benchmark failed: %s" % error, file=sys.stderr)
        return 3


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print("elapsed %.1f s" % (time.perf_counter() - started), file=sys.stderr)
    sys.exit(code)
