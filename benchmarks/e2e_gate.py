"""CI gate over the repo benchmark: a result against the committed baseline.

``BENCH_e2e.json`` at the repo root is the output of
``python3 bench/run.py --seed 0 --out BENCH_e2e.json``.  This script
compares a fresh run of the same command with it::

    make bench-e2e-check
    python benchmarks/e2e_gate.py BENCH_e2e.json .bench_out/new.json

It exits non-zero when, on any workload, a metric of
``bench.metrics.EXACT_METRICS`` (interpreter steps, simulated seconds, wire
bytes, DHT messages: all repeat bit for bit under one seed) moves by more
than ``EXACT_BOUND`` in either direction, or when an op failed.  It also
runs ``bench/child.py --mode tracer_on`` at the result's seed and scale and
exits non-zero when the extra steps per query that ``enable_tracing()``
costs on the first queries of ``query_docphase`` rise by more than
``EXACT_BOUND`` above ``TRACER_STEPS_PER_QUERY``: the tracer's cost may fall
freely, but not creep back up.  The count is not a pure tracer cost: the
slice runs its untraced pass on cold caches and its traced pass on warm
ones, so a change that makes a cache miss cheaper raises it, and one that
makes a miss dearer lowers it, with the tracer untouched.  For every
failing workload it prints the ``<layer>.pysteps_per_op`` rows that moved
most, so a red run names the layer.  Host-time fields are printed and never
gated.

Interpreter steps include numpy's own Python frames, so the baseline holds
only on the Python and numpy versions it was measured with (its ``meta``);
a move in an exact metric is a change to commit with a refreshed baseline
and a CHANGES.md line saying why.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench import metrics as M  # noqa: E402
from bench import run as R  # noqa: E402
from bench.layers import LAYERS  # noqa: E402

#: layer rows printed for a failing workload
TOP_LAYERS = 5

#: ``(steps_on - steps_off) / queries`` of ``bench/child.py --mode tracer_on
#: --seed 0 --scale full``, on the interpreter and numpy of BENCH_e2e.json's
#: ``meta``; gated one way (a rise is red).  It also moves with the cost of
#: a cache miss (the untraced pass runs cold); a change that moves it on
#: purpose updates this number
TRACER_STEPS_PER_QUERY = 546.7


def change(base, new):
    if base == new:
        return 0.0
    return (new - base) / base if base else float("inf")


def is_host_field(name):
    return (
        name in ("setup_s", "peak_rss_mb")
        or "cpu_" in name
        or name.endswith(".self_ms_per_op")
    )


def moved_layers(base, new):
    """``(name, base, new)`` of the layers whose steps moved most."""
    rows = []
    for layer in LAYERS:
        name = "%s.pysteps_per_op" % layer
        a, b = base["per_layer"].get(name, 0.0), new["per_layer"].get(name, 0.0)
        if a != b:
            rows.append((abs(b - a), name, a, b))
    rows.sort(reverse=True)
    return [row[1:] for row in rows[:TOP_LAYERS]]


def gate_workload(workload, base, new):
    """Print one workload's rows; return its list of failure reasons."""
    failures = []
    for name in M.EXACT_METRICS:
        a, b = base["end_to_end"][name], new["end_to_end"][name]
        moved = change(a, b)
        red = abs(moved) > M.EXACT_BOUND
        if red:
            failures.append("%s moved %+.2f%%" % (name, 100.0 * moved))
        print(
            "%-16s %-34s %-4s %+8.2f%%  %r / %r"
            % (workload, name, "RED" if red else "ok", 100.0 * moved, b, a)
        )
    if new["failed"]:
        failures.append("%d of %d ops failed" % (new["failed"], new["attempted"]))
    failures += ["problem: %s" % problem for problem in new.get("problems", ())]
    for section in ("end_to_end", "per_layer"):
        for name, b in new[section].items():
            if is_host_field(name) and name in base[section]:
                print(
                    "%-16s %-34s host %+8.2f%%  %r / %r  (not gated)"
                    % (workload, name, 100.0 * change(base[section][name], b),
                       b, base[section][name])
                )
    return failures


def gate_tracer(tracer):
    """Print the tracer's row; return its list of failure reasons."""
    cost = (tracer["steps_on"] - tracer["steps_off"]) / tracer["queries"]
    moved = change(TRACER_STEPS_PER_QUERY, cost)
    red = moved > M.EXACT_BOUND
    print(
        "%-16s %-34s %-4s %+8.2f%%  %r / %r"
        % ("tracer", "extra_pysteps_per_query", "RED" if red else "ok",
           100.0 * moved, cost, TRACER_STEPS_PER_QUERY)
    )
    return ["extra steps per query rose %+.2f%%" % (100.0 * moved)] if red else []


def main(base_path, new_path):
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    if base["meta"] != new["meta"]:
        print("note: environments differ; steps count numpy's Python frames")
        print("  base: %s" % json.dumps(base["meta"], sort_keys=True))
        print("  new:  %s" % json.dumps(new["meta"], sort_keys=True))
    print("%-16s %-34s %-4s %9s  new / base" % ("workload", "metric", "", "change"))
    red = {}
    for workload in M.WORKLOAD_NAMES:
        if workload not in new["workloads"]:
            red[workload] = ["missing from %s" % new_path]
            continue
        failures = gate_workload(
            workload, base["workloads"][workload], new["workloads"][workload]
        )
        if failures:
            red[workload] = failures
    failures = gate_tracer(
        R.child("tracer_on", None, new["meta"]["seed"], new["meta"]["scale"])
    )
    if failures:
        red["tracer"] = failures
    for workload, failures in red.items():
        print("RED %s: %s" % (workload, "; ".join(failures)))
        if workload in new["workloads"]:
            for name, a, b in moved_layers(
                base["workloads"][workload], new["workloads"][workload]
            ):
                print(
                    "    %-34s %+8.2f%%  %r / %r" % (name, 100.0 * change(a, b), b, a)
                )
    print("e2e gate: %s" % ("FAILED" if red else "passed"))
    return 1 if red else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python benchmarks/e2e_gate.py BASE.json NEW.json")
    sys.exit(main(*sys.argv[1:]))
