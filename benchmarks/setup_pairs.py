"""Set-up time of this checkout against another, in alternating pairs.

``bench/run.py --compare`` reads ``setup_s`` from samples that each side
takes in one block, so machine drift between the two blocks reads as a
set-up change.  This script interleaves instead: per workload it runs
``--pairs`` pairs of fresh ``bench/child.py --mode setup`` processes, one in
each checkout, alternating which side goes first, and prints each side's
median ``setup_s`` (with quartiles) and in how many pairs this checkout was
faster.  It then runs one ``--mode counted --count-setup`` process per side
and prints ``kadop.setup_pysteps``, the set-up's interpreter steps, which do
not depend on the machine.

Children run as ``bench/run.py`` runs them: seed 0, ``PYTHONHASHSEED=0``,
the checkout's own ``src`` on ``PYTHONPATH``, one BLAS thread, 170 s at
most.  Host times are only comparable within one run of this script on one
machine.

    python3 benchmarks/setup_pairs.py <parent checkout> [--pairs 10]
    make setup-pairs PARENT=<parent checkout>
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ingest", "query_index", "query_docphase", "serve_churn")
SEED = 0
#: as bench/run.py's CHILD_TIMEOUT_S: a hung child fails instead of stalling
CHILD_TIMEOUT_S = 170


def child(tree, mode, workload, extra=()):
    """One ``bench/child.py`` process of checkout ``tree``; its report."""
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=os.path.join(tree, "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [
        sys.executable, os.path.join(tree, "bench", "child.py"), "--mode", mode,
        "--workload", workload, "--seed", str(SEED), *extra,
    ]
    try:
        done = subprocess.run(
            command, env=env, cwd=tree, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit(
            "%s run of %s in %s took over %d s"
            % (mode, workload, tree, CHILD_TIMEOUT_S)
        )
    if done.returncode:
        sys.exit(
            "%s run of %s in %s exited with %d:\n%s"
            % (mode, workload, tree, done.returncode, done.stderr[-2000:])
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return "%.3f (%.3f / %.3f)" % (median, q1, q3)


def compare(parent, workload, pairs):
    """One workload's row: medians, wins and set-up steps of both sides."""
    times = {parent: [], ROOT: []}
    for k in range(pairs):
        order = (parent, ROOT) if k % 2 == 0 else (ROOT, parent)
        for tree in order:
            times[tree].append(child(tree, "setup", workload)["setup_s"])
    wins = sum(new < old for old, new in zip(times[parent], times[ROOT]))
    steps = [
        child(tree, "counted", workload, ("--count-setup",))[
            "setup_pysteps"
        ]
        for tree in (parent, ROOT)
    ]
    return "%-15s %-24s %-24s %5d/%-4d %s -> %s" % (
        workload, quartiles(times[parent]), quartiles(times[ROOT]), wins,
        pairs, format(steps[0], ","), format(steps[1], ","),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout to compare this one with")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    parent = os.path.abspath(args.parent)
    if not os.path.isfile(os.path.join(parent, "bench", "child.py")):
        parser.error("%s has no bench/child.py" % parent)
    print(
        "%-15s %-24s %-24s %10s %s"
        % ("workload", "parent setup_s (q1/q3)", "change setup_s (q1/q3)",
           "faster", "kadop.setup_pysteps parent -> change")
    )
    for workload in WORKLOADS:
        print(compare(parent, workload, args.pairs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
