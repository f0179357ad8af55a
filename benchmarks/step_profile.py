"""Function-level view of the repo benchmark's interpreter steps.

``bench/`` attributes ``pysteps_per_op`` per *layer*; every "spend the
profile" change also needs to know which functions inside a layer pay.
This script replays one ``bench.workloads`` op stream in-process under the
benchmark's own step definition (one ``line`` trace event or one ``c_call``
profile event, counted inside ops only, the benchmark's own frames never
counted — see ``bench/steps.py``) and charges every step to the
``(file, qualified name)`` of the executing frame::

    make step-profile WORKLOAD=query_docphase
    PYTHONHASHSEED=0 python benchmarks/step_profile.py query_docphase --top 40

The total is then checked against a fresh counted run of the benchmark
itself (``--no-check`` skips that second run): the two must agree within
``TOLERANCE`` (they are the same count), or the profile describes something
the benchmark does not measure and the script exits non-zero.

``--kind publish|unpublish|query`` counts the steps of that kind of op only
(a ``serve`` call's steps are its queries') and divides by that kind's op
count; the whole-run check and the fence lines are then skipped::

    make step-profile WORKLOAD=ingest KIND=unpublish

``--inclusive`` (``make step-profile INCLUSIVE=1``) ranks functions by the
steps taken while a frame of theirs is on the stack, their callees'
included, counted exactly from call and return events (a recursive or
re-entered function counts from its outermost frame only), beside their own
steps.  It checks that no function's inclusive count is below its own and
that the functions the driver calls directly, the roots, sum to the total::

    make step-profile WORKLOAD=ingest KIND=publish INCLUSIVE=1

On the workloads ``bench.metrics.layer_checks`` fences (``BYPASS_WORKLOADS``:
a ``--trace 1`` run fails when ``sim`` or ``balance`` exceed their
``BYPASS_SHARE`` of all steps), the profile ends with each fenced layer's
share and how many steps/op the workload can still lose, with that layer
unchanged, before the fence trips.  ``--fences`` prints only those lines,
and exits 1 when a fence has tripped; ``make fence-margins`` prints them
for every fenced workload, both scales and several seeds, and fails on
the first tripped fence.
"""

import argparse
import gc
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import child as C  # noqa: E402
from bench import run as R  # noqa: E402
from bench.layers import layer_of, repro_relpath  # noqa: E402
from bench.metrics import BYPASS_SHARE, BYPASS_WORKLOADS  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402
from repro.dht.nodeid import key_id  # noqa: E402
from repro.postings import kernels  # noqa: E402
from repro.sim.cost import _route_length  # noqa: E402
from repro.storage.clustered import _encode_term  # noqa: E402

#: relative distance allowed between this profile and the benchmark's number
TOLERANCE = 1e-6

#: the driver calls whose steps each ``--kind`` counts, by the kind the
#: driver records their ops under
KINDS = {"publish": ("publish",), "unpublish": ("unpublish",), "query": ("query", "serve")}

_THIS_FILE = os.path.abspath(__file__)


class FunctionStepCounter:
    """``bench.steps.StepCounter``'s events, kept per code object."""

    def __init__(self, package_dir):
        self._package_dir = package_dir
        self.steps = {}  # code -> [steps]; absent for the benchmark's frames
        self.clock = [0]  # every step counted so far
        self._entries = {}  # code -> (local trace function, cell) or (None, None)
        self.enabled = True  # False: the driver's next op goes uncounted

    def _classify(self, code):
        entry = (None, None)
        # like the benchmark's, this file's own frames (``stop`` runs traced)
        # belong to no layer
        if code.co_filename != _THIS_FILE and (
            layer_of(code.co_filename, self._package_dir) is not None
        ):
            cell = self.steps[code] = [0]
            entry = (self._local(code, cell), cell)
        self._entries[code] = entry
        return entry

    def _local(self, code, cell):
        """The local trace function of ``code``'s frames."""
        clock = self.clock

        def local(frame, event, arg):
            if event == "line":
                cell[0] += 1
                clock[0] += 1
            return local

        return local

    def _on_call(self, frame, event, arg):
        code = frame.f_code
        entry = self._entries.get(code)
        if entry is None:
            entry = self._classify(code)
        return entry[0]

    def _on_profile(self, frame, event, arg):
        if event == "c_call":
            code = frame.f_code
            entry = self._entries.get(code)
            if entry is None:
                entry = self._classify(code)
            if entry[1] is not None:
                entry[1][0] += 1
                self.clock[0] += 1

    def start(self):
        if self.enabled:
            sys.setprofile(self._on_profile)
            sys.settrace(self._on_call)

    def stop(self):
        sys.settrace(None)
        sys.setprofile(None)

    def total(self):
        return self.clock[0]

    def _row(self, code):
        filename = code.co_filename
        return (
            self.steps[code][0],
            layer_of(filename, self._package_dir),
            repro_relpath(filename, self._package_dir) or filename,
            code.co_qualname,
        )

    def rows(self):
        """``(steps, layer, file, qualname)``, largest first."""
        out = [self._row(code) for code in self.steps]
        out.sort(key=lambda row: (-row[0], row[2], row[3]))
        return out


class InclusiveStepCounter(FunctionStepCounter):
    """Also counts, per code object, the steps taken while a frame of it is
    on the stack (``inclusive``), and the same for the frames entered with
    no counted frame below them (``roots``: the calls the driver makes).

    Exact: a frame's steps are the step clock at its return minus the clock
    at its call, and a generator is entered and left at every resume.  Only
    the outermost frame of a code is timed, so recursion counts once."""

    def __init__(self, package_dir):
        super().__init__(package_dir)
        self.inclusive = {}  # code -> steps with a frame of it on the stack
        self.roots = {}  # code -> steps of its frames entered with none below
        self._open = {}  # code -> its frames on the stack
        self._entered = {}  # code -> (clock at its outermost frame's call, is a root)
        self._depth = 0  # counted frames on the stack

    def _local(self, code, cell):
        self.inclusive[code] = self._open[code] = 0
        clock, leave = self.clock, self._leave

        def local(frame, event, arg):
            if event == "line":
                cell[0] += 1
                clock[0] += 1
            elif event == "return":
                leave(code)
            return local

        return local

    def _on_call(self, frame, event, arg):
        local = super()._on_call(frame, event, arg)
        if local is not None:
            code = frame.f_code
            if not self._open[code]:
                self._entered[code] = (self.clock[0], not self._depth)
            self._open[code] += 1
            self._depth += 1
        return local

    def _leave(self, code):
        self._depth -= 1
        self._open[code] -= 1
        if not self._open[code]:
            entered, root = self._entered.pop(code)
            steps = self.clock[0] - entered
            self.inclusive[code] += steps
            if root:
                self.roots[code] = self.roots.get(code, 0) + steps

    def inclusive_rows(self):
        """``(inclusive, self, layer, file, qualname)``, largest inclusive
        first."""
        rows = [(self.inclusive[code],) + self._row(code) for code in self.steps]
        rows.sort(key=lambda row: (-row[0], row[3], row[4]))
        return rows

    def check(self):
        """The two identities of an exact count, as a list of failures."""
        failures = [
            "%s: inclusive %d below its own %d" % (code.co_qualname, self.inclusive[code], cell[0])
            for code, cell in self.steps.items()
            if self.inclusive[code] < cell[0]
        ]
        if sum(self.roots.values()) != self.total():
            failures.append(
                "the roots sum to %d, not the total %d" % (sum(self.roots.values()), self.total())
            )
        return failures


def cold_start():
    """Empty the module-level memos an earlier run in this process left
    warm (key ids, term encodings, route lengths, the numpy Bloom kernels'
    key digests), so that every :func:`profile` counts a cold run, as the
    benchmark does in its fresh child process.  A full collection last
    zeroes the collector's allocation counts, so it runs at the same
    points of every run."""
    key_id.cache_clear()
    _encode_term.cache_clear()
    _route_length.cache_clear()
    if kernels.numpy_available():
        kernels.resolve("numpy")._MEMOS.clear()
    gc.collect()


def profile(workload_name, seed, scale, kind=None, inclusive=False):
    """Run the op stream once, from a :func:`cold_start`; returns
    ``(counter, ops)``, counting only the ops of ``kind`` when given, and
    inclusive counts when asked.

    The ``gc.callbacks`` hooks installed before the run (hypothesis adds
    one under pytest) are set aside while it runs and put back after: a
    hook is a Python frame the counter would charge whenever a collection
    falls inside an op, so an in-process count would not equal the
    benchmark's fresh-process one."""
    hooks = gc.callbacks[:]
    del gc.callbacks[:]
    try:
        return _profile(workload_name, seed, scale, kind, inclusive)
    finally:
        gc.callbacks[:0] = hooks


def _profile(workload_name, seed, scale, kind, inclusive):
    cold_start()
    workload = WORKLOADS[workload_name](seed, scale)
    counter = (InclusiveStepCounter if inclusive else FunctionStepCounter)(C.PACKAGE_DIR)
    driver = C.Driver(counter=counter)
    driver.install_boundaries()
    if kind is not None:
        begin = driver._begin

        def begin_counted_kind(call):
            counter.enabled = call in KINDS[kind]
            begin(call)

        driver._begin = begin_counted_kind
    workload.setup()
    driver.system = workload.net
    driver.start()
    workload.run(driver)
    driver.stop()
    if driver.failed:
        raise SystemExit("%d of %d ops failed" % (driver.failed, driver.attempted))
    if kind is None:
        return counter, len(driver.ops)
    ops = sum(op["kind"] == kind for op in driver.ops)
    if not ops:
        raise SystemExit("%s runs no %s op" % (workload_name, kind))
    return counter, ops


def fence_lines(counter, ops):
    """One ``(line, tripped)`` pair per layer of ``BYPASS_SHARE``: the line
    gives its steps/op, its share of all steps, and the steps/op the
    workload can lose before that share crosses the limit (negative: the
    fence has already tripped, and ``tripped`` is true)."""
    total = counter.total()
    by_layer = {}
    for steps, layer, _, _ in counter.rows():
        by_layer[layer] = by_layer.get(layer, 0) + steps
    lines = []
    for layer, share in sorted(BYPASS_SHARE.items()):
        steps = by_layer.get(layer, 0)
        lines.append((
            "fence %-8s %8.1f steps/op, %5.2f%% of steps (limit %g%%): "
            "%.0f steps/op to lose before it trips"
            % (layer, steps / ops, 100.0 * steps / total, 100.0 * share,
               (total - steps / share) / ops),
            steps > share * total,
        ))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--no-check", action="store_true")
    parser.add_argument(
        "--kind", choices=sorted(KINDS),
        help="count only this kind of op, per op of the kind; no check, no fences",
    )
    parser.add_argument(
        "--inclusive", action="store_true",
        help="rank by steps with the function on the stack, callees included",
    )
    parser.add_argument(
        "--fences", action="store_true",
        help="print only the fence lines, each naming its run; no check",
    )
    args = parser.parse_args(argv)
    if args.kind and args.fences:
        parser.error("--fences takes the whole run's shares; drop --kind")
    if args.inclusive and args.fences:
        parser.error("--fences prints no functions; drop --inclusive")
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("note: set PYTHONHASHSEED=0 to repeat the benchmark's counts exactly")

    counter, ops = profile(args.workload, args.seed, args.scale, args.kind, args.inclusive)
    if args.fences:
        run = "%-14s %-4s seed %-3d" % (args.workload, args.scale, args.seed)
        fences = fence_lines(counter, ops)
        print("\n".join("%s %s" % (run, line) for line, _ in fences))
        tripped = args.workload in BYPASS_WORKLOADS and any(t for _, t in fences)
        return 1 if tripped else 0
    total = counter.total()
    per_op = total / ops
    print(
        "%s seed %d scale %s: %d %sops, %.2f steps/op"
        % (args.workload, args.seed, args.scale, ops,
           args.kind + " " if args.kind else "", per_op)
    )
    if args.inclusive:
        print("%12s %7s %12s  %-16s %s" % ("incl/op", "share", "self/op", "layer", "function"))
        for inclusive, steps, layer, filename, qualname in counter.inclusive_rows()[: args.top]:
            print(
                "%12.1f %6.1f%% %12.1f  %-16s %s:%s"
                % (inclusive / ops, 100.0 * inclusive / total, steps / ops, layer,
                   filename, qualname)
            )
        failures = counter.check()
        print("\n".join("FAIL: %s" % failure for failure in failures) or (
            "%d root functions sum to the total; no inclusive count is below its own"
            % len(counter.roots)
        ))
        if failures:
            return 1
    else:
        print("%12s %7s %7s  %-16s %s" % ("steps/op", "share", "cum", "layer", "function"))
        cumulative = 0
        for steps, layer, filename, qualname in counter.rows()[: args.top]:
            cumulative += steps
            print(
                "%12.1f %6.1f%% %6.1f%%  %-16s %s:%s"
                % (
                    steps / ops,
                    100.0 * steps / total,
                    100.0 * cumulative / total,
                    layer,
                    filename,
                    qualname,
                )
            )
    if args.kind is not None:
        return 0  # one kind's steps: neither the whole run's total nor its shares
    if args.workload in BYPASS_WORKLOADS:
        print("\n".join(line for line, _ in fence_lines(counter, ops)))
    if args.no_check:
        return 0
    counted = R.child("counted", args.workload, args.seed, args.scale)
    expected = counted["steps_total"] / counted["ops"]
    off = abs(per_op - expected) / expected
    print(
        "benchmark pysteps_per_op %.2f, this profile %.2f (%.4f%% apart)"
        % (expected, per_op, 100.0 * off)
    )
    if off > TOLERANCE:
        print("FAIL: the profile does not describe what the benchmark measures")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
