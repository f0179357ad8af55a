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

On the workloads ``bench.metrics.layer_checks`` fences (``BYPASS_WORKLOADS``:
a ``--trace 1`` run fails when ``sim`` or ``balance`` exceed their
``BYPASS_SHARE`` of all steps), the profile ends with each fenced layer's
share and how many steps/op the workload can still lose, with that layer
unchanged, before the fence trips.  ``--fences`` prints only those lines;
``make fence-margins`` prints them for every fenced workload, both scales
and several seeds.
"""

import argparse
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

#: relative distance allowed between this profile and the benchmark's number
TOLERANCE = 1e-6
_THIS_FILE = os.path.abspath(__file__)


class FunctionStepCounter:
    """``bench.steps.StepCounter``'s events, kept per code object."""

    def __init__(self, package_dir):
        self._package_dir = package_dir
        self.steps = {}  # code -> [steps]; absent for the benchmark's frames
        self._entries = {}  # code -> (local trace function, cell) or (None, None)

    def _classify(self, code):
        entry = (None, None)
        # like the benchmark's, this file's own frames (``stop`` runs traced)
        # belong to no layer
        if code.co_filename != _THIS_FILE and (
            layer_of(code.co_filename, self._package_dir) is not None
        ):
            cell = self.steps[code] = [0]

            def local(frame, event, arg):
                if event == "line":
                    cell[0] += 1
                return local

            entry = (local, cell)
        self._entries[code] = entry
        return entry

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

    def start(self):
        sys.setprofile(self._on_profile)
        sys.settrace(self._on_call)

    def stop(self):
        sys.settrace(None)
        sys.setprofile(None)

    def total(self):
        return sum(cell[0] for cell in self.steps.values())

    def rows(self):
        """``(steps, layer, file, qualname)``, largest first."""
        out = []
        for code, cell in self.steps.items():
            filename = code.co_filename
            out.append(
                (
                    cell[0],
                    layer_of(filename, self._package_dir),
                    repro_relpath(filename, self._package_dir) or filename,
                    code.co_qualname,
                )
            )
        out.sort(key=lambda row: (-row[0], row[2], row[3]))
        return out


def profile(workload_name, seed, scale):
    """Run the op stream once; returns ``(counter, ops)``."""
    workload = WORKLOADS[workload_name](seed, scale)
    counter = FunctionStepCounter(C.PACKAGE_DIR)
    driver = C.Driver(counter=counter)
    driver.install_boundaries()
    workload.setup()
    driver.system = workload.net
    driver.start()
    workload.run(driver)
    driver.stop()
    if driver.failed:
        raise SystemExit("%d of %d ops failed" % (driver.failed, driver.attempted))
    return counter, len(driver.ops)


def fence_lines(counter, ops):
    """One line per layer of ``BYPASS_SHARE``: its steps/op, its share of
    all steps, and the steps/op the workload can lose before that share
    crosses the limit (negative: the fence has already tripped)."""
    total = counter.total()
    by_layer = {}
    for steps, layer, _, _ in counter.rows():
        by_layer[layer] = by_layer.get(layer, 0) + steps
    lines = []
    for layer, share in sorted(BYPASS_SHARE.items()):
        steps = by_layer.get(layer, 0)
        lines.append(
            "fence %-8s %8.1f steps/op, %5.2f%% of steps (limit %g%%): "
            "%.0f steps/op to lose before it trips"
            % (layer, steps / ops, 100.0 * steps / total, 100.0 * share,
               (total - steps / share) / ops)
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--no-check", action="store_true")
    parser.add_argument(
        "--fences", action="store_true",
        help="print only the fence lines, each naming its run; no check",
    )
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("note: set PYTHONHASHSEED=0 to repeat the benchmark's counts exactly")

    counter, ops = profile(args.workload, args.seed, args.scale)
    if args.fences:
        run = "%-14s %-4s seed %-3d" % (args.workload, args.scale, args.seed)
        print("\n".join("%s %s" % (run, line) for line in fence_lines(counter, ops)))
        return 0
    total = counter.total()
    per_op = total / ops
    print(
        "%s seed %d scale %s: %d ops, %.2f steps/op"
        % (args.workload, args.seed, args.scale, ops, per_op)
    )
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
    if args.workload in BYPASS_WORKLOADS:
        print("\n".join(fence_lines(counter, ops)))
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
