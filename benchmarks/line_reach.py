"""Which executable lines of ``src/repro`` no run reaches (ROADMAP 5.3).

A ``sys.settrace`` line collector, like the step counter of
``bench/steps.py`` and sharing its ``bench.layers.repro_relpath``.  It runs,
in one process and in this order: tier-1 (``pytest tests``), every
experiment with its baseline check (``repro run --all --check``), the five
sweeps of ``make fuzz-smoke``, the three differential scripts, the
telemetry, explain and trace smokes and the CLI's other commands, every
script of ``examples/``, and the four ``bench.workloads`` driven through
``bench.child.Driver``.
It then prints, per file, the executable lines no run reached, the
functions no run entered, the unreached count under tier-1 alone, and the
functions that tier-1 enters and no other run enters: code that only its
own tests call.  Each module is imported once, under tier-1, so a function
called only while its module is imported shows in that last list too.

    PYTHONPATH=src python benchmarks/line_reach.py           # = make line-reach

Everything is slower under the tracer (all runs together take about ten
minutes), so this is a tool to run by hand, not a CI step.  Nothing under
``src/repro`` is imported before the collector starts, so module bodies
count as reached when they are imported.
"""

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "repro")
for _path in (SRC, ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench.layers import repro_relpath  # noqa: E402  (imports no repro code)
from benchmarks.fuzz_smoke import SWEEPS  # noqa: E402  (imports no repro code)

DIFFERENTIALS = ("executor", "dht", "write")
WORKLOADS = ("ingest", "query_index", "query_docphase", "serve_churn")


class LineCollector:
    """Records every ``(file, line)`` of ``src/repro`` that runs, and the
    ``(file, first line)`` of every code object entered, for the current
    run."""

    def __init__(self):
        self.lines = set()
        self.entered = set()
        self._files = {}  # co_filename -> (relative path, local tracer), or None

    def _file(self, filename):
        rel = repro_relpath(os.path.abspath(filename), PACKAGE_DIR)
        if rel is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                self.lines.add((rel, frame.f_lineno))
            return local

        return rel, local

    def _on_call(self, frame, event, arg):
        code = frame.f_code
        try:
            known = self._files[code.co_filename]
        except KeyError:
            known = self._files[code.co_filename] = self._file(code.co_filename)
        if known is None:
            return None
        self.entered.add((known[0], code.co_firstlineno))
        return known[1]

    @contextlib.contextmanager
    def collecting(self):
        sys.settrace(self._on_call)
        try:
            yield
        finally:
            sys.settrace(None)


# -- the runs ------------------------------------------------------------------


def _cli(argv):
    from repro.cli import main

    return main(argv)


def run_tier1(tmp):
    import pytest

    return pytest.main(["-q", "-x", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])


def run_experiments(tmp):
    saved = os.getcwd()
    os.chdir(ROOT)  # the baselines are named relative to the repo root
    try:
        return _cli(["run", "--all", "--check"])
    finally:
        os.chdir(saved)


def run_fuzz(tmp):
    return max(_cli(["fuzz"] + flags.split()) or 0 for flags in SWEEPS)


def run_differentials(tmp):
    for name in DIFFERENTIALS:
        path = os.path.join(ROOT, "benchmarks", "%s_differential.py" % name)
        saved, sys.argv = sys.argv, [path]
        try:
            runpy.run_path(path, run_name="__main__")
        finally:
            sys.argv = saved
    return 0


def run_smokes(tmp):
    telemetry = os.path.join(tmp, "telemetry.json")
    codes = [
        _cli(["top", "--queries", "24", "--out", telemetry]),
        _cli(["explain", "//article//author"]),
        _cli(["trace", "demo", "--out", os.path.join(tmp, "trace.json")]),
        _cli(["top", "--queries", "24"]),
        _cli(["explain", "--json", "//article//author"]),
        _cli(["stats"]),
        _cli(["stats", "--json"]),
        _cli(["profile", "demo"]),
        _cli(["demo"]),
        _cli(["list"]),
    ]
    import json

    from repro.obs import validate_telemetry

    with open(telemetry) as handle:
        validate_telemetry(json.load(handle))
    return max(code or 0 for code in codes)


def run_examples(tmp):
    for name in sorted(os.listdir(os.path.join(ROOT, "examples"))):
        if name.endswith(".py"):
            runpy.run_path(os.path.join(ROOT, "examples", name), run_name="__main__")
    return 0


def run_workloads(tmp):
    from bench.child import Driver
    from bench.workloads import WORKLOADS as BENCH_WORKLOADS

    failed = 0
    for name in WORKLOADS:
        workload = BENCH_WORKLOADS[name](0, "full")
        workload.setup()
        driver = Driver()
        driver.system = workload.net
        driver.start()
        workload.run(driver)
        driver.stop()
        failed += driver.failed + len(driver.verify())
    return failed


RUNS = {
    "tier1": run_tier1,
    "experiments": run_experiments,
    "fuzz": run_fuzz,
    "differentials": run_differentials,
    "smokes": run_smokes,
    "examples": run_examples,
    "workloads": run_workloads,
}


# -- what could have run -------------------------------------------------------


def executable_lines(path):
    """Every line of ``path`` that starts an instruction, over all its
    code objects."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no line
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def functions(path):
    """``(qualname, first line incl. decorators, body lines)`` of every
    function of ``path``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                body = range(child.body[0].lineno, child.end_lineno + 1)
                found.append((prefix + child.name, first, body))
                walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def _ranges(lines):
    """``[3, 4, 5, 9]`` -> ``"3-5, 9"``."""
    out = []
    for line in sorted(lines):
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join("%d" % a if a == b else "%d-%d" % (a, b) for a, b in out)


def report(reached, tier1, entered, tier1_only):
    total = unreached_total = tier1_unreached = 0
    dead, tested_only = [], []
    print("unreached executable lines of src/repro, per file:")
    for dirpath, _, filenames in sorted(os.walk(PACKAGE_DIR)):
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, filename)
            rel = repro_relpath(path, PACKAGE_DIR)
            lines = executable_lines(path)
            missed = {line for line in lines if (rel, line) not in reached}
            total += len(lines)
            unreached_total += len(missed)
            tier1_unreached += sum((rel, line) not in tier1 for line in lines)
            if missed:
                print("  %-34s %4d  %s" % (rel, len(missed), _ranges(missed)))
            for qualname, first, body in functions(path):
                row = (rel, first, qualname, len(lines.intersection(body)))
                if (rel, first) not in entered:
                    dead.append(row)
                elif (rel, first) in tier1_only:
                    tested_only.append(row)
    print(
        "%d of %d executable lines unreached (%.1f %%); under tier-1 alone %d (%.1f %%)"
        % (
            unreached_total, total, 100.0 * unreached_total / total,
            tier1_unreached, 100.0 * tier1_unreached / total,
        )
    )
    for title, rows in (
        ("functions no run entered", dead),
        ("functions only tier-1 entered", tested_only),
    ):
        print("%d %s (%d body lines):" % (len(rows), title, sum(n for *_, n in rows)))
        for rel, first, qualname, body_lines in rows:
            print("  %s:%d %s (%d)" % (rel, first, qualname, body_lines))


def main():
    if "repro" in sys.modules:
        sys.exit("repro was imported before the collector started")
    collector = LineCollector()
    reached, tier1, status = set(), set(), []
    tier1_entered, others_entered = set(), set()
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in RUNS.items():
            collector.lines, collector.entered = set(), set()
            with collector.collecting(), contextlib.redirect_stdout(io.StringIO()):
                code = run(tmp)
            status.append("%s=%s" % (name, "ok" if not code else "FAILED(%s)" % code))
            reached |= collector.lines
            if name == "tier1":
                tier1, tier1_entered = collector.lines, collector.entered
            else:
                others_entered |= collector.entered
    print("runs: " + ", ".join(status))
    report(reached, tier1, tier1_entered | others_entered, tier1_entered - others_entered)
    return 1 if any("FAILED" in s for s in status) else 0


if __name__ == "__main__":
    sys.exit(main())
