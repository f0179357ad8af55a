"""The knob table in DESIGN.md backs every ``KadopConfig`` field.

Each row names a field, its values and its evidence: an experiment
(``repro run NAME``, with the ``BENCH_*.json`` file that gates it), a
workload of the repo benchmark, or a robustness test.  A field added
without a row, a row left behind by a deleted field, or evidence that
names something that no longer exists fails here.
"""

import ast
import dataclasses
import os
import re
import sys

import pytest

from repro.experiments import EXPERIMENTS
from repro.kadop.config import KadopConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.workloads import WORKLOADS  # noqa: E402

EXPERIMENT = re.compile(r"^`repro run (\w+)`(?: \(`(BENCH_\w+\.json)`\))?$")
WORKLOAD = re.compile(r"^workload `(\w+)`$")
TEST = re.compile(r"^`(tests/\w+\.py)::(?:(\w+)::)?(\w+)`$")


def knob_rows():
    """``[(field, evidence items)]`` of the table, in order."""
    with open(os.path.join(ROOT, "DESIGN.md")) as handle:
        text = handle.read()
    section = text.split("\n## Knob table\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        field = cells[0].strip("`")
        rows.append((field, [item.strip() for item in cells[-1].split(";")]))
    return rows


ROWS = knob_rows()


def defined_tests(path):
    """``{(class or None, function)}`` of the test functions in ``path``."""
    with open(os.path.join(ROOT, path)) as handle:
        tree = ast.parse(handle.read())
    found = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.add((None, node.name))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found.add((node.name, item.name))
    return found


def evidence_problem(item):
    """Why ``item`` is not evidence, or None when it is."""
    match = EXPERIMENT.match(item)
    if match:
        name, baseline = match.groups()
        if name not in EXPERIMENTS:
            return "no experiment %r" % name
        if baseline is not None and baseline != EXPERIMENTS[name].baseline:
            return "experiment %r is not gated by %s" % (name, baseline)
        return None
    match = WORKLOAD.match(item)
    if match:
        return None if match.group(1) in WORKLOADS else "no workload %r" % match.group(1)
    match = TEST.match(item)
    if match:
        path, cls, func = match.groups()
        if not os.path.exists(os.path.join(ROOT, path)):
            return "no test file %s" % path
        if (cls, func) not in defined_tests(path):
            return "%s defines no %s" % (path, "::".join(filter(None, (cls, func))))
        return None
    return "not an experiment, workload or test: %r" % item


def test_rows_are_exactly_the_config_fields():
    assert [field for field, _ in ROWS] == [
        f.name for f in dataclasses.fields(KadopConfig)
    ]


@pytest.mark.parametrize("field, evidence", ROWS, ids=[field for field, _ in ROWS])
def test_evidence_exists(field, evidence):
    problems = [p for p in map(evidence_problem, evidence) if p is not None]
    assert not problems, problems


def test_a_missing_name_is_caught():
    assert evidence_problem("`repro run nosuch`") == "no experiment 'nosuch'"
    assert evidence_problem("`repro run serve` (`BENCH_skew.json`)")
    assert evidence_problem("workload `nosuch`") == "no workload 'nosuch'"
    assert evidence_problem("`tests/test_knob_table.py::test_nosuch`")
    assert evidence_problem("`tests/test_nosuch.py::test_x`")
    assert evidence_problem("measured once by hand")
    assert evidence_problem("`tests/test_knob_table.py::test_evidence_exists`") is None
