"""The step profile of ``benchmarks/step_profile.py``: each run in one
process counts from cold memos, and the inclusive profile is exact from
call and return events, so each function's inclusive count is at least its
own, recursion counts once, and the functions the driver calls sum to the
total."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def step_profile():
    spec = importlib.util.spec_from_file_location(
        "step_profile", os.path.join(ROOT, "benchmarks", "step_profile.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _by_name(counter):
    return {row[4]: row for row in counter.inclusive_rows()}


def test_tiny_ingest_counts_are_exact(step_profile):
    counter, ops = step_profile.profile("ingest", 0, "tiny", inclusive=True)
    assert ops > 0 and counter.total() > 0
    assert counter.check() == []
    for code, cell in counter.steps.items():
        assert counter.inclusive[code] >= cell[0], code.co_qualname
    assert sum(counter.roots.values()) == counter.total()
    send = _by_name(counter)["Publisher._send"]
    assert send[0] > send[1]  # the DHT writes under it are its callees'
    # the step clock counts exactly the steps the self profile charges
    assert counter.total() == sum(cell[0] for cell in counter.steps.values())


def test_recursion_counts_once(step_profile):
    from repro.storage.bptree import BPlusTree

    counter = step_profile.InclusiveStepCounter(step_profile.C.PACKAGE_DIR)
    tree = BPlusTree(order=4)
    counter.start()
    for number in range(200):
        tree.insert(b"%04d" % number)  # _insert recurses once per inner level
    counter.stop()
    rows = _by_name(counter)
    assert rows["BPlusTree._insert"][0] <= rows["BPlusTree.insert"][0]
    assert counter.roots.keys() == {BPlusTree.insert.__code__}
    assert sum(counter.roots.values()) == counter.total()
    assert counter.check() == []


def test_a_second_profile_in_one_process_counts_the_same(step_profile):
    """The memos the first run warms are emptied before the second, so
    both count a cold run."""
    first, ops = step_profile.profile("ingest", 0, "tiny")
    second, again = step_profile.profile("ingest", 0, "tiny")
    assert (second.total(), again) == (first.total(), ops)
