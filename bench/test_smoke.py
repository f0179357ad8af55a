"""Smoke test of the benchmark: ``python -m pytest bench -q``.

Outside tier-1 ``testpaths``.  Runs every workload at ``--scale tiny``
(plain, counted and traced child each, under 30 s in all) and checks the
properties the benchmark's numbers rest on.
"""

import json
import os
import re
import sys

import pytest

from bench import metrics as M
from bench import run as R
from bench.layers import LAYERS

if R.SRC not in sys.path:
    sys.path.insert(0, R.SRC)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    tracer_slice = R.child("tracer_on", None, 0, "tiny")
    results = {}
    for workload in M.WORKLOAD_NAMES:
        trace_file = str(out / ("trace_%s.json" % workload))
        plain = R.child("plain", workload, 0, "tiny")
        counted = R.child("counted", workload, 0, "tiny", extra=("--count-setup",))
        traced = R.child("traced", workload, 0, "tiny", extra=("--trace-out", trace_file))
        results[workload] = {
            "reports": (plain, counted, traced),
            "end_to_end": M.end_to_end(plain, counted, [plain["setup_s"]]),
            "per_layer": M.per_layer(plain, counted, traced, tracer_slice),
            "trace_file": trace_file,
        }
    return results, tracer_slice


def test_names_and_units_are_well_formed():
    for name in M.WORKLOAD_NAMES:
        assert NAME.match(name)
    for table in (M.END_TO_END, M.PER_LAYER):
        for name, (unit, better) in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), (name, unit)
            assert better in ("lower", "higher")
    assert len(M.PER_LAYER) <= 128


def test_benchmark_json_matches_the_code():
    with open(os.path.join(R.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(M.WORKLOAD_NAMES)
    for key, table in (("end_to_end", M.END_TO_END), ("per_layer", M.PER_LAYER)):
        assert [m["name"] for m in spec[key]] == list(table)
        for metric in spec[key]:
            assert (metric["unit"], metric["better"]) == table[metric["name"]]
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_per_layer_metric_names_an_end_to_end_target():
    for name in M.PER_LAYER:
        targets = M.targets_of(name)
        assert targets, name
        for metric, workloads in targets:
            assert metric in M.END_TO_END, (name, metric)
            assert set(workloads) <= set(M.WORKLOAD_NAMES), (name, workloads)


def test_every_metric_is_reported_and_no_op_fails(measured):
    results, _ = measured
    for workload, result in results.items():
        assert set(result["end_to_end"]) == set(M.END_TO_END)
        assert set(result["per_layer"]) == set(M.PER_LAYER)
        assert all(v > 0 for v in result["end_to_end"].values()), workload
        assert R.run_problems(result["reports"]) == []
        for report in result["reports"]:
            assert report["failed"] == 0 and report["attempted"] >= report["ops"]


def test_layer_steps_sum_to_the_total_and_bypassed_layers_are_zero(measured):
    results, _ = measured
    for workload, result in results.items():
        steps_per_op = result["end_to_end"]["pysteps_per_op"]
        assert M.layer_checks(workload, result["per_layer"], steps_per_op) == []
        assert steps_per_op == pytest.approx(
            sum(result["per_layer"]["%s.pysteps_per_op" % l] for l in LAYERS)
        )
    ingest = results["ingest"]["per_layer"]
    assert all(ingest["query.%s.pysteps_per_op" % m] == 0
               for m in ("twigjoin", "block_join", "matcher"))
    churn = results["serve_churn"]["per_layer"]
    assert all(churn["%s.pysteps_per_op" % l] > 0
               for l in ("bloom", "views", "balance", "kadop.serving"))


def test_trace_files_validate(measured):
    from repro.obs import validate_trace_file

    results, _ = measured
    for workload, result in results.items():
        traced = result["reports"][2]
        assert traced["trace_error"] is None
        assert traced["spans_missing"] == []
        assert validate_trace_file(result["trace_file"]) == traced["trace_events"]
        with open(result["trace_file"]) as handle:
            event = json.load(handle)["traceEvents"][0]
        assert {"id", "parent", "op_id"} <= set(event["args"])


def test_program_tracer_changes_no_answer(measured):
    _, tracer_slice = measured
    assert tracer_slice["identical"]
    assert tracer_slice["obs_steps_off"] == 0
    assert tracer_slice["steps_on"] > tracer_slice["steps_off"]


def test_a_corrupted_answer_counts_as_a_failed_op():
    from bench import child as C
    from bench.workloads import WORKLOADS

    workload = WORKLOADS["query_docphase"](0, "tiny")
    workload.setup()
    driver = C.Driver()
    driver.system = workload.net
    driver.start()
    workload.run(driver)
    driver.stop()
    key = next(k for k, seen in driver.checks.items() if seen[0][1])
    op_index, answers = driver.checks[key][0]
    driver.checks[key][0] = (op_index, frozenset(list(answers)[1:]))
    mismatches = driver.verify()
    assert [m["op"] for m in mismatches] == [op_index]
    assert driver.failed == 1 and driver.failed / driver.attempted > 0


def test_compare_verdicts():
    assert M.verdict("pysteps_per_op", 1000.0, 1000.0)[0] == "unchanged"
    assert M.verdict("pysteps_per_op", 1000.0, 999.0)[0] == "improved"
    assert M.verdict("pysteps_per_op", 1000.0, 1004.0)[0] == "unchanged"
    assert M.verdict("pysteps_per_op", 1000.0, 1006.0)[0] == "worse"
    assert M.verdict("peak_rss_mb", 100.0, 105.0)[0] == "unchanged"
    assert M.verdict("peak_rss_mb", 100.0, 111.0)[0] == "worse"
    assert M.verdict("setup_s", 1.0, 1.2, spread=0.6)[0] == "unresolved"
    assert M.verdict("setup_s", 1.0, 0.3, spread=0.6)[0] == "improved"
    assert M.verdict("setup_s", 1.0, 1.6, spread=0.6)[0] == "worse"
