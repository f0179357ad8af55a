"""The repo benchmark gate (``benchmarks/e2e_gate.py``) over synthetic
results: the committed ``BENCH_e2e.json`` against edited copies of itself."""

import copy
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHARE = "obs.tracer_on_pysteps_share"


def _gate():
    spec = importlib.util.spec_from_file_location(
        "e2e_gate", os.path.join(ROOT, "benchmarks", "e2e_gate.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def baseline():
    with open(os.path.join(ROOT, "BENCH_e2e.json")) as handle:
        return json.load(handle)


def _run(tmp_path, base, new):
    paths = []
    for name, payload in (("base.json", base), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    return _gate().main(*paths)


def _with_share(baseline, workload, factor):
    new = copy.deepcopy(baseline)
    new["workloads"][workload]["per_layer"][SHARE] *= factor
    return new


def test_identical_result_passes(tmp_path, baseline, capsys):
    assert _run(tmp_path, baseline, baseline) == 0
    assert "e2e gate: passed" in capsys.readouterr().out


def test_tracer_share_rise_on_query_docphase_is_red(tmp_path, baseline, capsys):
    assert _run(tmp_path, baseline, _with_share(baseline, "query_docphase", 1.01)) == 1
    out = capsys.readouterr().out
    assert "RED query_docphase: %s rose +1.00%%" % SHARE in out


def test_tracer_share_within_bound_or_falling_passes(tmp_path, baseline):
    for factor in (1.004, 0.5):
        new = _with_share(baseline, "query_docphase", factor)
        assert _run(tmp_path, baseline, new) == 0, factor


def test_tracer_share_is_gated_on_query_docphase_only(tmp_path, baseline):
    assert _run(tmp_path, baseline, _with_share(baseline, "ingest", 2.0)) == 0
