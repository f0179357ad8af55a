"""The repo benchmark gate (``benchmarks/e2e_gate.py``) over synthetic
results: the committed ``BENCH_e2e.json`` against edited copies of itself,
with the gate's ``bench/child.py --mode tracer_on`` run replaced by a slice
around its committed cost."""

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


def _run(tmp_path, monkeypatch, base, new, factor=1.0):
    """Gate ``new`` against ``base`` with a tracer slice whose extra steps
    per query are ``factor`` times the gate's committed cost."""
    gate = _gate()

    def child(mode, workload, seed, scale):
        assert (mode, seed, scale) == ("tracer_on", new["meta"]["seed"], new["meta"]["scale"])
        queries, steps_off = 20, 100_000
        extra = round(gate.TRACER_STEPS_PER_QUERY * factor * queries)
        return {"queries": queries, "steps_off": steps_off, "steps_on": steps_off + extra}

    monkeypatch.setattr(gate.R, "child", child)
    paths = []
    for name, payload in (("base.json", base), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    return gate.main(*paths)


def test_identical_result_passes(tmp_path, monkeypatch, baseline, capsys):
    assert _run(tmp_path, monkeypatch, baseline, baseline) == 0
    assert "e2e gate: passed" in capsys.readouterr().out


def test_tracer_cost_rise_is_red(tmp_path, monkeypatch, baseline, capsys):
    assert _run(tmp_path, monkeypatch, baseline, baseline, 1.01) == 1
    out = capsys.readouterr().out
    assert "RED tracer: extra steps per query rose +1.00%" in out


def test_tracer_cost_within_bound_or_falling_passes(tmp_path, monkeypatch, baseline):
    for factor in (1.004, 0.5):
        assert _run(tmp_path, monkeypatch, baseline, baseline, factor) == 0, factor


def test_tracer_share_is_not_gated(tmp_path, monkeypatch, baseline):
    """The share's denominator falls with every speed-up of the untraced
    run, so a rise of the share alone passes."""
    new = copy.deepcopy(baseline)
    new["workloads"]["query_docphase"]["per_layer"][SHARE] *= 2.0
    assert _run(tmp_path, monkeypatch, baseline, new) == 0
