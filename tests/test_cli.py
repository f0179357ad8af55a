"""Tests for the command-line interface."""

import json
import os
import shutil

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == list(EXPERIMENTS)

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "1 answer" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "nonsense"]) == 2

    def test_run_nothing(self, capsys):
        assert main(["run"]) == 2

    def test_run_one(self, capsys):
        assert main(["run", "dpporder"]) == 0
        out = capsys.readouterr().out
        assert "ordered" in out and "shape: OK" in out

    def test_module_entry_point_exists(self):
        import importlib.util

        assert importlib.util.find_spec("repro.__main__") is not None


class TestBaselineGate:
    """``run --check`` / ``--write`` on the two cheapest experiments."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def _committed(self):
        with open(os.path.join(ROOT, "BENCH_blocks.json")) as handle:
            return json.load(handle)

    def test_check_passes_against_the_committed_file(self, workdir, capsys):
        shutil.copy(os.path.join(ROOT, "BENCH_blocks.json"), workdir)
        assert main(["run", "blocks", "dpporder", "--check"]) == 0
        out = capsys.readouterr().out
        assert out.count("shape: OK") == 2
        assert "baseline BENCH_blocks.json: OK" in out

    def test_a_moved_leaf_fails_and_is_named(self, workdir, capsys):
        baseline = self._committed()
        baseline["lazy"]["blocks_fetched"] += 1
        (workdir / "BENCH_blocks.json").write_text(json.dumps(baseline))
        assert main(["run", "blocks", "--check"]) == 1
        captured = capsys.readouterr()
        assert "baseline BENCH_blocks.json: FAILED" in captured.out
        assert "blocks: BENCH_blocks.json: lazy.blocks_fetched: " in captured.err
        assert captured.err.count("BENCH_blocks.json") == 1  # no other leaf

    def test_a_missing_key_fails_and_is_named(self, workdir, capsys):
        baseline = self._committed()
        del baseline["window"]["fetch_bytes"]
        (workdir / "BENCH_blocks.json").write_text(json.dumps(baseline))
        assert main(["run", "blocks", "--check", "--json"]) == 1
        captured = capsys.readouterr()
        json.loads(captured.out)  # diagnostics stay off stdout
        assert "blocks: BENCH_blocks.json: window.fetch_bytes: " in captured.err

    def test_a_failed_shape_is_named_and_the_rest_still_runs(
        self, workdir, capsys, monkeypatch
    ):
        def broken(result):
            raise AssertionError("winner flipped")

        shutil.copy(os.path.join(ROOT, "BENCH_blocks.json"), workdir)
        monkeypatch.setattr(EXPERIMENTS["dpporder"], "check", broken)
        assert main(["run", "dpporder", "blocks", "--check"]) == 1
        captured = capsys.readouterr()
        assert "shape: FAILED (winner flipped)" in captured.out
        assert "baseline BENCH_blocks.json: OK" in captured.out
        assert captured.err.strip() == "failed: dpporder"

    def test_write_reproduces_the_committed_bytes(self, workdir, capsys):
        assert main(["run", "blocks", "dpporder", "--write"]) == 0
        assert os.listdir(workdir) == ["BENCH_blocks.json"]
        with open(os.path.join(ROOT, "BENCH_blocks.json"), "rb") as handle:
            assert (workdir / "BENCH_blocks.json").read_bytes() == handle.read()

    def test_telemetry_rows_are_not_gated(self, capsys):
        assert main(["run", "blocks", "--check", "--telemetry"]) == 2
        assert main(["run", "blocks", "--write", "--telemetry"]) == 2


class TestJsonOutput:
    def test_run_json_is_machine_readable(self, capsys):
        assert main(["run", "dpporder", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        rec = records[0]
        assert rec["experiment"] == "dpporder"
        assert rec["shape_ok"] is True
        assert rec["shape_error"] is None
        assert rec["result"]  # the raw rows survived the conversion

    def test_stats_json_carries_network(self, capsys):
        assert main(["stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"schema_version", "network"}
        assert payload["schema_version"] == 2
        assert payload["network"]["total_postings"] > 0
        assert 0.0 <= payload["network"]["gini"] <= 1.0


class TestTraceAndProfile:
    def test_trace_demo_writes_valid_trace(self, tmp_path, capsys):
        from repro.obs import validate_trace_file

        out = tmp_path / "trace.json"
        assert main(["trace", "demo", "-o", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert validate_trace_file(out) > 0

    def test_trace_query_target(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        assert main(["trace", "//article//author", "-o", str(out)]) == 0
        trace = json.loads(out.read_text())
        cats = {e.get("cat") for e in trace["traceEvents"]}
        assert {"query", "dht", "dht-hop"} <= cats

    @pytest.mark.parametrize("command", [["explain"], ["trace"], ["profile"]])
    def test_unindexable_query_is_one_line_and_non_zero(self, command, tmp_path, capsys):
        out = ["-o", str(tmp_path / "t.json")] if command == ["trace"] else []
        assert main(command + ["//*"] + out) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "UnindexableQueryError: query '//*' has no indexable term; the index cannot prune it"
        ]
        assert not (tmp_path / "t.json").exists()

    def test_profile_demo_reports_tables(self, capsys):
        assert main(["profile", "demo", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "top spans by simulated self-time" in out
        assert "per-resource utilization" in out
        assert "queue wait" in out
