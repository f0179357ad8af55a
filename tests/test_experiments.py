"""Smoke tests for every experiment driver, at tiny scale, and for the
table that lists them.

The full-scale shape assertions run in ``repro run --all --check`` (CI) and
``benchmarks/``; here each driver is exercised end-to-end quickly so a
broken driver fails the unit suite, and cheap invariants (determinism,
answer consistency) are verified.
"""

import importlib
import os
import pkgutil

import pytest

import repro.experiments
from repro.experiments import (
    EXPERIMENTS,
    dpp_order_ablation,
    fig2_indexing,
    fig3_query,
    fig7_reducers,
    fig9_fundex,
    filter_same_size,
    filter_sensitivity,
    pipeline_ablation,
    posting_skew,
    store_ablation,
    table1_dyadic,
    traffic,
)


class TestTable1:
    def test_rows_and_encoding_options(self):
        rows = table1_dyadic.run(scale=0.003)
        assert [r["dataset"] for r in rows] == [
            "IMDB", "XMark", "SwissProt", "NASA", "DBLP",
        ]
        for row in rows:
            assert 1.0 <= row["avg_cover"] <= 3.0
            assert row["two_l"] >= 32
        tag_rows = table1_dyadic.run(scale=0.003, encoding="tagpair")
        for compact, tag in zip(rows, tag_rows):
            assert tag["avg_cover"] >= compact["avg_cover"]

    def test_bad_encoding_rejected(self):
        with pytest.raises(ValueError):
            table1_dyadic.measure_dataset("DBLP", encoding="nope")

    def test_deterministic(self):
        a = table1_dyadic.run(scale=0.002)
        b = table1_dyadic.run(scale=0.002)
        assert a == b

    def test_format(self):
        text = table1_dyadic.format_rows(table1_dyadic.run(scale=0.002))
        assert "SwissProt" in text


class TestFig2:
    def test_single_series_runs(self):
        series = fig2_indexing.SERIES[0]
        points = fig2_indexing.run_series(
            series, [30_000, 60_000], peer_scale=0.05
        )
        assert len(points) == 2
        assert points[0][1] < points[1][1]

    def test_format(self):
        series = fig2_indexing.SERIES[0]
        results = {series.label: fig2_indexing.run_series(series, [30_000], peer_scale=0.05)}
        assert "published" in fig2_indexing.format_rows(results)


class TestFig3:
    def test_scaled_cost(self):
        cost = fig3_query.scaled_cost(0.01)
        assert cost.egress_bw < fig3_query.scaled_cost(1.0).egress_bw

    def test_variant_runs(self):
        points = fig3_query.run_variant(
            False, [100_000], num_peers=8, publishers=2,
            cost=fig3_query.scaled_cost(0.0001),
        )
        assert len(points) == 1
        assert points[0][1] > 0


class TestTraffic:
    def test_runs_and_linear_enough(self):
        points = traffic.run(
            sizes_bytes=[40_000, 80_000], num_peers=10, num_queries=8
        )
        assert len(points) == 2
        traffic.check_shape(points)

    def test_format(self):
        points = [(100_000, 50_000)]
        assert "0.10" in traffic.format_rows(points)


class TestPostingSkew:
    def test_small_sample(self):
        results = posting_skew.run(sample_bytes=100_000)
        posting_skew.check_shape(results)

    def test_format(self):
        text = posting_skew.format_rows(posting_skew.run(sample_bytes=60_000))
        assert "author" in text


class TestFilterSensitivity:
    def test_small_run(self):
        rows = filter_sensitivity.run(fp_rates=(0.01, 0.2), docs=6)
        assert len(rows) == 2
        for row in rows:
            assert 0 <= row["ab"] <= 1
            assert 0 <= row["db"] <= 1

    def test_ab_beats_single_trace(self):
        rows = filter_sensitivity.run(fp_rates=(0.2,), docs=8)
        assert rows[0]["ab"] <= rows[0]["ab_single_trace"] + 0.02


class TestFig7:
    @pytest.fixture(scope="class")
    def results(self):
        return fig7_reducers.run(num_peers=10, docs=12, doc_bytes=8_000)

    def test_panels_present(self, results):
        assert set(results) == {"a", "b", "c"}
        assert "subquery" in results["c"]
        assert "subquery" not in results["a"]

    def test_baseline_normalized_to_one(self, results):
        for panel in results.values():
            assert panel["baseline"]["total"] == 1.0

    def test_answers_agree_across_strategies(self, results):
        for panel in results.values():
            counts = {v["answers"] for v in panel.values()}
            assert len(counts) == 1

    def test_format(self, results):
        assert "panel" in fig7_reducers.format_rows(results)


class TestFig9:
    def test_tiny_run_ordering(self):
        results = fig9_fundex.run(sizes=[12, 24], num_peers=6, matches=2)
        fig9_fundex.check_shape(results)

    def test_format(self):
        results = {"Inlining": [(10, 0.5)]}
        assert "Inlining" in fig9_fundex.format_rows(results)


class TestStoreAblation:
    def test_speedup_grows(self):
        rows = store_ablation.run(list_sizes=(2_000, 8_000))
        assert rows[0][3] < rows[1][3]
        assert rows[1][3] > 10

    def test_format(self):
        text = store_ablation.format_rows(store_ablation.run(list_sizes=(1_000,)))
        assert "speedup" in text


class TestPipelineAblation:
    def test_runs(self):
        results = pipeline_ablation.run(docs=8, num_peers=6)
        assert results["blocking"]["answers"] == results["pipelined"]["answers"]
        assert (
            results["pipelined"]["time_to_first"]
            < results["blocking"]["time_to_first"]
        )


class TestDppOrderAblation:
    def test_full_shape(self):
        results = dpp_order_ablation.run(num_peers=10, docs=12)
        dpp_order_ablation.check_shape(results)


class TestSameSizeSweep:
    def test_psi_wins_at_equal_size(self):
        rows = filter_same_size.run(budget_bits_per_posting=(8, 16), docs=8)
        assert len(rows) == 2
        for row in rows:
            assert 0 <= row["psi"] <= 1
            assert row["filter_bytes"] > 0

    def test_format(self):
        rows = filter_same_size.run(budget_bits_per_posting=(8,), docs=6)
        assert "single-trace" in filter_same_size.format_rows(rows)


class TestTable:
    def test_every_driver_is_in_the_table(self):
        listed = [row.module for row in EXPERIMENTS.values()]
        assert len(set(listed)) == len(listed), "a driver is listed twice"
        for info in pkgutil.iter_modules(repro.experiments.__path__):
            module = importlib.import_module(
                "repro.experiments." + info.name
            )
            if hasattr(module, "run"):
                assert module in listed, "%s is not in EXPERIMENTS" % info.name

    def test_every_row_is_complete(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for name, row in EXPERIMENTS.items():
            assert row.name == name and row.description
            assert callable(row.run) and callable(row.format)
            assert callable(row.check), "%s has no shape predicate" % name
            if row.baseline is not None:
                assert os.path.exists(os.path.join(root, row.baseline)), name

    def test_store_predicate_tells_quadratic_from_linear(self):
        # 4x the data: PAST-style 16x, B+-tree 4x, as measured
        rows = [(20_000, 1.0, 0.25, 4.0, 0.2), (80_000, 16.0, 1.0, 16.0, 0.8)]
        store_ablation.check_shape(rows, min_final_speedup=10.0)
        linear_naive = [rows[0], (80_000, 4.4, 0.25, 17.6, 0.2)]
        with pytest.raises(AssertionError, match="not quadratic"):
            store_ablation.check_shape(linear_naive, min_final_speedup=10.0)
        quadratic_btree = [rows[0], (80_000, 80.0, 4.0, 20.0, 0.8)]
        with pytest.raises(AssertionError, match="not linear"):
            store_ablation.check_shape(quadratic_btree, min_final_speedup=10.0)
