"""Shared helpers for the benchmark harness.

``test_paper_shapes.py`` regenerates every table/figure of the paper at a
reduced scale (see DESIGN.md for the substitution notes), prints the
paper-style rows, asserts the qualitative *shape* of the result (who wins,
by what rough factor), and reports the data through pytest-benchmark's
``extra_info`` so it lands in the benchmark JSON.
"""

import pytest


@pytest.fixture
def experiment(benchmark):
    """Run one row of ``repro.experiments.EXPERIMENTS`` once under the
    benchmark, print and validate."""

    def runner(row):
        result = benchmark.pedantic(row.run, rounds=1, iterations=1)
        table = row.format(result)
        print("\n== %s ==\n%s" % (row.description, table))
        benchmark.extra_info["table"] = table
        row.check(result)
        return result

    return runner
