"""Experiment drivers: one module per table/figure of the paper, one table
of them all, one gate.

A driver module defines, by convention, ``DESCRIPTION``, ``run`` (whose
defaults are the documented scale), ``format_rows`` and ``check_shape``
(raises ``AssertionError`` when the paper's qualitative shape — who wins,
by roughly what factor, where crossovers fall — is broken).  A driver
whose result is committed as a regression baseline also names the file in
``BASELINE`` and may define ``baseline_rows`` (the part of the result the
file holds).  :data:`EXPERIMENTS` lists them; ``repro list`` / ``repro
run``, ``benchmarks/test_paper_shapes.py`` and CI are callers of that
table.  Absolute magnitudes come from the calibrated cost model;
EXPERIMENTS.md records paper-vs-measured values for each experiment.
"""

import inspect
import json
import math

from repro.experiments import (
    block_pruning,
    charts,
    dpp_order_ablation,
    fault_tolerance,
    fig2_indexing,
    fig3_query,
    fig7_reducers,
    fig9_fundex,
    filter_same_size,
    filter_sensitivity,
    ingest,
    optimizer_eval,
    pipeline_ablation,
    posting_skew,
    serving,
    skew_balance,
    store_ablation,
    table1_dyadic,
    traffic,
    view_warmup,
)

#: relative slack on every number of a committed baseline: the simulated
#: fields regenerate bit for bit on one interpreter, the slack is for
#: float differences across interpreter versions
BASELINE_TOLERANCE = 0.02


class Experiment:
    """One row of :data:`EXPERIMENTS`, read off its driver module."""

    def __init__(self, name, module):
        self.name = name
        self.module = module
        self.description = module.DESCRIPTION
        self.run = module.run
        self.format = module.format_rows
        self.check = module.check_shape
        #: keyword arguments ``run`` accepts (``telemetry``, ``tracer``, ...)
        self.run_options = frozenset(inspect.signature(module.run).parameters)
        #: ASCII renderer of the result, for the figures that have one
        self.chart = getattr(charts, "chart_" + name, None)
        #: the committed baseline's file name, or None
        self.baseline = getattr(module, "BASELINE", None)
        #: the part of a result that file holds (all of it unless given)
        self.baseline_rows = getattr(module, "baseline_rows", lambda rows: rows)

    def baseline_text(self, result):
        """The bytes of the baseline file that ``result`` regenerates."""
        return (
            json.dumps(self.baseline_rows(result), indent=2, sort_keys=True)
            + "\n"
        )

    def baseline_diffs(self, result):
        """``["path: committed X, got Y"]`` for every leaf of ``result``
        that left the committed baseline (read from the working directory):
        keys, strings and booleans must be equal, numbers within
        :data:`BASELINE_TOLERANCE`."""
        with open(self.baseline) as handle:
            committed = json.load(handle)
        return list(_diffs("", committed, json.loads(self.baseline_text(result))))


def _diffs(path, committed, got):
    if isinstance(committed, dict) and isinstance(got, dict):
        for key in sorted(set(committed) | set(got)):
            where = "%s.%s" % (path, key) if path else key
            if key not in got:
                yield "%s: missing from the result" % where
            elif key not in committed:
                yield "%s: not in the committed baseline" % where
            else:
                yield from _diffs(where, committed[key], got[key])
    elif isinstance(committed, list) and isinstance(got, list):
        if len(committed) != len(got):
            yield "%s: committed %d items, got %d" % (path, len(committed), len(got))
        for i, pair in enumerate(zip(committed, got)):
            yield from _diffs("%s[%d]" % (path, i), *pair)
    elif _is_number(committed) and _is_number(got):
        if not math.isclose(committed, got, rel_tol=BASELINE_TOLERANCE):
            yield "%s: committed %r, got %r" % (path, committed, got)
    elif committed != got or type(committed) is not type(got):
        yield "%s: committed %r, got %r" % (path, committed, got)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: name -> :class:`Experiment`, in the order ``repro run --all`` runs them
EXPERIMENTS = {
    name: Experiment(name, module)
    for name, module in (
        ("fig2", fig2_indexing),
        ("fig3", fig3_query),
        ("traffic", traffic),
        ("postskew", posting_skew),
        ("skew", skew_balance),
        ("table1", table1_dyadic),
        ("sensitivity", filter_sensitivity),
        ("samesize", filter_same_size),
        ("fig7", fig7_reducers),
        ("fig9", fig9_fundex),
        ("store", store_ablation),
        ("ingest", ingest),
        ("pipeline", pipeline_ablation),
        ("dpporder", dpp_order_ablation),
        ("blocks", block_pruning),
        ("optimizer", optimizer_eval),
        ("views", view_warmup),
        ("faults", fault_tolerance),
        ("serve", serving),
    )
}
