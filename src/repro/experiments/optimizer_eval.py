"""Evaluation of the cost-based strategy optimizer (Sections 5.4 / 8).

The paper selects filter strategies with a selectivity heuristic and
announces a cost model + optimizer as work in progress.  This experiment
measures what that optimizer buys: over a mixed query workload, it runs
every fixed strategy plus the optimizer's choice, and reports index-phase
traffic per query.  The optimizer should track the best fixed strategy
closely and never pay much more than the baseline — while every fixed
strategy loses badly on *some* query.
"""

from repro.experiments.harness import dblp_network
from repro.kadop.config import KadopConfig

DESCRIPTION = "Strategy optimizer vs. fixed strategies"

WORKLOAD = [
    ('//article[. contains "Ullman"]', ()),
    ("//article//author//Ullman", ("Ullman",)),
    ("//article[//title]//author//Ullman", ("Ullman",)),
    ("//article//author", ()),
    ("//inproceedings//title", ()),
    ("//dblp//article//journal", ()),
    ('//inproceedings[. contains "Smith"]//title', ()),
]

STRATEGIES = (None, "ab", "db", "bloom", "subquery")


def _index_volume(report):
    return report.traffic.get("postings", 0) + report.traffic.get("filters", 0)


def run(num_peers=16, docs=30, doc_bytes=15_000, seed=0, workload=WORKLOAD):
    """Per-query volumes: ``[{query, baseline, ab, ..., auto, chosen}]``."""
    net = dblp_network(
        KadopConfig(replication=1), num_peers, docs, doc_bytes, seed=seed
    )
    rows = []
    for query, keywords in workload:
        row = {"query": query}
        for strategy in STRATEGIES:
            _, report = net.query_with_report(
                query, keyword_steps=keywords, strategy=strategy
            )
            row[strategy or "baseline"] = _index_volume(report)
        _, auto_report = net.query_with_report(
            query, keyword_steps=keywords, strategy="auto"
        )
        row["auto"] = _index_volume(auto_report)
        row["chosen"] = auto_report.chosen_strategy
        rows.append(row)
    return rows


def format_rows(rows):
    header = "%-44s %9s %9s %9s %9s %9s %9s  %s" % (
        "query", "baseline", "ab", "db", "bloom", "subquery", "auto", "chosen"
    )
    lines = [header]
    for row in rows:
        lines.append(
            "%-44s %9d %9d %9d %9d %9d %9d  %s"
            % (
                row["query"][:44],
                row["baseline"],
                row["ab"],
                row["db"],
                row["bloom"],
                row["subquery"],
                row["auto"],
                row["chosen"],
            )
        )
    return "\n".join(lines)


def check_shape(rows):
    """The optimizer's guarantees, given what index statistics can see.

    Per query it never pays noticeably more than shipping full lists (it
    deviates from the baseline only when its estimate predicts savings);
    across the workload it beats every fixed strategy, because each fixed
    strategy loses badly on some query while the optimizer's misses are
    bounded by the baseline.  (It can miss savings that come from purely
    *structural* selectivity inside documents — e.g. AB-filtering
    ``author`` by ``article`` when both occur in every document — which
    per-term (postings, documents) statistics cannot reveal.)"""
    fixed = ("baseline", "ab", "db", "bloom", "subquery")
    totals = {name: 0 for name in fixed + ("auto",)}
    for row in rows:
        # never much worse than shipping full lists
        assert row["auto"] <= row["baseline"] * 1.05 + 600, row
        for name in totals:
            totals[name] += row[name]
    # across the workload, auto beats every fixed strategy
    for name in fixed:
        assert totals["auto"] <= totals[name] * 1.05, (name, totals)
    # and captures a real share of the oracle-best savings
    oracle = sum(min(row[name] for name in fixed) for row in rows)
    assert totals["auto"] <= (totals["baseline"] + oracle) / 2 * 1.15
