"""Figure 7: normalized data volume of the Bloom-based strategies.

Three queries over the DBLP-like corpus, as in the paper:

(a) ``//article[. contains "Ullman"]``
(b) ``//article//author[. contains "Ullman"]``
(c) ``//article[//title]//author[. contains "Ullman"]`` — plus the
    Sub-query Reducer applied to the ``//article//author[Ullman]`` subset.

For each strategy the *normalized data volume* is the strategy's total
index-phase transfer (filters + reduced posting lists) divided by the
volume the conventional strategy ships (the full posting lists).  AB and
DB filters are initialized with basic false-positive rates of 20% and 1%
respectively, as in Section 5.4.
"""

from repro.experiments.harness import dblp_network
from repro.kadop.config import KadopConfig

DESCRIPTION = "Figure 7: Bloom reducer data volumes"

QUERIES = {
    "a": ('//article[. contains "Ullman"]', ()),
    "b": ("//article//author//Ullman", ("Ullman",)),
    "c": ("//article[//title]//author//Ullman", ("Ullman",)),
}

STRATEGIES = ("ab", "db", "bloom")


def _index_volume(report):
    """Bytes the index phase shipped (everything except final answers)."""
    return report.traffic.get("postings", 0) + report.traffic.get("filters", 0)


def run_query(net, query, keywords, include_subquery=False):
    """Normalized volumes for one query.

    Returns ``{strategy: {total, postings, filters}}``, volumes normalized
    by the no-filter baseline's posting volume.
    """
    baseline_answers, base = net.query_with_report(query, keyword_steps=keywords)
    base_volume = base.traffic.get("postings", 0)
    results = {
        "baseline": {
            "total": 1.0,
            "postings": 1.0,
            "filters": 0.0,
            "answers": len(baseline_answers),
        }
    }
    strategies = STRATEGIES + (("subquery",) if include_subquery else ())
    for strategy in strategies:
        answers, report = net.query_with_report(
            query, keyword_steps=keywords, strategy=strategy
        )
        assert len(answers) == len(baseline_answers), "strategies must agree"
        results[strategy] = {
            "total": _index_volume(report) / base_volume,
            "postings": report.traffic.get("postings", 0) / base_volume,
            "filters": report.traffic.get("filters", 0) / base_volume,
            "answers": len(answers),
        }
    return results


def run(num_peers=16, docs=30, doc_bytes=15_000, seed=0):
    """All three Figure 7 panels: ``{panel: {strategy: volumes}}``, over
    enough DBLP data for 'Ullman' to occur."""
    config = KadopConfig(replication=1, ab_fp_rate=0.20, db_fp_rate=0.01)
    net = dblp_network(config, num_peers, docs, doc_bytes, seed=seed)
    return {
        "a": run_query(net, *QUERIES["a"]),
        "b": run_query(net, *QUERIES["b"]),
        "c": run_query(net, *QUERIES["c"], include_subquery=True),
    }


def format_rows(results):
    lines = [
        "%-6s %-12s %10s %10s %10s"
        % ("panel", "strategy", "total", "postings", "filters")
    ]
    for panel, by_strategy in results.items():
        for strategy, vols in by_strategy.items():
            lines.append(
                "%-6s %-12s %10.3f %10.3f %10.3f"
                % (panel, strategy, vols["total"], vols["postings"], vols["filters"])
            )
    return "\n".join(lines)


def check_shape(results):
    """The qualitative claims of Figure 7."""
    a, b, c = results["a"], results["b"], results["c"]

    # (a): DB Reducer saves heavily; AB Reducer costs more than baseline
    assert a["db"]["total"] < 0.35
    assert a["ab"]["total"] > 1.0
    assert a["db"]["total"] < a["bloom"]["total"] < a["ab"]["total"]

    # (b): with the huge author list in play every strategy helps,
    # DB Reducer remains dominant
    assert b["db"]["total"] < 0.6
    assert b["ab"]["total"] < 1.0
    assert b["db"]["total"] <= min(b["ab"]["total"], b["bloom"]["total"])

    # (c): the title branch spoils all whole-query strategies...
    assert min(c["ab"]["total"], c["db"]["total"], c["bloom"]["total"]) > 0.5
    # ...while sub-query reduction still saves substantially
    assert c["subquery"]["total"] < 0.6
    assert c["subquery"]["total"] < min(
        c["ab"]["total"], c["db"]["total"], c["bloom"]["total"]
    )
