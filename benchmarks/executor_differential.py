"""Seeded configuration differential for ``QueryExecutor`` refactors.

Publishes one seeded 24-document corpus (16 DBLP-like documents and 8
INEX-like records whose abstracts are includes) on 8 peers, once per
configuration, and runs one fixed query mix from rotating source peers
with the tracer on.  The configurations cover every fetch path and exit
of the executor: blocking / pipelined ``get``; DPP eager /
window / lazy and unordered splits; the ``ab`` /
``db`` / ``bloom`` / ``subquery`` / ``auto`` / ``pushdown`` strategies;
auto-materialised views (the nested run and the view-hit exit); LSM;
Chord; a dead document peer; a drop-rate ``FaultPlan``; a coalescing
``serve()`` stream; the four Fundex modes.  One digest line per
configuration hashes every answer, report (fields that differ from
their dataclass default, floats by ``repr``), meter total and span.
``--dump FILE`` writes the undigested log.  Two checkouts behave
identically when their outputs are byte-equal, under any
``PYTHONHASHSEED``:

    PYTHONHASHSEED=1 PYTHONPATH=<parent>/src python benchmarks/executor_differential.py > a
    PYTHONHASHSEED=2 PYTHONPATH=src python benchmarks/executor_differential.py > b
    cmp a b
"""

import argparse
import dataclasses
import hashlib

from repro.faults import FaultPlan
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.workloads.dblp import DblpGenerator
from repro.workloads.inex import InexGenerator

DOCS = 24
PEERS = 8
SOURCES = 5  # queries start at peers 0-4; peer 6 is the one that may die

QUERIES = (
    "//article//author",
    "//article[//title]//author",
    "//dblp//article//journal",
    "//inproceedings[//year]//title",
    "//article[contains(.//title,'system')]//author",
    "//*[//author]//journal",  # a forest: two index components intersected
    "//article[contains(.//title,'system') and contains(.//abstract,'interface')]",
    "//article//nosuchlabel",
)

FUNDEX_QUERIES = (QUERIES[6], "//article[contains(.//abstract,'interface')]")

DROPS = dict(seed=7, drop_rate=0.3, delay_rate=0.1, task_jitter_rate=0.2)
DPP = dict(use_dpp=True, dpp_block_entries=16)

#: name -> (config overrides, scenario, scenario arguments)
CONFIGS = (
    ("get-blocking", dict(pipelined_get=False), "queries", {}),
    ("get-pipelined", dict(chunk_postings=16), "queries", {}),
    ("dpp-eager", dict(DPP, dpp_fetch_mode="eager"), "queries", {}),
    ("dpp-window", dict(DPP, dpp_fetch_mode="window"), "queries", {}),
    ("dpp-lazy", dict(DPP, dpp_fetch_mode="lazy"), "queries", {}),
    (
        "dpp-lazy-unordered",
        dict(DPP, dpp_fetch_mode="lazy", dpp_ordered_splits=False),
        "queries", {},
    ),
    (
        "dpp-eager-unordered",
        dict(DPP, dpp_fetch_mode="eager", dpp_ordered_splits=False),
        "queries", {},
    ),
    ("filter-ab", dict(filter_strategy="ab"), "queries", {}),
    ("filter-db", dict(filter_strategy="db"), "queries", {}),
    ("filter-bloom", dict(filter_strategy="bloom"), "queries", {}),
    ("filter-subquery", dict(filter_strategy="subquery"), "queries", {}),
    ("filter-auto", dict(filter_strategy="auto"), "queries", {}),
    ("filter-pushdown", dict(filter_strategy="pushdown"), "queries", {}),
    (
        "views-auto",
        dict(use_views=True, view_auto_materialize_after=2),
        "queries", {"rounds": 3},
    ),
    (
        "views-forced-dpp",
        dict(DPP, use_views=True, view_auto_materialize_after=1, view_cost_based=False),
        "queries", {"rounds": 2},
    ),
    ("lsm", dict(store_backend="lsm"), "queries", {}),
    ("chord", dict(overlay="chord"), "queries", {}),
    ("dead-doc-peer", dict(replication=2), "queries", {"crash": 6}),
    ("drops-plain", dict(op_max_retries=1), "queries", {"faults": DROPS}),
    ("drops-dpp-lazy", dict(DPP, op_max_retries=1), "queries", {"faults": DROPS}),
    (
        "drops-dpp-window",
        dict(DPP, dpp_fetch_mode="window", op_max_retries=1),
        "queries", {"faults": DROPS},
    ),
    (
        "drops-db",
        dict(filter_strategy="db", op_max_retries=1),
        "queries", {"faults": DROPS},
    ),
    (
        "drops-pushdown",
        dict(filter_strategy="pushdown", op_max_retries=1),
        "queries", {"faults": DROPS},
    ),
    (
        "drops-views",
        dict(use_views=True, view_auto_materialize_after=2, op_max_retries=1),
        "queries", {"faults": DROPS, "rounds": 3},
    ),
    ("serve-coalesce", dict(max_inflight=3), "serve", {}),
    (
        "serve-views-dpp",
        dict(DPP, use_views=True, view_auto_materialize_after=2),
        "serve", {},
    ),
    ("serve-drops", dict(op_max_retries=1), "serve", {"faults": DROPS}),
    ("fundex-plain", {}, "fundex", {}),
    ("fundex-dpp-lazy", dict(DPP), "fundex", {}),
    ("fundex-dpp-window", dict(DPP, dpp_fetch_mode="window"), "fundex", {}),
    (
        "fundex-blackout-fresh",
        dict(op_max_retries=0),
        "fundex", {"faults": dict(seed=1, drop_rate=1.0)},
    ),
    (
        "fundex-blackout-after-query",
        dict(op_max_retries=0),
        "fundex", {"faults": dict(seed=1, drop_rate=1.0), "query_first": True},
    ),
)


def build(overrides):
    config = KadopConfig(**dict({"replication": 1}, **overrides))
    system = KadopNetwork.create(PEERS, config=config, seed=3)
    dblp = DblpGenerator(seed=11, target_doc_bytes=1500)
    inex = InexGenerator(seed=5, match_count=3, collection_size=DOCS // 3)
    inex.register_abstracts(system, DOCS // 3)
    for i in range(DOCS):
        text = inex.document(i // 3) if i % 3 == 2 else dblp.document(i)
        # one record has its abstract inlined: an extensional match among
        # the intensional ones, which Fundex must keep
        system.peers[i % PEERS].publish(text, uri="diff:%d" % i, inline=i == 11)
    return system


def _value(value):
    if isinstance(value, dict):
        return "{%s}" % ", ".join(
            "%r: %s" % (k, _value(value[k])) for k in sorted(value)
        )
    return repr(value)


def _report(report):
    """The fields of a report dataclass that differ from their default
    (so a new defaulted field does not move every digest)."""
    parts = []
    for spec in dataclasses.fields(report):
        value = getattr(report, spec.name)
        default = (
            spec.default_factory()
            if spec.default_factory is not dataclasses.MISSING
            else spec.default
        )
        if value != default:
            parts.append("%s=%s" % (spec.name, _value(value)))
    return "%s(%s)" % (type(report).__name__, ", ".join(parts))


def _answers(answers):
    return repr([(a.peer, a.doc, a.bindings) for a in answers])


def _spans(tracer):
    return [
        "span %r" % (
            (
                s.span_id, s.parent_id, s.name, s.cat, s.track, s.start_s,
                s.duration_s, _value(s.args),
            ),
        )
        for s in tracer.spans
    ]


def scenario_queries(system, log, rounds=1):
    for round_no in range(rounds):
        for i, text in enumerate(QUERIES):
            src = system.peers[(i + round_no) % SOURCES]
            answers, report = system.query_with_report(text, peer=src)
            log.append("query %d.%d from %d" % (round_no, i, src.index))
            log.append(_answers(answers))
            log.append(_report(report))


def scenario_serve(system, log):
    arrivals = [
        (0.002 * i, QUERIES[i % 5], (), i % 3) for i in range(14)
    ]
    result = system.serve(arrivals)
    log.append("serve %s" % _value(result.to_dict()))
    log.append("traffic %s" % _value(result.traffic))
    for q in result.queries:
        log.append(
            "served %r"
            % ((q.seq, q.arrival_s, q.admit_s, q.finish_s, q.src,
                q.coalesced_fetches, _value(q.traffic)),)
        )
        log.append(_answers(q.answers))
        log.append(_report(q.report))
        log.append(repr([(t.name, t.start, t.finish) for t in q.tasks]))


def scenario_fundex(system, log, query_first=False):
    if query_first:
        answers, report = system.query_with_report(FUNDEX_QUERIES[0])
        log.append(_answers(answers))
        log.append(_report(report))
    for text in FUNDEX_QUERIES:
        pattern = system.parse(text)
        for mode in ("fundex", "representative", "naive", "brutal"):
            log.append("fundex %s %s" % (mode, text))
            try:
                answers, report = system.fundex.query(
                    pattern, system.peers[1], mode=mode
                )
            except AttributeError as exc:
                # before ISSUE 21 a fresh executor under a fault plan died
                # here; recorded so the script still runs on that side
                log.append("raised %s" % type(exc).__name__)
                continue
            log.append(_answers(answers))
            log.append(_report(report))


SCENARIOS = {
    "queries": scenario_queries,
    "serve": scenario_serve,
    "fundex": scenario_fundex,
}


def run_config(name, overrides, scenario, args):
    args = dict(args)
    system = build(overrides)
    tracer = system.enable_tracing()
    crash = args.pop("crash", None)
    if crash is not None:
        system.crash_peer(system.peers[crash])
    faults = args.pop("faults", None)
    plan = system.install_faults(FaultPlan(**faults)) if faults else None
    # the overrides, not repr(config): adding or deleting an unrelated
    # config field must not move every digest
    log = ["config %s %s" % (name, _value(overrides))]
    SCENARIOS[scenario](system, log, **args)
    log.append("meter %s" % _value(system.net.meter.snapshot()))
    log.append("messages %d" % system.net.meter.messages())
    if plan is not None:
        log.append("stats %s" % _value(plan.stats.to_dict()))
    log.extend(_spans(tracer))
    return log


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", help="run just this configuration")
    parser.add_argument("--dump", help="write the undigested log here")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    dump = open(args.dump, "w") if args.dump else None
    ran = 0
    try:
        for name, overrides, scenario, scenario_args in CONFIGS:
            if args.only and name != args.only:
                continue
            log = run_config(name, overrides, scenario, scenario_args)
            text = "\n".join(log) + "\n"
            if dump is not None:
                dump.write(text)
            total.update(text.encode("utf-8"))
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
            print("%-28s lines=%-5d %s" % (name, len(log), digest))
            ran += 1
    finally:
        if dump is not None:
            dump.close()
    print("%d configurations, digest %s" % (ran, total.hexdigest()))


if __name__ == "__main__":
    main()
