"""Tests for the serving telemetry view, its SLO block and findings, EXPLAIN.

The load-bearing guarantees:

* **Observation is free**: answers, per-query reports, serving results,
  and metered bytes are byte-identical with tracing on or off, on Pastry
  and Chord, and the telemetry view only reads the finished run.
* **The view is exact**: every series is a count or a sum over the
  ``ServingResult`` records and the span tree; the wire bytes plus the
  rebalancer's moved bytes equal the run's metered total, and the
  per-peer read bytes equal the load ledger's.
* **EXPLAIN reconciles**: per-query phase times sum exactly to the
  simulated response time, and per meter category the attributed
  peer/key rows plus the explicit residual sum exactly to the meter
  delta, residual non-negative.
* **Diagnostics localize real skew**: the unbalanced skewed serve draws
  breach + hot-peer findings naming the ledger's hottest peer; the
  balanced serve of the same stream draws no breach findings.
* **Schema versioning**: payloads crossing a file boundary carry
  ``schema_version`` and readers reject unknown versions loudly.
"""

import dataclasses
import json
import math
from collections import Counter, defaultdict
from types import SimpleNamespace

import pytest

from repro.balance import LoadBalancer
from repro.cli import main
from repro.experiments import skew_balance
from repro.experiments.harness import serial_answer_sigs, serve_row
from repro.faults import FaultPlan
from repro.kadop.config import KadopConfig
from repro.kadop.serving import ServedQuery, ServingResult
from repro.kadop.system import KadopNetwork
from repro.obs import (
    STATS_SCHEMA_VERSION,
    Tracer,
    check_schema_version,
    quantile_exact,
    quantile_rank,
    render_top,
    served_reads,
    serving_view,
    to_chrome_trace,
    validate_telemetry,
    validate_trace,
)
from repro.obs.explain import UNATTRIBUTED, explain_query
from repro.sim.cost import CostParams
from repro.workloads.dblp import DblpGenerator
from repro.workloads.profiles import open_loop_workload, skewed_profile


def build_net(seed=3, num_peers=8, docs=8, **overrides):
    overrides.setdefault("replication", 1)
    config = KadopConfig(
        cost=CostParams(egress_bw=100_000.0, ingress_bw=600_000.0),
        **overrides,
    )
    net = KadopNetwork.create(num_peers=num_peers, config=config, seed=seed)
    gen = DblpGenerator(seed=7, target_doc_bytes=5_000)
    for i in range(docs):
        net.peers[i % num_peers].publish(gen.document(), uri="d:%d" % i)
    return net


def skewed_arrivals(skew=1.4, rate=24.0, queries=48, seed=0):
    profile = skewed_profile(skew, num_queries=queries)
    return open_loop_workload(profile, rate, seed=seed, num_sources=3)


BURST = [
    (i * 0.005, q, (), i % 3)
    for i, q in enumerate(
        [
            "//article//author",
            "//inproceedings//title",
            "//article//author",
            "//dblp//article//author",
            "//article//author",
            "//inproceedings//title",
        ]
    )
]


def record(seq, arrival_s, admit_s, finish_s, traffic=None, hits=0, root_id=None):
    return ServedQuery(
        seq=seq,
        arrival_s=arrival_s,
        admit_s=admit_s,
        src=0,
        query_text="//a",
        keyword_steps=(),
        finish_s=finish_s,
        traffic=traffic or {},
        coalesced_fetches=hits,
        root_id=root_id,
    )


def view_of(queries, tracer=None, interval_s=0.1, objective_s=1.0):
    """The telemetry view of hand-made records: a stand-in network with
    only what the view reads (its tracer and its balancer summary)."""
    traffic = {}
    for q in queries:
        for category, nbytes in q.traffic.items():
            traffic[category] = traffic.get(category, 0) + nbytes
    result = ServingResult(
        queries=queries, max_inflight=None, coalesce=False,
        traffic=traffic,
    )
    net = SimpleNamespace(
        tracer=tracer, balance=SimpleNamespace(summary=lambda: {"bytes_moved": 0})
    )
    return serving_view(net, result, interval_s, objective_s=objective_s)


class TestQuantileHelpers:
    def test_rank_matches_ceil_formula(self):
        for count in (1, 2, 3, 10, 99, 100, 101):
            for p in (1, 50, 95, 99, 100):
                q = p / 100.0
                assert quantile_rank(q, count) == min(
                    count, max(1, math.ceil(q * count))
                )

    def test_rank_rejects_empty(self):
        with pytest.raises(ValueError):
            quantile_rank(0.5, 0)

    def test_exact_reproduces_inline_percentile(self):
        # the formula ServingResult.percentile used to inline, bit for bit
        samples = sorted([0.31, 0.02, 1.7, 0.44, 0.09, 2.2, 0.5])
        for p in (50, 95, 99):
            old = samples[max(1, math.ceil(p / 100.0 * len(samples))) - 1]
            assert quantile_exact(samples, p / 100.0) == old

    def test_exact_empty_is_none(self):
        assert quantile_exact([], 0.99) is None


class TestSeries:
    def test_window_is_end_exclusive(self):
        # a query is in flight over [admit_s, finish_s): counted at its
        # admission instant, not at its finish instant
        view = view_of([record(0, 0.1, 0.1, 0.2), record(1, 0.2, 0.2, 0.4)])
        assert view["series"]["inflight_queries"] == [0, 1, 1, 1, 0]

    def test_window_stats(self):
        from repro.obs.report import _series_row

        row = _series_row("x", [4, 1, 7])
        assert "last        7.0" in row
        assert "mean        4.0" in row
        assert "p99        7.0" in row
        # p99 is quantile_exact's nearest rank, not the max
        values = list(range(1, 201))
        assert "p99      198.0" in _series_row("y", values)


class TestSampler:
    """The view's instants and the series it derives at each of them."""

    def test_gauge_and_rate_sampling(self):
        queries = [
            record(0, 0.0, 0.0, 0.15, {"postings": 100}),
            record(1, 0.05, 0.12, 0.3, {"postings": 50, "documents": 30}, hits=1),
            record(2, 0.2, 0.2, 0.25, {"control": 7}),
        ]
        view = view_of(queries)
        assert view["instants"] == [k * 0.1 for k in range(4)]
        series = view["series"]
        assert series["admitted_queries"] == [1, 1, 3, 3]
        assert series["queue_depth"] == [0, 1, 0, 0]
        assert series["inflight_queries"] == [1, 1, 2, 0]
        assert series["coalescer_hits"] == [0, 0, 1, 1]
        # integer bytes of the queries admitted in (t - interval, t]
        assert series["wire_bytes"] == [100, 0, 87, 0]
        assert sum(series["wire_bytes"]) == view["total_bytes"] == 187

    def test_advance_is_idempotent_per_boundary(self):
        # one sample per boundary, up to the first at or past the makespan;
        # the view only reads the records, so computing it twice agrees
        queries = [record(0, 0.0, 0.0, 0.25, {"postings": 9})]
        view = view_of(queries)
        assert view["instants"] == [0.0, 0.1, 0.2, 0.30000000000000004]
        assert view_of(queries) == view
        assert view_of([])["instants"] == [0.0]

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            view_of([], interval_s=0.0)

    def test_to_dict_carries_schema_version(self):
        payload = view_of([])
        assert payload["schema_version"] == 2
        validate_telemetry(payload)
        json.dumps(payload)  # JSON-safe


class TestSLOTracker:
    """The SLO block: objective accounting per 0.5 s completion window."""

    def test_validation(self):
        with pytest.raises(ValueError):
            view_of([], objective_s=0.0)

    def test_breach_accounting(self):
        queries = [
            record(i, finish - lat, finish - lat, finish)
            for i, (finish, lat) in enumerate(
                ((0.5, 0.5), (0.6, 2.0), (1.5, 0.4), (1.6, 0.2))
            )
        ]
        slo = view_of(queries)["slo"]
        assert slo["total"] == 4 and slo["breaches"] == 1
        assert slo["compliance"] == pytest.approx(0.75)
        # budget = (1 - 0.99) * 4 = 0.04 allowed breaches; one happened
        assert slo["budget_spent"] == pytest.approx(25.0)
        assert (slo["target"], slo["window_s"]) == (0.99, 0.5)

    def test_windows_and_burn_rate(self):
        queries = [
            record(i, finish - lat, finish - lat, finish)
            for i, (finish, lat) in enumerate(((0.3, 0.3), (0.4, 2.0), (0.7, 0.4)))
        ]
        windows = view_of(queries)["slo"]["windows"]
        assert len(windows) == 2
        first = windows[0]
        assert (first["t0_s"], first["t1_s"]) == (0.0, 0.5)
        assert first["total"] == 2 and first["breaches"] == 1
        # breach fraction 0.5 over budget 0.01 -> 50x burn
        assert first["burn_rate"] == pytest.approx(50.0)
        assert first["p99_s"] == 2.0
        assert windows[1]["breaches"] == 0

    def test_idle_tracker(self):
        slo = view_of([])["slo"]
        assert slo["compliance"] == 1.0
        assert slo["budget_spent"] == 0.0
        assert slo["windows"] == []


def _traced_reads(reads_per_query):
    """A tracer holding one query root per entry, each with one ``dht``
    span per ``(peer, key, bytes)`` read it was served."""
    tracer = Tracer()
    roots = []
    for reads in reads_per_query:
        root = tracer.add("query", "query", "query", 0.0, 0.0)
        phase = tracer.add("phase", "phase", "query", 0.0, 0.0, parent=root)
        for peer, key, nbytes in reads:
            tracer.add(
                "dht:get %s" % key, "dht", "peer:0", 0.0, 0.0,
                args={"served_by": peer, "key": key, "payload": nbytes},
                parent=phase,
            )
        roots.append(root)
    return tracer, roots


class TestDiagnose:
    def _hot_peer_run(self):
        tracer, roots = _traced_reads(
            [
                [(0, "elem:title", 100), (2, "elem:author", 500)],
                [(1, "elem:title", 120), (2, "elem:author", 400)],
                [(2, "elem:author", 999)],  # completes after the window
            ]
        )
        queries = [
            record(0, 0.0, 0.0, 0.3, {"postings": 1200}, root_id=roots[0]),
            record(1, 0.1, 0.1, 0.4, {"postings": 800}, root_id=roots[1]),
            record(2, 0.6, 0.6, 0.7, {"postings": 999}, root_id=roots[2]),
        ]
        return tracer, queries

    def test_breach_and_hot_peer(self):
        tracer, queries = self._hot_peer_run()
        findings = view_of(queries, tracer=tracer, objective_s=0.25)["findings"]
        assert [f["kind"] for f in findings] == ["latency-breach", "hot-peer"]
        assert findings[0]["severity"] == "critical"
        hot = findings[1]
        # the reads of the two queries that completed in [0, 0.5): peer 2
        # served 900 bytes against a mean of (100 + 120 + 900) / 3
        assert hot["subject"] == 2
        assert hot["data"]["read_bytes"] == 900
        assert hot["data"]["top_key"] == "elem:author"
        assert "peer 2 at 2.4x" in hot["detail"]

    def test_no_breach_no_findings(self):
        tracer, queries = self._hot_peer_run()
        assert view_of(queries, tracer=tracer, objective_s=10.0)["findings"] == []

    def test_queue_growth(self):
        queries = [record(i, 0.35, 0.7, 0.7) for i in range(6)]
        view = view_of(queries, objective_s=10.0)
        assert view["series"]["queue_depth"] == [0, 0, 0, 0, 6, 6, 6, 0]
        findings = view["findings"]
        assert [f["kind"] for f in findings] == ["queue-growth"]
        assert findings[0]["severity"] == "warning"


def _serve(overlay, traced, arrivals=None, **overrides):
    net = build_net(overlay=overlay, **overrides)
    if traced:
        net.enable_tracing(Tracer())
    result = net.serve(arrivals or BURST)
    return net, result


@pytest.fixture
def read_tally(monkeypatch):
    """The reference the span tree's reads are checked against:
    ``tally[balancer]`` counts every ``(peer, key, bytes)`` read that
    :meth:`LoadBalancer.on_read` was shown."""
    tally = defaultdict(Counter)
    on_read = LoadBalancer.on_read

    def counted(self, key, holder, nbytes, promote=True):
        tally[self][holder.peer_index, key, nbytes] += 1
        return on_read(self, key, holder, nbytes, promote)

    monkeypatch.setattr(LoadBalancer, "on_read", counted)
    return tally


def _peer_bytes(reads):
    """Read bytes per peer, zero-byte ones dropped, of a
    ``Counter{(peer, key, bytes): reads}``."""
    totals = Counter()
    for (peer, _key, nbytes), count in reads.items():
        totals[peer] += nbytes * count
    return {peer: n for peer, n in totals.items() if n}


def assert_spans_equal_tally(net, tally):
    """The ``dht`` spans with a ``served_by`` are the reads the balancer
    was shown: the same count, and the same ``(peer, key, bytes)`` reads,
    so the same bytes per peer and per key."""
    spans = Counter(
        (peer, key, nbytes) for _, peer, key, nbytes in served_reads(net.tracer.spans)
    )
    shown = tally[net.balance]
    assert sum(spans.values()) == sum(shown.values()) > 0
    assert spans == shown


def _view_peer_reads(view):
    prefix = "peer_read_bytes{peer="
    return {
        int(name[len(prefix):-1]): sum(values)
        for name, values in view["series"].items()
        if name.startswith(prefix)
    }


class TestTelemetryIsFree:
    """The zero-cost invariant: serving is byte-identical with tracing on
    vs off (answers, reports, instants, result payload, metered bytes),
    and the view computed from the traced run reads, never writes."""

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    def test_differential(self, overlay):
        plain_net, plain = _serve(overlay, traced=False)
        traced_net, traced = _serve(overlay, traced=True)
        assert len(plain.queries) == len(traced.queries)
        for q_plain, q_traced in zip(plain.queries, traced.queries):
            assert [(a.peer, a.doc, repr(a.bindings)) for a in q_plain.answers] == [
                (a.peer, a.doc, repr(a.bindings)) for a in q_traced.answers
            ]
            assert dataclasses.asdict(q_plain.report) == dataclasses.asdict(
                q_traced.report
            )
            assert q_plain.admit_s == q_traced.admit_s
            assert q_plain.finish_s == q_traced.finish_s
        assert plain.to_dict() == traced.to_dict()
        assert plain_net.net.meter.snapshot() == traced_net.net.meter.snapshot()
        assert plain_net.net.meter.messages() == traced_net.net.meter.messages()
        spans = len(traced_net.tracer.spans)
        view = serving_view(traced_net, traced, objective_s=0.5)
        assert view["slo"]["total"] == len(traced.queries)
        assert len(traced_net.tracer.spans) == spans
        assert traced.to_dict() == plain.to_dict()

    def test_standard_probe_series_present(self, read_tally):
        net, result = _serve("pastry", traced=True)
        view = serving_view(net, result, objective_s=0.5)
        series = view["series"]
        assert {
            "admitted_queries",
            "coalescer_hits",
            "inflight_queries",
            "queue_depth",
            "wire_bytes",
        } <= set(series)
        assert series["admitted_queries"][-1] == len(result.queries)
        assert series["coalescer_hits"][-1] == result.coalesced_hits > 0
        assert max(series["inflight_queries"]) >= 1
        assert _view_peer_reads(view) == _peer_bytes(read_tally[net.balance])

    def test_payload_validates_and_renders(self, tmp_path):
        net, result = _serve("pastry", traced=True)
        payload = serving_view(net, result, objective_s=0.5)
        validate_telemetry(json.loads(json.dumps(payload)))
        assert payload["slo"]["objective_s"] == 0.5
        text = render_top(payload)
        assert "series:" in text and "slo:" in text and "findings" in text

    def test_serve_row_differs_only_by_slo_and_findings(self):
        arrivals = skewed_arrivals(queries=16)
        net = skew_balance.network(10, 12, 0, {})
        sigs = serial_answer_sigs(net, arrivals)
        _, plain = serve_row(
            skew_balance.network(10, 12, 0, {}), arrivals, sigs, False
        )
        _, observed = serve_row(
            skew_balance.network(10, 12, 0, {}), arrivals, sigs, True
        )
        assert set(observed) - set(plain) == {"slo", "findings"}
        assert {k: observed[k] for k in plain} == plain
        assert plain["answers_match_serial"]
        assert observed["slo"]["total"] == 16


class TestQueueDepth:
    """``queue_depth`` counts queries that arrived and wait for admission."""

    def test_no_query_waits_when_admission_is_unbounded(self, capsys):
        assert main(["top", "--queries", "24", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["instants"]) == 15
        assert payload["series"]["queue_depth"] == [0] * 15

    def test_counts_arrived_but_unadmitted_queries(self):
        net = skew_balance.network(10, 12, 0, {"max_inflight": 1})
        net.enable_tracing()
        arrivals = skewed_arrivals(queries=24)
        result = net.serve(arrivals)
        view = serving_view(net, result, objective_s=0.8)
        arrived = [
            sum(1 for q in result.queries if q.arrival_s <= t + 1e-9)
            for t in view["instants"]
        ]
        queue = view["series"]["queue_depth"]
        assert queue == [
            n - admitted
            for n, admitted in zip(arrived, view["series"]["admitted_queries"])
        ]
        assert max(queue) > 1


class TestExplainReconciliation:
    @pytest.fixture(scope="class")
    def net(self):
        return build_net(seed=3, num_peers=8, docs=8)

    def test_reconciles_exactly(self, net):
        before = dict(net.net.meter.snapshot())
        answers, explain = explain_query(
            net, "//article//author", peer=net.peers[2]
        )
        after = net.net.meter.snapshot()
        explain.assert_reconciles()
        # phase times sum exactly (same float additions) to the response
        assert sum(p["time_s"] for p in explain.phases) == (
            explain.report.response_time_s
        )
        # per-category totals equal an independently bracketed meter delta
        for category, cat in explain.categories.items():
            delta = after.get(category, 0) - before.get(category, 0)
            assert cat["total"] == delta, category
            assert cat["unattributed"] >= 0, category
        assert answers

    def test_documents_fully_attributed(self, net):
        _, explain = explain_query(net, "//article//author")
        docs = explain.categories["documents"]
        # every document byte has a proven peer: residual exactly zero
        assert docs["unattributed"] == 0
        assert sum(docs["rows"].values()) == docs["total"]

    def test_postings_attributed_to_holders(self, net):
        _, explain = explain_query(net, "//inproceedings//title")
        postings = explain.categories["postings"]
        assert postings["rows"], "no posting reads attributed"
        for (peer, key), nbytes in postings["rows"].items():
            assert isinstance(peer, int) and nbytes > 0
            assert key.startswith("elem:")

    def test_format_and_json(self, net):
        _, explain = explain_query(net, "//article//author")
        text = explain.format()
        assert "reconciliation: OK" in text
        assert UNATTRIBUTED in text or "total" in text
        payload = explain.to_dict()
        assert payload["schema_version"] == 1
        assert payload["reconciled"] is True
        json.dumps(payload)  # JSON-safe

    def test_leaves_tracing_detached(self):
        net = build_net(seed=5, num_peers=6, docs=4)
        assert net.tracer is None
        explain_query(net, "//article//author")
        assert net.tracer is None  # temporary tracer removed

    def test_view_serve_phase_reconciles(self):
        net = build_net(
            seed=3,
            num_peers=8,
            docs=8,
            use_views=True,
            view_auto_materialize_after=1,
            view_cost_based=False,
        )
        for _ in range(3):  # cross the threshold, then hit the view
            net.query("//article//author")
        _, explain = explain_query(net, "//article//author")
        explain.assert_reconciles()
        names = [p["name"] for p in explain.phases]
        assert any(n.startswith("view:serve") for n in names), names


_BALANCE_KNOBS = {
    "read_policy": "least_loaded",
    "hot_key_threshold": 30_000,
    "hot_key_copies": 2,
    "rebalance_interval_s": 0.25,
    "rebalance_overload": 1.5,
}


def _skew_net(knobs):
    config = KadopConfig(
        replication=2,
        coalesce_fetches=False,
        cost=CostParams(egress_bw=100_000.0, ingress_bw=600_000.0),
        **knobs,
    )
    net = KadopNetwork.create(num_peers=10, config=config, seed=0)
    gen = DblpGenerator(seed=1, target_doc_bytes=6_000)
    for i in range(12):
        net.peers[i % 10].publish(gen.document(), uri="dblp:%d" % i)
    return net


def _skew_view(knobs, queries=48):
    net = _skew_net(knobs)
    net.enable_tracing(Tracer())
    result = net.serve(skewed_arrivals(queries=queries))
    return net, result, serving_view(net, result, objective_s=0.8)


class TestSkewDiagnostics:
    """The acceptance scenario: diagnostics localize the hot peer of an
    unbalanced skewed serve; the balanced serve draws no breach."""

    def test_unbalanced_skew_flags_hot_peer(self, read_tally):
        net, _, view = _skew_view({})
        findings = view["findings"]
        assert "latency-breach" in {f["kind"] for f in findings}
        hot = [f for f in findings if f["kind"] == "hot-peer"]
        assert hot, "no hot-peer finding on the skewed unbalanced serve"
        # the flagged peer is the hottest by served read bytes
        peer_bytes = _peer_bytes(read_tally[net.balance])
        hottest_peer = min(peer_bytes, key=lambda p: (-peer_bytes[p], p))
        assert hot[0]["subject"] == hottest_peer
        assert hot[0]["data"]["top_key"]
        assert _view_peer_reads(view) == peer_bytes
        assert_spans_equal_tally(net, read_tally)

    def test_balanced_skew_has_no_breach(self, read_tally):
        net, result, view = _skew_view(_BALANCE_KNOBS)
        assert not [f for f in view["findings"] if f["kind"] == "latency-breach"]
        assert all(w["p99_s"] <= 0.8 for w in view["slo"]["windows"])
        # tick-time migrations run outside every query: their bytes are
        # the balance block's, and the two sum to the metered total
        moved = view["balance"]["bytes_moved"]
        assert moved > 0
        assert sum(view["series"]["wire_bytes"]) + moved == result.total_bytes
        assert _view_peer_reads(view) == _peer_bytes(read_tally[net.balance])
        assert_spans_equal_tally(net, read_tally)

    def test_lazy_dpp_reads_equal_the_tally(self, read_tally):
        """Lazy DPP fetches are the path with the most reads (roots, then
        block by block); traced from creation, every one is a span."""
        config = KadopConfig(
            replication=1, use_dpp=True, dpp_block_entries=16, dpp_fetch_mode="lazy"
        )
        net = KadopNetwork.create(num_peers=8, config=config, seed=3)
        net.enable_tracing(Tracer())
        gen = DblpGenerator(seed=7, target_doc_bytes=5_000)
        for i in range(8):
            net.peers[i % 8].publish(gen.document(), uri="d:%d" % i)
        for i, query in enumerate(["//article//author", "//inproceedings//title"]):
            net.query(query, peer=net.peers[i])
        net.query(
            '//article[. contains "data"]//title',
            keyword_steps=("data",),
            peer=net.peers[3],
        )
        ops = Counter(
            span.args["op"] for span, *_ in served_reads(net.tracer.spans)
        )
        assert ops["block_get"] > 0
        assert_spans_equal_tally(net, read_tally)

    def test_reads_under_dropped_messages_equal_the_tally(self, read_tally):
        """A read whose first copies were lost is charged its answering
        copy alone: the lost copies' bytes are in the span's
        ``response_bytes`` but were served to no one."""
        net = KadopNetwork.create(
            num_peers=8, config=KadopConfig(replication=2), seed=0
        )
        gen = DblpGenerator(seed=7, target_doc_bytes=5_000)
        for i in range(8):
            net.peers[i].publish(gen.document(), uri="d:%d" % i)
        net.enable_tracing(Tracer())
        net.install_faults(FaultPlan(seed=3, drop_rate=0.4))
        for i, query in enumerate(["//article//author", "//inproceedings//title"]):
            net.query(query, peer=net.peers[i])
        lost = [
            span for span, *_ in served_reads(net.tracer.spans)
            if span.args["response_bytes"] > span.args["payload"]
        ]
        assert lost, "no read lost a copy: the case is not exercised"
        assert_spans_equal_tally(net, read_tally)


class TestServeTracePerfetto:
    """Interleaved serve traces (queries, balancer events) pass the
    trace-event schema validator, and the telemetry view reads them."""

    def test_serve_trace_validates_with_telemetry(self, tmp_path):
        net, _, view = _skew_view(_BALANCE_KNOBS, queries=24)
        cats = {s.cat for s in net.tracer.spans}
        assert {"query", "phase", "dht", "task"} <= cats
        assert "balance" in cats, "balancer emitted no spans"
        events = to_chrome_trace(net.tracer)
        assert validate_trace(events) > 0
        validate_telemetry(view)


class TestSchemaVersions:
    def test_missing_version_rejected_with_hint(self):
        with pytest.raises(ValueError, match="no schema_version"):
            check_schema_version({"series": {}}, "telemetry")

    def test_unknown_version_rejected_with_supported_list(self):
        with pytest.raises(ValueError, match="version\\(s\\) 2"):
            check_schema_version({"schema_version": 99}, "telemetry")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown payload kind"):
            check_schema_version({"schema_version": 1}, "nonsense")

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            check_schema_version([1, 2], "stats")

    def test_validate_telemetry_structural_checks(self):
        good = view_of([record(0, 0.0, 0.0, 0.15, {"postings": 10})])
        validate_telemetry(good)
        with pytest.raises(ValueError, match="no instants list or series"):
            validate_telemetry({"schema_version": 2})
        with pytest.raises(ValueError, match="backwards"):
            validate_telemetry(dict(good, instants=[0.1, 0.0]))
        short = dict(good, series=dict(good["series"], wire_bytes=[10]))
        with pytest.raises(ValueError, match="one value per instant"):
            validate_telemetry(short)
        with pytest.raises(ValueError, match="slo block is missing"):
            validate_telemetry(dict(good, slo={}))
        with pytest.raises(ValueError, match="do not reconcile"):
            validate_telemetry(dict(good, total_bytes=11))

    def test_version_1_telemetry_payload_rejected(self):
        payload_v1 = {"schema_version": 1, "samples_taken": 3, "series": {}}
        with pytest.raises(
            ValueError,
            match="unsupported telemetry schema_version 1; this build reads "
            "version\\(s\\) 2 — regenerate the report with a matching build",
        ):
            validate_telemetry(payload_v1)

    def test_stats_json_carries_schema_version(self, capsys):
        assert main(["stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == STATS_SCHEMA_VERSION == 2
        check_schema_version(payload, "stats")

    def test_version_1_stats_payload_rejected(self):
        payload_v1 = {"schema_version": 1, "network": {}, "metrics": {}}
        with pytest.raises(
            ValueError,
            match="unsupported stats schema_version 1; this build reads "
            "version\\(s\\) 2 — regenerate the report with a matching build",
        ):
            check_schema_version(payload_v1, "stats")
