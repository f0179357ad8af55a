"""Tests for continuous telemetry, SLO tracking, diagnostics, EXPLAIN.

The load-bearing guarantees:

* **Telemetry is free** — answers, per-query reports, serving results,
  and metered bytes are byte-identical with the sampler on or off, on
  Pastry and Chord.  Probes only read state.
* **EXPLAIN reconciles** — per-query phase times sum exactly to the
  simulated response time, and per meter category the attributed
  peer/key rows plus the explicit residual sum exactly to the meter
  delta, residual non-negative.
* **Diagnostics localize real skew** — the unbalanced skewed serve draws
  breach + hot-peer findings naming the ledger's hottest peer; the
  balanced serve of the same stream draws no breach findings.
* **Schema versioning** — payloads crossing a file boundary carry
  ``schema_version`` and readers reject unknown versions loudly.
"""

import dataclasses
import json
import math

import pytest

from repro.balance.ledger import LoadLedger
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.obs import (
    STATS_SCHEMA_VERSION,
    RingBuffer,
    Series,
    SLOTracker,
    TelemetrySampler,
    Tracer,
    check_schema_version,
    diagnose,
    quantile_exact,
    quantile_rank,
    render_top,
    to_chrome_trace,
    validate_telemetry,
    validate_trace,
)
from repro.obs.explain import UNATTRIBUTED, explain_query
from repro.sim.cost import CostParams
from repro.sim.tasks import Scheduler
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


class TestRingBuffer:
    def test_eviction_keeps_newest_and_counts(self):
        ring = RingBuffer(3)
        for i in range(5):
            ring.append(float(i), i * 10)
        assert ring.items() == [(2.0, 20), (3.0, 30), (4.0, 40)]
        assert ring.dropped == 2
        assert len(ring) == 3
        assert list(ring) == ring.items()

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(0)


class TestSeries:
    def test_window_is_end_exclusive(self):
        s = Series("x", capacity=8)
        for t in (0.0, 0.1, 0.2, 0.3):
            s.sample(t, t)
        assert [t for t, _ in s.window(0.1, 0.3)] == [0.1, 0.2]

    def test_window_stats(self):
        s = Series("x", capacity=8)
        for t, v in ((0.0, 4), (0.1, 1), (0.2, 7)):
            s.sample(t, v)
        stats = s.window_stats(0.0, 0.5)
        assert stats["count"] == 3
        assert stats["min"] == 1 and stats["max"] == 7
        assert stats["mean"] == pytest.approx(4.0)
        assert stats["p99"] == 7
        assert s.window_stats(5.0, 6.0) is None

    def test_to_dict_reports_evictions(self):
        s = Series("x", capacity=2)
        for t in (0.0, 0.1, 0.2):
            s.sample(t, 1)
        body = s.to_dict()
        assert body["name"] == "x"
        assert body["dropped"] == 1
        assert body["samples"] == [[0.1, 1], [0.2, 1]]


class TestSampler:
    def test_gauge_and_rate_sampling(self):
        state = {"g": 0, "c": 0}
        sampler = TelemetrySampler(interval_s=0.1)
        sampler.add_gauge("gauge", lambda: state["g"])
        sampler.add_rate("rate", lambda: state["c"])
        state["g"], state["c"] = 3, 50
        sampler.advance_to(0.1)  # samples t=0.0 and t=0.1
        state["g"], state["c"] = 5, 80
        sampler.advance_to(0.2)
        gauge = [v for _, v in sampler.series["gauge"].items()]
        rate = [v for _, v in sampler.series["rate"].items()]
        assert gauge == [3, 3, 5]
        # rate = delta of the cumulative counter per interval
        assert rate == pytest.approx([500.0, 0.0, 300.0])
        assert sampler.samples_taken == 3

    def test_advance_is_idempotent_per_boundary(self):
        sampler = TelemetrySampler(interval_s=0.1)
        sampler.add_gauge("g", lambda: 1)
        sampler.advance_to(0.25)
        sampler.advance_to(0.25)
        assert sampler.samples_taken == 3  # t = 0.0, 0.1, 0.2

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            TelemetrySampler(interval_s=0.0)

    def test_to_dict_carries_schema_version(self):
        payload = TelemetrySampler().to_dict()
        assert payload["schema_version"] == 1
        validate_telemetry(payload)


class TestSLOTracker:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLOTracker(0.0)
        with pytest.raises(ValueError):
            SLOTracker(1.0, target=1.0)
        with pytest.raises(ValueError):
            SLOTracker(1.0, window_s=0.0)

    def test_breach_accounting(self):
        slo = SLOTracker(1.0, target=0.9, window_s=1.0)
        for finish, lat in ((0.5, 0.5), (0.6, 2.0), (1.5, 0.4), (1.6, 0.2)):
            slo.observe(finish, lat)
        assert slo.total == 4 and slo.breaches == 1
        assert slo.compliance == pytest.approx(0.75)
        # budget = (1 - 0.9) * 4 = 0.4 allowed breaches; one happened
        assert slo.budget_spent == pytest.approx(2.5)

    def test_windows_and_burn_rate(self):
        slo = SLOTracker(1.0, target=0.9, window_s=1.0)
        for finish, lat in ((0.5, 0.5), (0.6, 2.0), (1.5, 0.4)):
            slo.observe(finish, lat)
        windows = slo.windows()
        assert len(windows) == 2
        first = windows[0]
        assert first["total"] == 2 and first["breaches"] == 1
        # breach fraction 0.5 over budget 0.1 -> 5x burn
        assert first["burn_rate"] == pytest.approx(5.0)
        assert first["p99_s"] == 2.0
        assert slo.breach_windows() == [first]
        assert windows[1]["breaches"] == 0

    def test_idle_tracker(self):
        slo = SLOTracker(1.0)
        assert slo.compliance == 1.0
        assert slo.budget_spent == 0.0
        assert slo.windows() == []


class TestDiagnose:
    def _sampler_with_hot_peer(self):
        sampler = TelemetrySampler(interval_s=0.1)
        for t10 in range(6):  # samples at 0.0 .. 0.5
            t = t10 / 10.0
            for peer, rate in ((0, 100.0), (1, 120.0), (2, 900.0)):
                sampler._series(
                    "peer_read_bytes_per_s{peer=%d}" % peer
                ).sample(t, rate)
            sampler._series("wire_bytes_per_s").sample(t, 1200.0)
        return sampler

    def test_breach_and_hot_peer(self):
        sampler = self._sampler_with_hot_peer()
        slo = SLOTracker(0.5, target=0.99, window_s=0.5)
        slo.observe(0.3, 2.0)  # breach in [0, 0.5)
        ledger = LoadLedger()
        ledger.record_read("elem:author", 2, 5_000)
        findings = diagnose(sampler, slo, ledger=ledger)
        kinds = [f.kind for f in findings]
        assert kinds == ["latency-breach", "hot-peer"]
        assert findings[0].severity == "critical"
        hot = findings[1]
        assert hot.subject == 2
        assert hot.data["top_key"] == "elem:author"
        assert "peer 2" in hot.detail
        # findings render and serialize
        assert "hot-peer" in hot.format()
        assert hot.to_dict()["kind"] == "hot-peer"

    def test_no_breach_no_findings(self):
        sampler = self._sampler_with_hot_peer()
        slo = SLOTracker(10.0)
        slo.observe(0.3, 0.1)
        assert diagnose(sampler, slo) == []

    def test_queue_growth(self):
        sampler = TelemetrySampler(interval_s=0.1)
        for i, depth in enumerate((0, 0, 0, 1, 4, 5, 6, 6)):
            sampler._series("queue_depth").sample(i / 10.0, depth)
        slo = SLOTracker(10.0)
        findings = diagnose(sampler, slo)
        assert [f.kind for f in findings] == ["queue-growth"]
        assert findings[0].severity == "warning"


class TestSchedulerRunningAt:
    def test_half_open_membership_and_tags(self):
        sched = Scheduler()
        sched.add_resource("r", 1)
        a = sched.add_task("a", 1.0, resources=("r",), tag="q0")
        b = sched.add_task("b", 1.0, resources=("r",), tag="q1")
        sched.run()  # serial: a [0,1), b [1,2)
        assert sched.running_at(0.0) == [a]
        assert sched.running_at(0.5) == [a]
        assert sched.running_at(1.0) == [b]  # a excluded at its finish
        assert sched.running_at(2.0) == []
        assert sched.running_at(0.5, tag="q1") == []
        assert sched.running_at(1.5, tag="q1") == [b]

    def test_before_run_is_empty(self):
        sched = Scheduler()
        sched.add_resource("r", 1)
        sched.add_task("a", 1.0, resources=("r",))
        assert sched.running_at(0.0) == []


class TestLedgerSnapshots:
    def test_read_delta_partitions_agree(self):
        ledger = LoadLedger()
        ledger.record_read("k1", 0, 100)
        snap = ledger.read_snapshot()
        ledger.record_read("k1", 0, 50)
        ledger.record_read("k2", 1, 70)
        delta = ledger.read_delta(snap)
        assert delta["key"] == {"k1": 50, "k2": 70}
        assert delta["peer"] == {0: 50, 1: 70}
        # conservation, restricted to the interval
        assert sum(delta["key"].values()) == sum(delta["peer"].values())

    def test_snapshot_is_a_copy(self):
        ledger = LoadLedger()
        snap = ledger.read_snapshot()
        ledger.record_read("k", 0, 10)
        assert snap["key"] == {} and snap["peer"] == {}


def _serve(overlay, telemetry, arrivals=None, **overrides):
    net = build_net(overlay=overlay, **overrides)
    if telemetry:
        net.enable_telemetry(slo_objective_s=0.5)
    result = net.serve(arrivals or BURST, policy="fifo", coalesce=True)
    return net, result


class TestTelemetryIsFree:
    """The zero-cost invariant: byte-identical serving with the sampler
    on vs off — answers, reports, result payload, and metered bytes."""

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    def test_differential(self, overlay):
        plain_net, plain = _serve(overlay, telemetry=False)
        teled_net, teled = _serve(overlay, telemetry=True)
        assert len(plain.queries) == len(teled.queries)
        for q_plain, q_teled in zip(plain.queries, teled.queries):
            assert [(a.peer, a.doc, repr(a.bindings)) for a in q_plain.answers] == [
                (a.peer, a.doc, repr(a.bindings)) for a in q_teled.answers
            ]
            assert dataclasses.asdict(q_plain.report) == dataclasses.asdict(
                q_teled.report
            )
            assert q_plain.admit_s == q_teled.admit_s
            assert q_plain.finish_s == q_teled.finish_s
        assert plain.to_dict() == teled.to_dict()
        assert (
            plain_net.net.meter.snapshot() == teled_net.net.meter.snapshot()
        )
        assert (
            plain_net.net.meter.messages() == teled_net.net.meter.messages()
        )
        # and the sampler really ran
        sampler = teled_net.telemetry
        assert sampler.finished
        assert sampler.samples_taken > 0
        assert sampler.slo.total == len(teled.queries)

    def test_standard_probe_series_present(self):
        net, result = _serve("pastry", telemetry=True)
        names = set(net.telemetry.series)
        assert {
            "wire_bytes_per_s",
            "queue_depth",
            "admitted_queries",
            "inflight_queries",
            "running_tasks",
            "hot_keys",
        } <= names
        # the admitted-queries gauge ends at the full admission count
        assert net.telemetry.series["admitted_queries"].last()[1] == len(
            result.queries
        )
        # the exact in-flight series is derived from the final records
        inflight = net.telemetry.series["inflight_queries"].values()
        assert max(inflight) >= 1

    def test_payload_validates_and_renders(self, tmp_path):
        net, _ = _serve("pastry", telemetry=True)
        payload = net.telemetry.to_dict()
        validate_telemetry(payload)
        assert payload["slo"]["objective_s"] == 0.5
        text = render_top(payload, findings=[])
        assert "series:" in text and "slo:" in text


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


class TestSkewDiagnostics:
    """The acceptance scenario: diagnostics localize the hot peer of an
    unbalanced skewed serve; the balanced serve draws no breach."""

    def test_unbalanced_skew_flags_hot_peer(self):
        net = _skew_net({})
        sampler = net.enable_telemetry(slo_objective_s=0.8)
        net.serve(skewed_arrivals(), policy="fifo", coalesce=False)
        findings = diagnose(sampler, sampler.slo, ledger=net.balance.ledger)
        kinds = {f.kind for f in findings}
        assert "latency-breach" in kinds
        hot = [f for f in findings if f.kind == "hot-peer"]
        assert hot, "no hot-peer finding on the skewed unbalanced serve"
        # the flagged peer is the ledger's hottest by served read bytes
        hottest_peer = net.balance.ledger.hottest_peers(1)[0][1]
        assert hot[0].subject == hottest_peer
        assert hot[0].data.get("top_key")

    def test_balanced_skew_has_no_breach(self):
        net = _skew_net(_BALANCE_KNOBS)
        sampler = net.enable_telemetry(slo_objective_s=0.8)
        net.serve(skewed_arrivals(), policy="fifo", coalesce=False)
        findings = diagnose(sampler, sampler.slo, ledger=net.balance.ledger)
        assert not [f for f in findings if f.kind == "latency-breach"]
        assert sampler.slo.breach_windows() == []


class TestServeTracePerfetto:
    """Interleaved serve traces — queries, balancer events, telemetry
    sample instants — pass the trace-event schema validator."""

    def test_serve_trace_validates_with_telemetry(self, tmp_path):
        net = _skew_net(_BALANCE_KNOBS)
        net.enable_tracing(Tracer())
        net.enable_telemetry(slo_objective_s=0.8)
        net.serve(skewed_arrivals(queries=24), policy="fifo", coalesce=False)
        cats = {s.cat for s in net.tracer.spans}
        assert {"query", "phase", "dht", "task", "telemetry"} <= cats
        assert "balance" in cats, "balancer emitted no spans"
        events = to_chrome_trace(net.tracer)
        assert validate_trace(events) > 0
        # telemetry samples land as zero-duration instants on their track
        samples = [s for s in net.tracer.spans if s.cat == "telemetry"]
        assert samples and all(s.duration_s == 0.0 for s in samples)
        assert len(samples) == net.telemetry.samples_taken


class TestSchemaVersions:
    def test_missing_version_rejected_with_hint(self):
        with pytest.raises(ValueError, match="no schema_version"):
            check_schema_version({"series": {}}, "telemetry")

    def test_unknown_version_rejected_with_supported_list(self):
        with pytest.raises(ValueError, match="version\\(s\\) 1"):
            check_schema_version({"schema_version": 99}, "telemetry")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown payload kind"):
            check_schema_version({"schema_version": 1}, "nonsense")

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            check_schema_version([1, 2], "stats")

    def test_validate_telemetry_structural_checks(self):
        with pytest.raises(ValueError, match="no series table"):
            validate_telemetry({"schema_version": 1})
        bad = {
            "schema_version": 1,
            "series": {"x": {"samples": [[1.0, 2], [0.5, 3]]}},
        }
        with pytest.raises(ValueError, match="backwards"):
            validate_telemetry(bad)

    def test_stats_json_carries_schema_version(self, capsys):
        from repro.cli import main

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
