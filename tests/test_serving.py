"""Tests for concurrent multi-query serving (repro.kadop.serving).

The load-bearing guarantees:

* **Answer fidelity** — every query in a concurrent batch returns answers
  byte-identical to running it alone on an identical network, on Pastry
  and Chord, with and without single-flight coalescing.  The shared
  timeline is a performance model, never a semantics change.
* **Uncontended invariant** — a query admitted with nothing else in
  flight finishes at exactly ``admit + response_time_s``.
* **Determinism** — same seed and arrival trace give an identical
  schedule, latencies, and metered traffic.
* **Interleave-safe observation** — spans of overlapping traced queries
  attribute to their own query roots; nothing leaks across roots.
"""

import pytest

from repro.kadop.config import ConfigError, KadopConfig
from repro.kadop.serving import FetchCoalescer, QueryArrival
from repro.kadop.system import KadopNetwork
from repro.obs import Tracer, validate_trace, to_chrome_trace
from repro.sim.cost import CostParams
from repro.workloads.dblp import DblpGenerator
from repro.workloads.profiles import REPEATED_QUERY_PROFILES, open_loop_workload

QUERIES = (
    "//article//author",
    "//inproceedings//title",
    "//dblp//article//author",
    "//article//author",  # repeat: the coalescing victim
)


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


def sig(answers):
    return [(a.peer, a.doc, repr(a.bindings)) for a in answers]


def burst(rate=200.0, n=8, src_cycle=(0, 1, 2)):
    """A dense arrival burst over QUERIES (heavy overlap)."""
    return [
        QueryArrival(
            arrival_s=i / rate,
            query_text=QUERIES[i % len(QUERIES)],
            src=src_cycle[i % len(src_cycle)],
        )
        for i in range(n)
    ]


class TestOpenLoopWorkload:
    def test_deterministic_and_sorted(self):
        profile = REPEATED_QUERY_PROFILES["zipf-hot"]
        a = open_loop_workload(profile, 10.0, seed=4)
        b = open_loop_workload(profile, 10.0, seed=4)
        assert a == b
        assert all(x.arrival_s <= y.arrival_s for x, y in zip(a, a[1:]))
        assert len(a) == profile.num_queries

    def test_rate_scales_arrival_span(self):
        profile = REPEATED_QUERY_PROFILES["zipf-hot"]
        slow = open_loop_workload(profile, 2.0, seed=1)
        fast = open_loop_workload(profile, 50.0, seed=1)
        assert fast[-1].arrival_s < slow[-1].arrival_s

    def test_rejects_bad_args(self):
        profile = REPEATED_QUERY_PROFILES["uniform"]
        with pytest.raises(ValueError):
            open_loop_workload(profile, 0.0)
        with pytest.raises(ValueError):
            open_loop_workload(profile, 1.0, num_sources=0)


class TestConfig:
    def test_serving_knobs_validated(self):
        with pytest.raises(ConfigError):
            KadopConfig(max_inflight=0)
        cfg = KadopConfig(max_inflight=4)
        assert cfg.max_inflight == 4


class TestAnswerFidelity:
    """Concurrency differential: served == alone, per query."""

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    @pytest.mark.parametrize("coalesce", [False, True])
    def test_byte_identical_to_serial(self, overlay, coalesce):
        serial = build_net(overlay=overlay)
        expected = [
            sig(serial.query(a.query_text, peer=serial.peers[a.src]))
            for a in burst()
        ]
        served = build_net(overlay=overlay, coalesce_fetches=coalesce)
        result = served.serve(burst())
        assert [sig(q.answers) for q in result.queries] == expected
        assert any(expected)  # the workload isn't vacuous

    @pytest.mark.parametrize("coalesce", [False, True])
    def test_byte_identical_under_admission(self, coalesce):
        serial = build_net()
        expected = [
            sig(serial.query(a.query_text, peer=serial.peers[a.src]))
            for a in burst()
        ]
        served = build_net(max_inflight=2, coalesce_fetches=coalesce)
        result = served.serve(burst())
        assert [sig(q.answers) for q in result.queries] == expected

    def test_dpp_lazy_batch_matches_serial(self):
        serial = build_net(use_dpp=True, dpp_fetch_mode="lazy")
        expected = [
            sig(serial.query(a.query_text, peer=serial.peers[a.src]))
            for a in burst(n=6)
        ]
        served = build_net(use_dpp=True, dpp_fetch_mode="lazy")
        result = served.serve(burst(n=6))
        assert [sig(q.answers) for q in result.queries] == expected


class TestUncontendedInvariant:
    def test_finish_equals_serial_response(self):
        serial = build_net()
        responses = []
        for a in burst(n=4):
            _, report = serial.query_with_report(
                a.query_text, peer=serial.peers[a.src]
            )
            responses.append(report.response_time_s)
        served = build_net(coalesce_fetches=False)
        # arrivals 50s apart: nothing ever overlaps
        spaced = [
            QueryArrival(i * 50.0, a.query_text, src=a.src)
            for i, a in enumerate(burst(n=4))
        ]
        result = served.serve(spaced)
        for query, response_s in zip(result.queries, responses):
            assert query.queue_wait_s == 0.0
            assert abs(query.finish_s - (query.admit_s + response_s)) < 1e-9


class TestDeterminism:
    def test_same_trace_same_everything(self):
        def one_run():
            net = build_net(max_inflight=3)
            arrivals = open_loop_workload(
                REPEATED_QUERY_PROFILES["zipf-hot"], 40.0, seed=2
            )[:10]
            result = net.serve(arrivals)
            return (
                [
                    (
                        q.seq,
                        q.admit_s,
                        q.finish_s,
                        sig(q.answers),
                        sorted(q.traffic.items()),
                        [(t.name, t.start, t.finish) for t in q.tasks],
                    )
                    for q in result.queries
                ],
                result.to_dict(),
            )

        assert one_run() == one_run()


class TestAdmission:
    def test_unbounded_admits_at_arrival(self):
        net = build_net(coalesce_fetches=False)
        result = net.serve(burst())
        assert all(q.queue_wait_s == 0.0 for q in result.queries)
        assert result.max_inflight is None

    def test_bound_is_respected(self):
        net = build_net(max_inflight=2, coalesce_fetches=False)
        result = net.serve(burst(n=10))
        assert any(q.queue_wait_s > 0 for q in result.queries)
        # event sweep: at no simulated instant are more than 2 in flight
        events = []
        for q in result.queries:
            events.append((q.admit_s + 1e-9, 1))
            events.append((q.finish_s, -1))
        inflight = peak = 0
        for _, delta in sorted(events):
            inflight += delta
            peak = max(peak, inflight)
        assert peak <= 2

    def test_fifo_admits_in_arrival_order(self):
        net = build_net(max_inflight=1, coalesce_fetches=False)
        result = net.serve(burst(n=8))
        admits = [q.admit_s for q in sorted(result.queries, key=lambda q: q.seq)]
        assert admits == sorted(admits)

    def test_config_bound_applies_by_default(self):
        net = build_net(max_inflight=1, coalesce_fetches=False)
        result = net.serve(burst(n=6))
        assert result.max_inflight == 1
        assert any(q.queue_wait_s > 0 for q in result.queries)


class TestCoalescing:
    def test_saves_bytes_on_hot_repeats(self):
        base = build_net(coalesce_fetches=False).serve(burst(n=10))
        shared = build_net().serve(burst(n=10))
        assert shared.coalesced_hits > 0
        assert shared.coalesced_bytes_saved > 0
        assert shared.total_bytes < base.total_bytes
        assert (
            shared.total_bytes + shared.coalesced_bytes_saved
            <= base.total_bytes + 1
        )

    def test_no_hits_without_overlap(self):
        net = build_net()
        spaced = [
            QueryArrival(i * 50.0, QUERIES[0], src=0) for i in range(3)
        ]
        result = net.serve(spaced)
        # flights expire once landed: far-apart repeats each pay in full
        assert result.coalesced_hits == 0
        assert result.coalesced_bytes_saved == 0

    def test_query_never_coalesces_with_itself(self):
        coalescer = FetchCoalescer()
        coalescer.begin_query(0, 0.0)
        coalescer.register("get", "k", "data", 100, 0.5)
        assert coalescer.lookup("get", "k") is None  # own flight
        coalescer.begin_query(1, 0.1)
        flight = coalescer.lookup("get", "k")
        assert flight is not None and flight.data == "data"
        assert coalescer.hits == 1 and coalescer.bytes_saved == 100

    def test_landed_flight_expires(self):
        coalescer = FetchCoalescer()
        coalescer.begin_query(0, 0.0)
        flight = coalescer.register("get", "k", "data", 100, 0.5)
        flight.finish_s = 1.0
        coalescer.begin_query(1, 2.0)  # admitted after the flight landed
        assert coalescer.lookup("get", "k") is None
        assert coalescer.hits == 0

    def test_coalescer_detached_after_run(self):
        net = build_net()
        net.serve(burst(n=4))
        assert net.net.coalescer is None


class TestServingObservability:
    """Satellite: per-query span attribution under interleaving."""

    def _subtree(self, tracer, root_id):
        children = {}
        for span in tracer.spans:
            children.setdefault(span.parent_id, []).append(span.span_id)
        seen, frontier = set(), [root_id]
        while frontier:
            node = frontier.pop()
            seen.add(node)
            frontier.extend(children.get(node, []))
        return seen

    def test_interleaved_queries_do_not_leak_spans(self):
        net = build_net(coalesce_fetches=False)
        tracer = net.enable_tracing(Tracer())
        result = net.serve(burst(n=2, rate=1000.0))
        first, second = result.queries
        # the two served windows genuinely overlap ...
        assert first.finish_s > second.admit_s
        assert first.root_id is not None and second.root_id is not None
        # ... yet every span sits under exactly one query root
        sub_a = self._subtree(tracer, first.root_id)
        sub_b = self._subtree(tracer, second.root_id)
        assert sub_a & sub_b == set()
        assert len(sub_a) > 1 and len(sub_b) > 1
        roots = [s for s in tracer.spans_by_cat("query")]
        assert len(roots) == 2

    def test_roots_patched_to_served_extents(self):
        net = build_net(max_inflight=2)
        tracer = net.enable_tracing(Tracer())
        result = net.serve(burst(n=6))
        by_id = {s.span_id: s for s in tracer.spans}
        for q in result.queries:
            root = by_id[q.root_id]
            assert root.args["latency_s"] == pytest.approx(q.latency_s)
            assert root.args["queue_wait_s"] == pytest.approx(q.queue_wait_s)
            assert root.duration_s == pytest.approx(q.service_s)
            assert root.start_s == pytest.approx(q.admit_s)
        waited = [q for q in result.queries if q.queue_wait_s > 0]
        assert waited
        admission_spans = tracer.spans_by_cat("admission")
        assert len(admission_spans) == len(waited)

    def test_trace_exports_and_validates(self, tmp_path):
        net = build_net(max_inflight=2)
        tracer = net.enable_tracing(Tracer())
        net.serve(burst(n=4))
        validate_trace(to_chrome_trace(tracer))
