"""Tests for the observability layer: tracer, profiles, export.

The load-bearing guarantee is at the bottom: tracing is *free* — answers,
simulated times, and metered bytes are byte-identical with observation on
or off, on both overlay substrates.
"""

import dataclasses
import random

import pytest

from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.obs import (
    Tracer,
    observe_schedule,
    phase_totals,
    to_chrome_trace,
    validate_trace,
    validate_trace_file,
    write_chrome_trace,
)
from repro.obs.profile import aggregate_spans, format_profile, self_times, utilization
from repro.sim.tasks import Scheduler


class TestTracer:
    def test_query_lifecycle_advances_cursor(self):
        t = Tracer()
        ctx = t.begin_query("q1")
        assert t.active
        t.end_query(ctx, duration_s=0.25)
        assert not t.active
        ctx2 = t.begin_query("q2")
        assert ctx2.base == pytest.approx(0.25)
        t.end_query(ctx2, 0.5)
        assert t.queries == 2
        roots = t.spans_by_cat("query")
        assert [s.duration_s for s in roots] == [0.25, 0.5]

    def test_children_attach_by_parent_id(self):
        t = Tracer()
        ctx = t.begin_query("q")
        child = t.add("fetch", "dht", "peer:0", 0.0, 0.1, parent=ctx.parent_id)
        t.add("hop", "dht-hop", "peer:0", 0.0, 0.05, parent=child)
        t.end_query(ctx, 0.1)
        assert [s.name for s in t.children_of(ctx.root_id)] == ["fetch"]
        assert [s.name for s in t.children_of(child)] == ["hop"]

    def test_set_duration_patches_span_and_args(self):
        t = Tracer()
        sid = t.add("phase", "phase", "query", 0.0, 0.0, args={"a": 1})
        t.set_duration(sid, 0.7, args={"b": 2})
        span = t.spans[0]
        assert span.duration_s == 0.7
        assert span.args == {"a": 1, "b": 2}
        with pytest.raises(KeyError):
            t.set_duration(999, 1.0)

    def test_set_duration_reaches_the_first_of_many_spans(self):
        t = Tracer()
        first = t.add("root", "phase", "query", 0.0, 0.0)
        for i in range(999):
            t.add("s%d" % i, "dht", "peer:0", 0.0, 0.1)
        assert len(t.spans) == 1000
        t.set_duration(first, 2.5, args={"done": True})
        assert t.spans[0].span_id == first
        assert t.spans[0].duration_s == 2.5
        assert t.spans[0].args == {"done": True}
        assert all(sp.duration_s == 0.1 for sp in t.spans[1:])

    @pytest.mark.parametrize("missing", [0, -1, 4])
    def test_set_duration_of_a_missing_id_raises_key_error(self, missing):
        t = Tracer()
        for i in range(3):
            t.add("s%d" % i, "dht", "peer:0", 0.0, 0.1)
        with pytest.raises(KeyError, match="no span with id"):
            t.set_duration(missing, 1.0)

    def test_seek_places_next_query(self):
        t = Tracer()
        t.seek(3.0)
        ctx = t.begin_query("q")
        assert ctx.base == pytest.approx(3.0)
        t.end_query(ctx, 0.5)
        with pytest.raises(ValueError):
            t.seek(-1.0)

    def test_interleaved_query_roots_keep_their_own_extents(self):
        # serving admits queries at their arrival instants: a later query
        # root may open *inside* an earlier one's window, and each keeps
        # its own base — the overlap never shifts either root
        t = Tracer()
        t.seek(1.0)
        long_ctx = t.begin_query("long")
        t.end_query(long_ctx, 5.0)  # window [1, 6]
        t.seek(2.0)  # admitted mid-window
        short_ctx = t.begin_query("short")
        assert short_ctx.base == pytest.approx(2.0)
        t.end_query(short_ctx, 0.5)
        long_root, short_root = t.spans_by_cat("query")
        assert (long_root.start_s, long_root.end_s) == (1.0, 6.0)
        assert (short_root.start_s, short_root.end_s) == (2.0, 2.5)
        # the cursor never rewinds past a closed query's extent
        follow = t.begin_query("follow-up")
        assert follow.base == pytest.approx(2.5)
        t.end_query(follow, 0.1)


class TestChromeExport:
    def _tracer(self):
        t = Tracer()
        ctx = t.begin_query("q")
        t.add("op", "dht", "peer:1", 0.0, 0.2, parent=ctx.root_id)
        t.end_query(ctx, 0.2)
        return t

    def test_export_is_valid(self):
        trace = to_chrome_trace(self._tracer())
        assert validate_trace(trace) == len(trace["traceEvents"])

    def test_metadata_names_every_track(self):
        trace = to_chrome_trace(self._tracer())
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert names == {"query", "peer:1"}

    def test_span_units_are_microseconds(self):
        trace = to_chrome_trace(self._tracer())
        op = next(e for e in trace["traceEvents"] if e["name"] == "op")
        assert op["ph"] == "X"
        assert op["dur"] == pytest.approx(0.2 * 1e6)

    def test_write_and_validate_file(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(self._tracer(), path)
        assert validate_trace_file(path) == n

    def test_validator_rejects_bad_traces(self):
        with pytest.raises(ValueError):
            validate_trace([])
        with pytest.raises(ValueError):
            validate_trace({"traceEvents": []})
        ok = {"name": "a", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1}
        missing = {k: v for k, v in ok.items() if k != "dur"}
        with pytest.raises(ValueError):
            validate_trace({"traceEvents": [ok, missing]})
        with pytest.raises(ValueError):
            validate_trace({"traceEvents": [dict(ok, ts=5), dict(ok, ts=1)]})
        with pytest.raises(ValueError):
            validate_trace({"traceEvents": [dict(ok, dur=-1)]})


class TestProfile:
    def test_self_time_subtracts_children(self):
        t = Tracer()
        parent = t.add("p", "phase", "query", 0.0, 1.0)
        t.add("c1", "dht", "query", 0.0, 0.3, parent=parent)
        t.add("c2", "dht", "query", 0.3, 0.3, parent=parent)
        selfs = self_times(t.spans)
        assert selfs[parent] == pytest.approx(0.4)

    def test_self_time_clamps_at_zero(self):
        t = Tracer()
        parent = t.add("p", "phase", "query", 0.0, 0.1)
        t.add("c", "dht", "query", 0.0, 0.5, parent=parent)
        assert self_times(t.spans)[parent] == 0.0

    def test_top_spans_aggregates_by_name(self):
        t = Tracer()
        t.add("fetch", "dht", "a", 0.0, 0.2)
        t.add("fetch", "dht", "b", 0.2, 0.3)
        t.add("join", "join", "a", 0.5, 0.1)
        rows = aggregate_spans(t)
        assert rows[0] == ("fetch", "dht", 2, pytest.approx(0.5), pytest.approx(0.5))

    def test_phase_totals(self):
        t = Tracer()
        t.add("a", "dht", "x", 0.0, 0.2)
        t.add("b", "doc", "x", 0.2, 0.3)
        totals = phase_totals(t)
        assert totals == {"dht": pytest.approx(0.2), "doc": pytest.approx(0.3)}

    def test_format_profile_renders_tables(self):
        s = Scheduler()
        s.add_resource("ingress", 2)
        s.add_task("x", 1.0, resources=("ingress",))
        s.run()
        t = Tracer()
        ctx = t.begin_query("q")
        t.add("fetch", "dht", "peer:0", 0.0, 0.2, parent=ctx.root_id)
        observe_schedule(t, s)
        t.end_query(ctx, 1.0)
        text = format_profile(t)
        assert "top spans" in text
        assert "ingress" in text and "50.0%" in text
        assert "queue wait: 1 tasks" in text

    def test_format_profile_truncation_tail(self):
        t = Tracer()
        for i in range(6):
            t.add("span%d" % i, "dht", "x", i * 0.1, 0.1)
        text = format_profile(t, top=2)
        # omitted groups are summarized, never silently dropped
        assert "... 4 more span groups (4 spans)" in text
        assert "% of self-time" in text
        # no tail line when everything fits
        assert "more span groups" not in format_profile(t, top=10)
        # no scheduler run, no task span: no utilization or wait lines
        assert "utilization" not in text and "queue wait" not in text


def _queue_waits(tracer):
    return [sp.args["queue_wait_s"] for sp in tracer.spans_by_cat("task")]


class TestObserveSchedule:
    def test_queue_wait_matches_makespan_accounting(self):
        """On a capacity-1 resource the waits are forced: task i queues
        exactly i * duration seconds, and total busy time equals the
        makespan — the task spans and the schedule record must reproduce
        both."""
        s = Scheduler()
        s.add_resource("link", 1)
        tasks = [s.add_task("t%d" % i, 1.0, resources=("link",)) for i in range(3)]
        makespan = s.run()
        assert makespan == pytest.approx(3.0)

        t = Tracer()
        ctx = t.begin_query("q")
        observe_schedule(t, s)
        t.end_query(ctx, makespan)

        waits = _queue_waits(t)
        assert len(waits) == 3
        # waits 0 + 1 + 2, and independently: sum over tasks of start-ready
        assert sum(waits) == pytest.approx(3.0)
        assert sum(waits) == pytest.approx(sum(t.start - t.ready for t in tasks))
        # busy == makespan on a saturated capacity-1 resource
        busy, capacity, util = utilization(t)["link"]
        assert busy == pytest.approx(makespan)
        assert capacity == pytest.approx(1 * makespan)
        assert util == pytest.approx(1.0)

    def test_partial_contention(self):
        s = Scheduler()
        s.add_resource("link", 2)
        [s.add_task("t%d" % i, 1.0, resources=("link",)) for i in range(4)]
        makespan = s.run()
        assert makespan == pytest.approx(2.0)
        t = Tracer()
        ctx = t.begin_query("q")
        observe_schedule(t, s)
        t.end_query(ctx, makespan)
        assert sum(_queue_waits(t)) == pytest.approx(2.0)  # two tasks wait 1 s
        busy, capacity, util = utilization(t)["link"]
        assert (busy, capacity, util) == (
            pytest.approx(4.0),
            pytest.approx(4.0),
            pytest.approx(1.0),
        )

    def test_emits_task_and_wait_spans_under_open_context(self):
        s = Scheduler()
        s.add_resource("egress:5", 1)
        s.add_task("a", 1.0, resources=("egress:5",))
        s.add_task("b", 1.0, resources=("egress:5",))
        s.run()
        t = Tracer()
        ctx = t.begin_query("q")
        observe_schedule(t, s)
        t.end_query(ctx, 2.0)
        task_spans = t.spans_by_cat("task")
        wait_spans = t.spans_by_cat("wait")
        assert len(task_spans) == 2
        assert {sp.track for sp in task_spans} == {"egress:5"}
        assert len(wait_spans) == 1
        assert wait_spans[0].args["blocked_on"] == "egress:5"

    def test_runs_add_up_in_run_order(self):
        t = Tracer()
        ctx = t.begin_query("q")
        for capacity in (1, 2):
            s = Scheduler()
            s.add_resource("link", capacity)
            s.add_task("a", 1.0, resources=("link",))
            s.run()
            observe_schedule(t, s)
        t.end_query(ctx, 2.0)
        assert len(t.schedules) == 2
        # 1 s busy per run, over 1 * 1 s and then 2 * 1 s of capacity
        assert utilization(t) == {"link": (2.0, 3.0, pytest.approx(2.0 / 3.0))}

    def test_utilization_is_the_sum_of_task_spans_on_a_contended_run(self):
        """Two peers own every term, so several transfers queue for one
        egress link: for every resource the busy time in
        ``tracer.schedules`` equals the summed durations of its task spans,
        and never exceeds the capacity-seconds."""
        rng = random.Random(2008)
        net = KadopNetwork.create(
            num_peers=2, config=KadopConfig(replication=1), seed=1
        )
        for i in range(8):
            net.peers[i % 2].publish(_random_doc(rng), uri="u:%d" % i)
        tracer = net.enable_tracing()
        for query in ("//a//b//c//d", "//a[//b]//c//d", "//a//b"):
            net.query(query)
        assert tracer.spans_by_cat("wait"), "no task queued: not contended"
        from_spans = {}
        for span in tracer.spans_by_cat("task"):
            for resource in span.args["resources"]:
                from_spans[resource] = from_spans.get(resource, 0.0) + span.duration_s
        table = utilization(tracer)
        assert set(table) >= set(from_spans)
        for resource, (busy, capacity, ratio) in table.items():
            assert busy == pytest.approx(from_spans.get(resource, 0.0))
            assert busy <= capacity * (1 + 1e-9)
            assert 0.0 <= ratio <= 1.0 + 1e-9


LABELS = ["a", "b", "c", "d"]
WORDS = ["red", "green", "blue"]


def _random_doc(rng, max_nodes=24):
    parts = []

    def build(depth, budget):
        label = rng.choice(LABELS)
        parts.append("<%s>" % label)
        if rng.random() < 0.5:
            parts.append(" %s " % rng.choice(WORDS))
        for _ in range(0 if depth > 4 else rng.randint(0, 3)):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            build(depth + 1, budget)
        parts.append("</%s>" % label)

    build(0, [max_nodes])
    return "".join(parts)


DIFF_QUERIES = [
    ("//a//b", (), None),
    ("//a/b", (), None),
    ('//a[. contains "red"]', (), None),
    ("//a//b//c", (), "auto"),
    ("//a[//b]//c", (), "ab"),
    ("//a//b", (), None),  # repeat: exercises the view-hit path
]


def _build(overlay, corpus, traced):
    config = KadopConfig(
        replication=1,
        overlay=overlay,
        use_views=True,
        view_auto_materialize_after=1,
        view_cost_based=False,
        use_dpp=True,
        dpp_block_entries=12,
    )
    net = KadopNetwork.create(num_peers=8, config=config, seed=1)
    if traced:
        net.enable_tracing()
    for i, text in enumerate(corpus):
        net.peers[i % 4].publish(text, uri="u:%d" % i)
    return net


class TestTracingIsFree:
    """The zero-cost invariant: identical answers, simulated times, and
    metered bytes with tracing on vs off — byte-identical QueryReports."""

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = random.Random(2008)
        return [_random_doc(rng) for _ in range(8)]

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    def test_differential(self, overlay, corpus):
        plain = _build(overlay, corpus, traced=False)
        traced = _build(overlay, corpus, traced=True)
        for query, keywords, strategy in DIFF_QUERIES:
            src = 3
            a_plain, r_plain = plain.query_with_report(
                query, keyword_steps=keywords, peer=plain.peers[src],
                strategy=strategy,
            )
            a_traced, r_traced = traced.query_with_report(
                query, keyword_steps=keywords, peer=traced.peers[src],
                strategy=strategy,
            )
            assert [(a.peer, a.doc, a.bindings) for a in a_plain] == [
                (a.peer, a.doc, a.bindings) for a in a_traced
            ], (overlay, query)
            assert dataclasses.asdict(r_plain) == dataclasses.asdict(
                r_traced
            ), (overlay, query)
        # every metered byte agrees too — publication and queries alike
        assert plain.net.meter.snapshot() == traced.net.meter.snapshot()
        assert plain.net.meter.messages() == traced.net.meter.messages()

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    def test_trace_covers_all_layers(self, overlay, corpus):
        net = _build(overlay, corpus, traced=True)
        for query, keywords, strategy in DIFF_QUERIES:
            net.query(query, keyword_steps=keywords, strategy=strategy)
        cats = {s.cat for s in net.tracer.spans}
        # the three instrumented layers all contributed spans
        assert {"query", "phase", "dht", "dht-hop", "task"} <= cats
        assert net.tracer.queries == len(DIFF_QUERIES)
        assert validate_trace(to_chrome_trace(net.tracer)) > 0

    def test_disable_tracing_detaches(self, corpus):
        net = _build("pastry", corpus, traced=True)
        net.query("//a//b")
        before = len(net.tracer.spans)
        tracer = net.tracer
        net.disable_tracing()
        net.query("//a//b")
        assert len(tracer.spans) == before
        assert net.tracer is None and net.net.tracer is None
