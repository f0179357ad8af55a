"""Fault-injection layer: corpus replays, differentials, and unit tests.

Three families:

* **corpus replays** — ``fuzz_corpus.json`` pins scenarios the fuzzer
  found interesting (crash during a DPP split, crash mid-pipelined-get,
  duplicated appends) plus the seeds behind historical data-loss bugs;
  each entry re-runs under the fuzzer's invariants and re-asserts the
  marker that made it interesting.
* **zero-fault differential** — installing an all-zero FaultPlan must
  leave answers, query reports, and meter snapshots byte-identical to
  the plain no-plan path, on Pastry and Chord alike.
* **unit tests** — duplicated messages never double receipts or stored
  postings, retries back off exponentially (capped) in simulated time,
  majority quorums tolerate a deaf replica that anti-entropy later
  catches up, and queries degrade to partial answers instead of raising.
* **op x fate table** — every DHT op and every kind of shipped message
  under every message fate, owner and stream-holder crashes, a deaf
  backup and exhausted retries: receipt (or time), meter and
  ``plan.events`` against the same run without the fate.
"""

import collections
import dataclasses
import json
import os

import pytest

from repro import faults
from repro.bloom.reducers import ReducerRun
from repro.bloom.structural import AncestorBloomFilter
from repro.dht.network import CONTROL_BYTES, DhtNetwork, OpReceipt
from repro.faults import FaultPlan, OpTimeoutError, RetryPolicy
from repro.index.dpp import DppIndex
from repro.kadop.config import KadopConfig
from repro.kadop.execution import QueryRun
from repro.kadop.system import KadopNetwork
from repro.postings.encoder import encoded_size
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.sim.fuzz import FuzzConfig, FuzzResult, _Iteration, repro_command
from repro.views.definition import ViewDefinition
from repro.views.store import ViewBlockStore

#: one message a forced fate hits: where the fate is drawn, what one copy
#: meters and bills, and what losing it costs beside ``timeout + backoff``
_Message = collections.namedtuple(
    "_Message", "point category metered field billed hops wasted_s"
)

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "fuzz_corpus.json")

with open(CORPUS_PATH) as fh:
    CORPUS = json.load(fh)


def _publish_corpus(net, docs=5):
    for i in range(docs):
        net.peers[i % 3].publish(
            "<log><s>e%d</s><s>f%d</s></log>" % (i, i), uri="u:%d" % i
        )


class TestCorpus:
    @pytest.mark.parametrize(
        "entry", CORPUS, ids=[entry["name"] for entry in CORPUS]
    )
    def test_replay(self, entry, monkeypatch):
        if entry["mode"] == "fuzz":
            self._replay_fuzz(entry, monkeypatch)
        elif entry["mode"] == "scripted-crash-chunk":
            self._replay_crash_chunk(entry)
        else:  # pragma: no cover - corpus schema guard
            pytest.fail("unknown corpus mode %r" % entry["mode"])

    def _replay_fuzz(self, entry, monkeypatch):
        import repro.index.dpp as dppmod

        state = {"crash_during_split": False}
        orig_split = dppmod.DppIndex._split_block

        def counting_split(self, owner, root, node_entry):
            plan = self.net.faults
            before = plan.stats.crashes if plan else 0
            result = orig_split(self, owner, root, node_entry)
            if plan and plan.stats.crashes > before:
                state["crash_during_split"] = True
            return result

        monkeypatch.setattr(dppmod.DppIndex, "_split_block", counting_split)
        cfg = FuzzConfig(**entry["config"])
        iteration = _Iteration(entry["seed"], cfg, FuzzResult())
        iteration.run()  # raises FuzzFailure (with repro command) on regression
        expect = entry.get("expect", {})
        if "min_duplicates" in expect:
            assert iteration.plan.stats.duplicates >= expect["min_duplicates"]
        if expect.get("crash_during_split"):
            assert state["crash_during_split"]
        if "min_serves" in expect:
            assert iteration.result.actions.get("serve", 0) >= expect["min_serves"]
        if "min_serve_coalesced" in expect:
            assert iteration.served_coalesced >= expect["min_serve_coalesced"]
        balance = iteration.system.balance.summary()
        if "min_promotions" in expect:
            assert balance["promotions"] >= expect["min_promotions"]
        if "min_migrations" in expect:
            assert balance["migrations"] >= expect["min_migrations"]
        if "min_fanout_reads" in expect:
            assert balance["fanout_reads"] >= expect["min_fanout_reads"]
        if "min_pruned_acked" in expect:
            assert iteration.pruned_acked >= expect["min_pruned_acked"]
        if "min_view_dematerializations" in expect:
            views = iteration.system.views
            assert views is not None
            assert (
                views.dematerializations
                >= expect["min_view_dematerializations"]
            )

    def _replay_crash_chunk(self, entry):
        cfg = entry["config"]
        net = KadopNetwork.create(
            num_peers=cfg["num_peers"],
            config=KadopConfig(
                replication=cfg["replication"],
                use_dpp=False,
                chunk_postings=cfg["chunk_postings"],
            ),
            seed=entry["seed"],
        )
        plan = net.install_faults(FaultPlan(seed=entry["seed"]))
        _publish_corpus(net)
        baseline = {a.bindings for a in net.query("//log//s")}
        assert baseline
        start = plan.op_count
        plan.script.update(
            {start + k: "crash-chunk:0" for k in range(12)}
        )
        answers, report = net.query_with_report("//log//s")
        assert {a.bindings for a in answers} == baseline
        assert report.complete
        assert plan.stats.crashes >= 1
        assert any(event == "crash-chunk" for _, event, _ in plan.events)

    def test_repro_command_round_trips_every_knob(self):
        cfg = FuzzConfig(
            steps=9,
            num_peers=11,
            replication=2,
            crash_rate=0.07,
            drop_rate=0.03,
            delay_rate=0.01,
            duplicate_rate=0.04,
            overlay="chord",
            write_quorum="majority",
            serve_weight=2,
            store_backend="lsm",
            bulk_publish_weight=3,
            unpublish_weight=2,
            compact_weight=4,
        )
        command = repro_command(4321, cfg)
        # the printed line must pin *every* knob that shapes the scenario,
        # or replaying a failure reproduces a different run
        for flag in (
            "--seed 4321",
            "--iterations 1",
            "--steps 9",
            "--peers 11",
            "--replication 2",
            "--crash-rate 0.07",
            "--drop-rate 0.03",
            "--delay-rate 0.01",
            "--duplicate-rate 0.04",
            "--overlay chord",
            "--write-quorum majority",
            "--serve-weight 2",
            "--store-backend lsm",
            "--bulk-publish-weight 3",
            "--unpublish-weight 2",
            "--compact-weight 4",
        ):
            assert flag in command, flag


class TestZeroFaultDifferential:
    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    @pytest.mark.parametrize("use_dpp", [False, True], ids=["plain", "dpp"])
    def test_none_plan_is_byte_identical(self, overlay, use_dpp):
        def build(with_plan):
            config = KadopConfig(
                replication=3, overlay=overlay, use_dpp=use_dpp,
                dpp_block_entries=4,
            )
            net = KadopNetwork.create(num_peers=8, config=config, seed=11)
            if with_plan:
                net.install_faults(FaultPlan(seed=11))
            _publish_corpus(net, docs=6)
            results = []
            for query_text in ("//log//s", "//log"):
                answers, report = net.query_with_report(query_text)
                results.append((sorted(a.bindings for a in answers), report))
            return net, results

        plain_net, plain = build(with_plan=False)
        fault_net, faulted = build(with_plan=True)
        for (answers_a, report_a), (answers_b, report_b) in zip(plain, faulted):
            assert answers_a == answers_b
            assert dataclasses.asdict(report_a) == dataclasses.asdict(report_b)
        assert plain_net.net.meter.snapshot() == fault_net.net.meter.snapshot()
        plan = fault_net.net.faults
        assert plan.stats.to_dict() == {
            "ops": plan.stats.ops,  # consulted on every op...
            "drops": 0, "delays": 0, "duplicates": 0,  # ...never fires
            "crashes": 0, "restarts": 0, "retries": 0, "timeouts": 0,
        }
        assert plan.stats.ops > 0


class TestDuplicateAccounting:
    def _appended(self, script):
        net = KadopNetwork.create(
            num_peers=6, config=KadopConfig(replication=3), seed=5
        )
        plan = net.install_faults(FaultPlan(seed=5, script=script or {}))
        src = net.peers[0].node
        posting = Posting(0, 0, 1, 2, 0)
        receipt = net.net.append(src, "elem:dup", [posting])
        owner = net.net.owner_of("elem:dup")
        return net, plan, receipt, owner.store.get("elem:dup")

    def test_duplicated_append_charges_wire_not_receipt(self):
        _, _, clean_receipt, clean_list = self._appended(script=None)
        net, plan, dup_receipt, dup_list = self._appended(script={0: "duplicate"})
        assert plan.stats.duplicates == 1
        # idempotent delivery: the second copy never lands in the store
        assert dup_list.items() == clean_list.items()
        # ... and never double-bills the op's receipt (a duplicate only
        # reaches the meter), even though the wire carried it twice
        assert dup_receipt.request_bytes == clean_receipt.request_bytes
        assert dup_receipt.response_bytes == clean_receipt.response_bytes

    def test_duplicated_append_is_metered_as_real_traffic(self):
        _, clean_plan, _, _ = self._appended(script=None)
        clean_net, _, _, _ = self._appended(script=None)
        dup_net, _, _, _ = self._appended(script={0: "duplicate"})
        clean_bytes = clean_net.net.meter.bytes("postings")
        dup_bytes = dup_net.net.meter.bytes("postings")
        assert dup_bytes > clean_bytes  # the wire copy is real transmission


class TestOpFateTable:
    """Every op and every shipped message x every fate, against the same
    run without the fate.

    One rule covers the table.  A *drop* meters and bills the lost copy
    and adds ``timeout + backoff`` (a dropped response also charges the
    disk read that produced it).  A *delay* adds ``delay_s`` and nothing
    else.  A *duplicate* meters one more copy and leaves the receipt
    alone.  ``append_batch`` draws its locate and its direct transfer at
    points of their own, so a fate forced on both hits two messages.
    The shipped rows (``SHIPPED``) are the messages the layers above the
    DHT send with ``DhtNetwork.ship``, plus ``write_at``'s pushed copies;
    a row without a receipt of its own compares the time it reports.
    """

    KEY = "elem:t"
    OBJ = "obj:t"
    RETRIES = 2
    WRITES = ("append", "append_batch", "put_object", "delete")
    OPS = ("locate",) + WRITES + ("get", "pipelined_get", "block_get")
    SHIPPED = ("doc_answers", "bloom_filter", "view_fetch", "dpp_split", "write_at")
    #: the value ``faults._unit`` must return for each fate under rates
    #: drop = delay = duplicate = 0.3 (crash rate 0: no draw ever crashes)
    DRAW = {"drop": 0.0, "delay": 0.4, "duplicate": 0.7, None: 0.99}

    def _run(self, monkeypatch, op, decide=None, script=None, quorum="all"):
        """Run ``op`` once on a fresh, identically built network whose
        fate draws are ``decide(attempt, point, nth draw at that point
        kind)`` (a fate name or None); returns what there is to compare."""
        draws = None  # armed (a dict) only around the op under test

        def unit(seed, *parts):
            if decide is None or draws is None or len(parts) != 3:
                return self.DRAW[None]
            _, attempt, point = parts
            nth = draws[point[0]] = draws.get(point[0], 0) + 1
            return self.DRAW[decide(attempt, point, nth)]

        monkeypatch.setattr(faults, "_unit", unit)
        system = KadopNetwork.create(
            num_peers=8,
            config=KadopConfig(
                replication=3, op_max_retries=self.RETRIES, write_quorum=quorum
            ),
            seed=5,
        )
        net = system.net
        plan = system.install_faults(
            FaultPlan(seed=5, drop_rate=0.3, delay_rate=0.3, duplicate_rate=0.3)
        )
        src = next(
            n for n in net.nodes
            if n not in net.replica_nodes(self.KEY)
            and n not in net.replica_nodes(self.OBJ)
        )
        stored = [Posting(1, 1, 1 + 2 * i, 2 + 2 * i, 1) for i in range(8)]
        net.append(src, self.KEY, stored)
        net.put_object(src, self.OBJ, "old", 48)
        new = [Posting(2, 2, 1 + 2 * i, 2 + 2 * i, 1) for i in range(4)]
        block = PostingList(stored[:5])
        withdrawn = stored[::2]
        calls = {
            "locate": lambda: net.locate(src, self.KEY),
            "append": lambda: net.append(src, self.KEY, new),
            "append_batch": lambda: net.append_batch(src, self.KEY, new),
            "put_object": lambda: net.put_object(src, self.OBJ, "v", 48),
            "get_object": lambda: net.get_object(src, self.OBJ),
            "get": lambda: net.get(src, self.KEY),
            "pipelined_get": lambda: net.pipelined_get(
                src, self.KEY, chunk_postings=3
            ),
            "block_get": lambda: net.block_get(src, self.KEY, block),
            "delete": lambda: net.delete(src, self.KEY, withdrawn),
            "write_at": lambda: self._write_at(net, new),
        }
        if op in self.SHIPPED[:-1]:
            calls[op] = getattr(self, "_" + op)(system, src, stored)
        owner = net.owner_of(self.OBJ if op.endswith("_object") else self.KEY)
        idx = plan.op_count
        plan.script.update({idx: script} if script else {})
        before, seen = net.meter.snapshot(), len(plan.events)
        draws = {}
        answer = error = None
        try:
            receipt = calls[op]()
        except OpTimeoutError as exc:
            receipt, error = exc.receipt, exc
        if isinstance(receipt, tuple):  # the reads: (answer, receipt)
            answer, receipt = receipt
        meter = {
            category: nbytes
            for category, nbytes in net.meter.delta_since(before).items()
            if nbytes
        }
        return {
            "net": net, "plan": plan, "idx": idx, "owner": owner,
            "answer": answer, "receipt": receipt, "error": error, "meter": meter,
            "events": plan.events[seen:],
            "new_bytes": encoded_size(PostingList(new)),
            "withdrawn_bytes": encoded_size(PostingList(withdrawn)),
            "chunk0_bytes": encoded_size(PostingList(stored[:3])),
            "upper_bytes": encoded_size(PostingList(stored[2:4])),
        }

    # -- the shipped rows: each a setup returning the call under test ---------

    def _write_at(self, net, new):
        receipt = OpReceipt()
        net.write_at(net.owner_of(self.KEY), self.KEY, PostingList(new), receipt)
        return receipt

    def _doc_answers(self, system, src, stored):
        """One document peer's round trip: the query ship and the answers."""
        peer = system.peers[1]
        peer.publish("<a><b>x</b><b>y</b></a>", uri="u:t")
        pattern, docs = system.parse("//a//b"), {(1, max(peer.documents))}
        run = QueryRun()

        def call():
            answers, doc_time, _ = system.executor._document_phase(
                pattern, system.peers[src.peer_index], docs, run
            )
            return answers, OpReceipt(duration_s=doc_time)

        return call

    def _bloom_filter(self, system, src, stored):
        reducer = ReducerRun(system, system.parse("//a"), system.peers[src.peer_index])
        reducer.keys[0] = self.KEY
        abf = AncestorBloomFilter(PostingList(stored), l=8, fp_rate=0.01, seed=1)
        return lambda: OpReceipt(duration_s=reducer.charge_filter(abf, 0))

    def _view_fetch(self, system, src, stored):
        store = ViewBlockStore(system)
        view = ViewDefinition(system.parse("//a"))
        store.write_blocks(src, view, PostingList(stored[:3]))

        def call():
            merged, makespan, _, _ = store.fetch_all(src, view)
            return merged.items(), OpReceipt(duration_s=makespan)

        return call

    def _dpp_split(self, system, src, stored):
        dpp, term = DppIndex(system.net, max_block_entries=4), "elem:s"
        dpp.append(src, term, stored[:4])
        owner = system.net.owner_of(term)
        root = dpp._root_at(owner, term)
        return lambda: dpp._split_block(owner, root, root.entries[0])

    def _messages(self, op, clean):
        """The messages one forced fate at attempt 0 hits."""
        receipt, cost, meter = clean["receipt"], clean["net"].cost, clean["meter"]
        hops, span = receipt.hops, max(1, receipt.hops)
        request, payload = ("request",), clean["new_bytes"]
        if op in ("locate", "get_object"):  # get_object: its locate, no more
            wire = CONTROL_BYTES * span
            return [_Message(request, "control", wire, "request_bytes",
                             CONTROL_BYTES, hops, 0.0)]
        if op in ("append", "put_object", "delete"):
            category = "control" if op == "put_object" else "postings"
            if op == "delete":
                payload = clean["withdrawn_bytes"]
            wire = (48 if op == "put_object" else payload) * span
            return [_Message(request, category, wire, "request_bytes", wire,
                             hops, 0.0)]
        if op == "append_batch":
            return self._messages("locate", clean) + [
                _Message(("batch",), "postings", payload, "request_bytes",
                         payload, 0, 0.0)
            ]
        if op == "write_at":  # a pushed copy per backup, billed no bytes
            return [
                _Message(("replica", i), "postings", payload, "request_bytes", 0, 0, 0.0)
                for i in (1, 2)
            ]
        if op == "doc_answers":  # no receipt: only the time is compared
            return [
                _Message(request, category, meter[category], "request_bytes", 0, 0, 0.0)
                for category in ("control", "documents")
            ]
        if op in ("bloom_filter", "view_fetch"):
            category = "filters" if op == "bloom_filter" else "views"
            return [_Message(request, category, meter[category], "request_bytes",
                             0, 0, 0.0)]
        if op == "dpp_split":  # the upper half, routed over the receipt's hops
            wire = clean["upper_bytes"] * span
            return [_Message(request, "postings", wire, "request_bytes", wire,
                             hops, 0.0)]
        payload = receipt.response_bytes
        return [_Message(("response",), "postings", payload, "response_bytes",
                         payload, 0, cost.disk_read_time(payload))]

    @pytest.mark.parametrize("fate", ["drop", "delay", "duplicate"])
    @pytest.mark.parametrize("op", OPS + ("get_object",) + SHIPPED)
    def test_one_fate_against_the_clean_run(self, monkeypatch, op, fate):
        clean = self._run(monkeypatch, op)
        assert clean["error"] is None and clean["events"] == []
        messages = self._messages(op, clean)
        points = {msg.point for msg in messages}
        run = self._run(
            monkeypatch, op,
            decide=lambda attempt, pt, nth: (
                fate if attempt == 0 and pt in points else None
            ),
        )
        assert run["error"] is None
        assert [e[1:] for e in run["events"]] == [(fate, m.point) for m in messages]
        if op not in self.SHIPPED:  # a shipped message is numbered apart
            assert {e[0] for e in run["events"]} == {run["idx"]}
        net, plan = run["net"], run["plan"]
        expected = dataclasses.replace(clean["receipt"])
        meter = dict(clean["meter"])
        for msg in messages:
            if fate == "drop":
                expected.hops += msg.hops
                billed = getattr(expected, msg.field) + msg.billed
                setattr(expected, msg.field, billed)
                expected.duration_s += msg.wasted_s + net._retry_wait(0)
            elif fate == "delay":
                expected.duration_s += plan.delay_s
            if fate != "delay":
                meter[msg.category] += msg.metered
        got = run["receipt"]
        assert (got.hops, got.request_bytes, got.response_bytes) == (
            expected.hops, expected.request_bytes, expected.response_bytes
        )
        if fate == "duplicate":
            assert got == clean["receipt"]  # to the last bit
        else:
            assert got.duration_s == pytest.approx(expected.duration_s, rel=1e-12)
        assert run["meter"] == meter
        counts = plan.stats.to_dict()
        assert counts[fate + "s"] == len(messages)
        assert counts["retries"] == (len(messages) if fate == "drop" else 0)
        assert counts["timeouts"] == counts["crashes"] == 0

    @pytest.mark.parametrize("op", OPS)
    def test_retries_exhausted(self, monkeypatch, op):
        clean = self._run(monkeypatch, op)
        msg = self._messages(op, clean)[-1]
        run = self._run(
            monkeypatch, op,
            decide=lambda attempt, pt, nth: "drop" if pt == msg.point else None,
        )
        error, net, attempts = run["error"], run["net"], self.RETRIES + 1
        assert isinstance(error, OpTimeoutError)
        assert (error.op, error.attempts) == (op, attempts)
        assert error.key == (self.OBJ if op == "put_object" else self.KEY)
        assert run["events"] == [(run["idx"], "drop", msg.point)] * attempts
        assert run["plan"].stats.timeouts == 1
        assert run["plan"].stats.drops == run["plan"].stats.retries == attempts
        # the receipt so far rides on the error: every lost copy billed and
        # metered, every wait charged; compound ops fold their locate in
        located = OpReceipt()
        if op in ("append_batch", "get", "pipelined_get"):
            span = max(1, clean["receipt"].hops)
            located = OpReceipt(
                hops=clean["receipt"].hops,
                request_bytes=CONTROL_BYTES,
                duration_s=net.cost.transfer_time(CONTROL_BYTES, hops=span),
            )
            assert run["meter"].pop("control") == CONTROL_BYTES * span
        got = error.receipt
        assert got.hops == located.hops + msg.hops * attempts
        assert got.request_bytes + got.response_bytes == (
            located.request_bytes + msg.billed * attempts
        )
        assert getattr(got, msg.field) == (
            getattr(located, msg.field) + msg.billed * attempts
        )
        assert got.duration_s == pytest.approx(
            located.duration_s
            + sum(msg.wasted_s + net._retry_wait(a) for a in range(attempts))
        )
        assert run["meter"] == {msg.category: msg.metered * attempts}

    @pytest.mark.parametrize("op", WRITES)
    def test_crash_owner_before_a_write_applies(self, monkeypatch, op):
        clean = self._run(monkeypatch, op)
        run = self._run(monkeypatch, op, script="crash-owner")
        net, plan, old_owner = run["net"], run["plan"], run["owner"]
        assert run["error"] is None
        assert run["events"] == [(run["idx"], "crash", old_owner.peer_index)]
        assert not old_owner.alive
        counts = plan.stats.to_dict()
        assert (counts["crashes"], counts["retries"], counts["drops"]) == (1, 1, 0)
        # the lost attempt is billed and waited out, then the retry
        # re-routes: the successor applied the write, the dead owner did not
        key = self.OBJ if op == "put_object" else self.KEY
        new_owner = net.owner_of(key)
        assert new_owner is not old_owner and new_owner.alive
        got, lost = run["receipt"], self._messages(op, clean)[-1]
        assert got.request_bytes >= clean["receipt"].request_bytes + lost.billed
        assert got.duration_s > net._retry_wait(0)
        if op == "put_object":
            assert new_owner.objects[key][0] == "v"
            assert old_owner.objects[key][0] == "old"
        elif op == "delete":
            assert old_owner.store.count(key) == 8
            assert new_owner.store.count(key) == 4
        else:
            assert old_owner.store.count(key) == 8
            assert new_owner.store.count(key) == 12
        if op in ("append", "delete"):
            # routed writes bill exactly what they put on the wire
            assert run["meter"] == {"postings": got.request_bytes}

    def test_crash_chunk_mid_pipelined_get(self, monkeypatch):
        clean = self._run(monkeypatch, "pipelined_get")
        run = self._run(monkeypatch, "pipelined_get", script="crash-chunk:0")
        holder, net = run["owner"], run["net"]
        assert run["events"] == [
            (run["idx"], "crash", holder.peer_index),
            (run["idx"], "crash-chunk", 0),
        ]
        assert run["plan"].stats.retries == 1
        # the one chunk already received is wasted wire traffic, billed and
        # metered, and so is its disk read; the wait is charged; the retry
        # probes once for a live holder (one 64 B control round trip)
        wasted = run["chunk0_bytes"]
        got, base = run["receipt"], clean["receipt"]
        assert got.response_bytes == base.response_bytes + wasted
        assert got.hops == base.hops
        assert got.request_bytes == base.request_bytes + CONTROL_BYTES
        assert got.duration_s == pytest.approx(
            base.duration_s
            + net.cost.disk_read_time(wasted)
            + net._retry_wait(0)
            + net.cost.transfer_time(CONTROL_BYTES, hops=1)
        )
        assert run["meter"] == {
            "postings": clean["meter"]["postings"] + wasted,
            "control": clean["meter"]["control"] + CONTROL_BYTES,
        }

    def test_retried_stream_is_served_by_a_live_holder(self, monkeypatch):
        clean = self._run(monkeypatch, "pipelined_get")
        run = self._run(monkeypatch, "pipelined_get", script="crash-chunk:0")
        net, dead = run["net"], run["owner"]
        assert not dead.alive and self.KEY in dead.store  # its disk survives
        assert net.last_holder.alive and net.last_holder is not dead
        assert self.KEY in net.last_holder.store
        assert [c.items() for c in run["answer"]] == [
            c.items() for c in clean["answer"]
        ]
        # the retry found the live holder with one probe
        assert run["receipt"].request_bytes == (
            clean["receipt"].request_bytes + CONTROL_BYTES
        )

    @pytest.mark.parametrize("quorum", ["all", "majority"])
    def test_deaf_backup(self, monkeypatch, quorum):
        clean = self._run(monkeypatch, "append", quorum=quorum)
        run = self._run(
            monkeypatch, "append", quorum=quorum,
            decide=lambda attempt, pt, nth: (
                "drop" if pt == ("replica", 1) else None
            ),
        )
        net, payload, attempts = run["net"], run["new_bytes"], self.RETRIES + 1
        assert run["events"] == [(run["idx"], "drop", ("replica", 1))] * attempts
        deaf = net.replica_nodes(self.KEY)[1]
        assert deaf.store.count(self.KEY) == 8  # never got the append
        waits = sum(net._retry_wait(a) for a in range(attempts))
        extra = {"postings": clean["meter"]["postings"] + self.RETRIES * payload}
        assert run["meter"] == extra  # R + 1 copies sent where one would do
        if quorum == "all":
            # the error carries the op's whole receipt: the locate, request
            # and store time too, not just the replication's
            error = run["error"]
            assert (error.op, error.attempts) == ("replicate", attempts)
            assert run["plan"].stats.timeouts == 1
            got = error.receipt
        else:
            assert run["error"] is None and run["plan"].stats.timeouts == 0
            got = run["receipt"]
        base = clean["receipt"]
        assert got.hops == base.hops
        assert got.request_bytes == base.request_bytes + self.RETRIES * payload
        assert got.duration_s == pytest.approx(
            base.duration_s - net.cost.transfer_time(payload, hops=1) + waits
        )

    def test_dpp_append_that_misses_its_quorum_covers_its_block(self, monkeypatch):
        """The block's holder keeps a DPP append whose pushed copies are
        all lost: the root's condition and zone map still cover it."""
        system = KadopNetwork.create(
            num_peers=8,
            config=KadopConfig(
                replication=3, op_max_retries=self.RETRIES, write_quorum="all"
            ),
            seed=5,
        )
        net, dpp, term = system.net, DppIndex(system.net, max_block_entries=64), "elem:s"
        src = net.nodes[0]
        dpp.append(src, term, [Posting(1, 1, 1 + 2 * i, 2 + 2 * i, 1) for i in range(4)])
        system.install_faults(FaultPlan(seed=5, drop_rate=0.3))

        def unit(seed, *parts):  # drop every pushed copy, nothing else
            pushed = isinstance(parts[-1], tuple) and parts[-1][0] == "replica"
            return self.DRAW["drop" if pushed else None]

        monkeypatch.setattr(faults, "_unit", unit)
        with pytest.raises(OpTimeoutError):
            dpp.append(src, term, [Posting(2, 2, 1 + 2 * i, 2 + 2 * i, 1) for i in range(4)])
        owner = net.owner_of(term)
        entry = dpp._root_at(owner, term).entries[0]
        holder, store_key = dpp._block_location(owner, entry, term)
        block = holder.store.get(store_key)
        assert len(block) == entry.zone.count == 8
        assert block.first in entry.condition and block.last in entry.condition
        assert entry.zone.max_start == max(p.start for p in block)

    def test_a_broadcast_resends_one_copy_and_one_to_nobody_is_never_lost(
        self, monkeypatch
    ):
        net = DhtNetwork.create(4, replication=1)
        net.faults = FaultPlan(seed=1, drop_rate=0.3)
        monkeypatch.setattr(  # every first copy is dropped
            faults, "_unit",
            lambda seed, *parts: self.DRAW["drop" if parts[-2] == 0 else None],
        )
        before = net.meter.snapshot()
        assert net.ship("k", 100, "control", fanout=0) == net.cost.transfer_time(100)
        assert net.faults.events == [] and not net.meter.delta_since(before)
        seconds = net.ship("k", 100, "control", fanout=3)
        assert net.meter.delta_since(before)["control"] == 3 * 100 + 100
        assert seconds == pytest.approx(net.cost.transfer_time(100) + net._retry_wait(0))


class TestReadHolder:
    """The one holder choice of ``get``, ``pipelined_get`` and
    ``get_object`` after an abrupt crash, with no repair run: the
    graceful ``remove_node`` handover (``test_dht.py::TestReplication``)
    re-homes keys first and never probes."""

    KEY = "t"

    def _read(self, op, missed_write):
        """Crash ``KEY``'s owner and read ``KEY`` under a zero-fault plan.
        With ``missed_write`` the first backup, the crashed owner's routed
        successor, lacks the key (a deaf backup under a majority quorum)."""
        net = DhtNetwork.create(10, replication=3)
        owner, backup, holder = net.replica_nodes(self.KEY)
        src = next(n for n in net.nodes if n not in (owner, backup, holder))
        if op == "get_object":
            net.put_object(src, self.KEY, "payload", nbytes=40)
            if missed_write:
                del backup.objects[self.KEY]
        else:
            postings = [Posting(1, 1, 1 + 2 * i, 2 + 2 * i, 1) for i in range(6)]
            net.append(src, self.KEY, postings)
            if missed_write:
                backup.store.delete(self.KEY)
        net.crash_node(owner)
        net.faults = FaultPlan()
        assert net.owner_of(self.KEY) is backup
        before = net.meter.snapshot()
        if op == "pipelined_get":
            answer, receipt = net.pipelined_get(src, self.KEY, chunk_postings=4)
            answer = [chunk.items() for chunk in answer]
        else:
            answer, receipt = getattr(net, op)(src, self.KEY)
        return net, holder, answer, receipt, net.meter.delta_since(before)

    @pytest.mark.parametrize("op", ["get", "pipelined_get", "get_object"])
    def test_crashed_owner_read_is_served_by_a_live_holder(self, op):
        net, holder, answer, receipt, meter = self._read(op, missed_write=True)
        _, _, clean_answer, clean, clean_meter = self._read(op, missed_write=False)
        assert net.last_holder is holder and holder.alive
        if op == "get_object":
            assert self.KEY in holder.objects and answer == "payload"
        else:
            assert self.KEY in holder.store and answer == clean_answer
        # one probe: a 64 B control round trip over one hop, on the
        # receipt and the meter, and nothing else
        assert (receipt.hops, receipt.response_bytes) == (
            clean.hops, clean.response_bytes
        )
        assert receipt.request_bytes == clean.request_bytes + CONTROL_BYTES
        assert receipt.duration_s == pytest.approx(
            clean.duration_s + net.cost.transfer_time(CONTROL_BYTES, hops=1)
        )
        assert meter["control"] == clean_meter["control"] + CONTROL_BYTES


class TestRetryPolicy:
    def test_timeout_carries_attempts_and_backoff(self):
        net = KadopNetwork.create(
            num_peers=6, config=KadopConfig(replication=2), seed=9
        )
        net.install_faults(FaultPlan(seed=9, drop_rate=1.0))
        with pytest.raises(OpTimeoutError) as excinfo:
            net.net.locate(net.peers[0].node, "elem:gone")
        exc = excinfo.value
        retry = net.net.retry
        assert exc.key == "elem:gone"
        assert exc.op == "locate"
        assert exc.attempts == retry.max_retries + 1
        # every failed attempt waited out the op timeout plus its capped
        # exponential backoff, charged in *simulated* time on the receipt
        expected_wait = sum(
            retry.timeout_s + retry.backoff(a)
            for a in range(retry.max_retries + 1)
        )
        assert exc.receipt.duration_s >= expected_wait

    def test_backoff_cap(self):
        policy = RetryPolicy(backoff_s=0.05, backoff_cap_s=0.2, max_retries=8)
        waits = [policy.backoff(a) for a in range(9)]
        assert waits[0] == pytest.approx(0.05)
        assert waits[1] == pytest.approx(0.1)
        assert max(waits) == pytest.approx(0.2)
        assert waits[-1] == pytest.approx(0.2)


class TestWriteQuorum:
    def _net(self, quorum):
        net = KadopNetwork.create(
            num_peers=6,
            config=KadopConfig(replication=3, write_quorum=quorum),
            seed=13,
        )
        return net, net.install_faults(FaultPlan(seed=13))

    def test_majority_tolerates_one_deaf_replica(self, monkeypatch):
        net, plan = self._net("majority")
        deaf = {1}  # second backup never acks

        def replica_fate(idx, attempt, replica_index):
            return "drop" if replica_index in deaf else "deliver"

        monkeypatch.setattr(plan, "replica_fate", replica_fate)
        posting = Posting(0, 0, 1, 2, 0)
        net.net.append(net.peers[0].node, "elem:q", [posting])  # must not raise
        holders = [
            n for n in net.net.alive_nodes() if "elem:q" in n.store
        ]
        assert len(holders) == 2  # owner + one acked backup
        # anti-entropy catches the deaf replica up afterwards
        report = net.repair()
        assert report.copies_made >= 1
        holders = [n for n in net.net.alive_nodes() if "elem:q" in n.store]
        assert len(holders) == 3
        assert not report.lost_keys

    def test_all_quorum_fails_on_deaf_replica(self, monkeypatch):
        net, plan = self._net("all")

        def replica_fate(idx, attempt, replica_index):
            return "drop" if replica_index == 1 else "deliver"

        monkeypatch.setattr(plan, "replica_fate", replica_fate)
        with pytest.raises(OpTimeoutError):
            net.net.append(net.peers[0].node, "elem:q", [Posting(0, 0, 1, 2, 0)])


class TestGracefulDegradation:
    def test_unreachable_term_degrades_not_raises(self):
        net = KadopNetwork.create(
            num_peers=6, config=KadopConfig(replication=1), seed=21
        )
        plan = net.install_faults(FaultPlan(seed=21))
        _publish_corpus(net, docs=4)
        # from here on every message is lost: each term fetch exhausts its
        # retries, and the query must degrade instead of raising
        plan.drop_rate = 1.0
        answers, report = net.query_with_report("//log//s")
        assert not report.complete
        assert report.unreachable_keys
        assert answers == []  # partial answer, never an exception
        assert plan.stats.timeouts >= 1

    def test_fuzzer_join_survives_a_lost_catalog_row(self):
        iteration = _Iteration(0, FuzzConfig(), FuzzResult())
        plan, peers = iteration.plan, len(iteration.system.peers)
        plan.drop_rate, plan.delay_rate, plan.duplicate_rate = 1.0, 0.0, 0.0
        iteration.act_join()  # the catalog row's put_object times out
        assert len(iteration.system.peers) == peers + 1
        assert plan.stats.timeouts == 1


class TestSchedulerJitter:
    def test_task_delay_is_deterministic_and_rate_gated(self):
        jittered = FaultPlan(seed=3, task_jitter_rate=1.0, task_jitter_s=0.02)
        twin = FaultPlan(seed=3, task_jitter_rate=1.0, task_jitter_s=0.02)
        other = FaultPlan(seed=4, task_jitter_rate=1.0, task_jitter_s=0.02)
        off = FaultPlan(seed=3, task_jitter_rate=0.0)
        delays = [jittered.task_delay("xfer", i) for i in range(20)]
        assert delays == [twin.task_delay("xfer", i) for i in range(20)]
        assert delays != [other.task_delay("xfer", i) for i in range(20)]
        assert all(0.0 <= d <= 0.02 for d in delays)
        assert any(d > 0.0 for d in delays)
        assert all(off.task_delay("xfer", i) == 0.0 for i in range(20))

    def test_scheduler_charges_jitter_in_simulated_time(self):
        from repro.sim.tasks import Scheduler

        def timeline(plan):
            scheduler = Scheduler()
            if plan is not None:
                scheduler.install_faults(plan)
            resource = scheduler.add_resource("link", 1)
            for i in range(4):
                scheduler.add_task("xfer", 0.1, resources=(resource,))
            return scheduler.run()

        plain = timeline(None)
        jittered = timeline(
            FaultPlan(seed=7, task_jitter_rate=1.0, task_jitter_s=0.05)
        )
        assert jittered > plain  # the stretch lands on the clock
        assert jittered == timeline(
            FaultPlan(seed=7, task_jitter_rate=1.0, task_jitter_s=0.05)
        )
