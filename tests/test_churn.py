"""Churn scenario: interleaved publishes, joins, leaves, and queries.

The paper targets applications where "peer volatility is not very high" and
relies on DHT replication to protect index entries against some peer
failure.  This scenario drives a network through a realistic session —
documents published over time, peers joining, an index peer failing — and
checks that queries stay correct throughout (modulo documents whose only
holder died, which are reported via the incomplete flag)."""

import os
import random
import subprocess
import sys

import pytest

import repro

from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.postings.posting import Posting
from repro.query.matcher import match_document, match_to_postings


class TestChurnScenario:
    def test_long_session(self):
        rng = random.Random(99)
        net = KadopNetwork.create(
            num_peers=8, config=KadopConfig(replication=3), seed=17
        )
        published = {}  # (peer_idx, doc_idx) -> xml text

        def publish(peer_idx, text):
            peer = net.peers[peer_idx]
            receipt = peer.publish(text, uri="u:%d" % len(published))
            doc_idx = max(peer.documents)
            published[(peer_idx, doc_idx)] = text

        def expected(query_text):
            pattern = net.parse(query_text)
            from repro.xmldata.parser import parse_document

            result = set()
            for (peer_idx, doc_idx), text in published.items():
                if not net.peers[peer_idx].node.alive:
                    continue
                doc = parse_document(text)
                for m in match_document(pattern, doc):
                    result.add(
                        tuple(
                            sorted(
                                match_to_postings(m, peer_idx, doc_idx).items()
                            )
                        )
                    )
            return result

        def check(query_text):
            src = next(p for p in net.peers if p.node.alive)
            answers, report = net.query_with_report(query_text, peer=src)
            got = {a.bindings for a in answers}
            assert got == expected(query_text), query_text

        # phase 1: initial content on the first three peers
        for i in range(6):
            label = rng.choice("st")
            publish(i % 3, "<log><%s>entry %d</%s></log>" % (label, i, label))
        check("//log//s")
        check("//log//t")

        # phase 2: two peers join; previously published data must survive
        net.add_peer("kadop://join/1")
        net.add_peer("kadop://join/2")
        check("//log//s")

        # phase 3: the new peers publish too
        publish(8, "<log><s>from joiner</s></log>")
        publish(9, "<log><t>late entry</t></log>")
        check("//log//s")
        check("//log//t")

        # phase 4: kill a non-document index peer; replication covers it
        doc_peers = {p for p, _ in published}
        victim = next(
            p for p in net.peers if p.index not in doc_peers and p.node.alive
        )
        net.net.remove_node(victim.node)
        check("//log//s")
        check("//log//t")

        # phase 5: a document-holding peer dies: its answers disappear and
        # the report flags incompleteness
        doc_victim = net.peers[sorted(doc_peers)[0]]
        net.net.remove_node(doc_victim.node)
        answers, report = net.query_with_report("//log//s", peer=net.peers[1])
        got = {a.bindings for a in answers}
        assert got == expected("//log//s")  # expected() skips dead peers
        # incompleteness is reported iff the dead peer held candidates
        held_s = any(
            p == doc_victim.index and "<s>" in text
            for (p, _), text in published.items()
        )
        assert report.complete != held_s

        # phase 6: life goes on — publish and query again
        publish(1, "<log><s>after the failure</s></log>")
        check("//log//s")

    def test_repeated_join_leave_cycles(self):
        net = KadopNetwork.create(
            num_peers=6, config=KadopConfig(replication=3), seed=23
        )
        net.peers[0].publish("<a><b>stable</b></a>", uri="u:0")
        baseline = {a.bindings for a in net.query("//a//b")}
        for cycle in range(3):
            joined = net.add_peer("kadop://cycle/%d" % cycle)
            assert {a.bindings for a in net.query("//a//b")} == baseline
            net.net.remove_node(joined.node)
            assert {a.bindings for a in net.query("//a//b")} == baseline


_WITHDRAWN = "<lib><book><author>Zyxw</author></book></lib>"
_KEPT = "<lib><book><author>Abc</author></book></lib>"


class TestChurnEdges:
    """Corner cases of delete, re-homing, and handover under churn."""

    def test_delete_explicit_posting_reaches_every_replica(self):
        net = KadopNetwork.create(
            num_peers=6, config=KadopConfig(replication=3), seed=31
        )
        key = "elem:x"
        keep = Posting(0, 0, 1, 2, 0)
        gone = Posting(0, 1, 1, 2, 0)
        net.net.append(net.peers[0].node, key, [keep, gone])
        removed, _ = net.net.delete(net.peers[1].node, key, postings=[gone])
        assert removed
        holders = [n for n in net.net.alive_nodes() if key in n.store]
        assert len(holders) == 3
        for node in holders:
            assert list(node.store.get(key)) == [keep]
        # the rewrite is stamped: a later repair must not resurrect the
        # deleted posting from a copy that predates the delete
        net.net.anti_entropy_repair()
        for node in net.net.alive_nodes():
            if key in node.store:
                assert list(node.store.get(key)) == [keep]

    @pytest.mark.parametrize("backend", ["btree", "naive", "lsm"])
    def test_repair_after_unpublish_loses_nothing(self, backend):
        # withdrawing a document's only posting for a term drops the term
        # from every store: repair must neither check it nor report it lost
        net = KadopNetwork.create(
            num_peers=8,
            config=KadopConfig(replication=2, store_backend=backend),
            seed=0,
        )
        net.peers[0].publish(_WITHDRAWN, uri="u:0")
        net.peers[1].publish(_KEPT, uri="u:1")
        net.peers[0].unpublish(min(net.peers[0].documents))
        report = net.repair()
        assert report.lost_keys == ()
        assert report.keys_checked == 14
        assert not any("word:zyxw" in n.store for n in net.net.nodes)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 14: a delete issued while a replica is down"
        " leaves no tombstone, so the restarted replica's copy resurrects",
    )
    def test_withdrawn_posting_stays_withdrawn_after_restart(self):
        net = KadopNetwork.create(
            num_peers=8, config=KadopConfig(replication=2), seed=0
        )
        net.peers[0].publish(_WITHDRAWN, uri="u:0")
        net.peers[1].publish(_KEPT, uri="u:1")
        key = "word:zyxw"
        backup = net.net.replica_nodes(key)[1]
        net.net.crash_node(backup)
        net.peers[0].unpublish(min(net.peers[0].documents))
        net.net.restart_node(backup)
        net.repair()
        held = [n.peer_index for n in net.net.alive_nodes() if key in n.store]
        assert held == []

    def test_rehome_when_every_replica_died(self):
        net = KadopNetwork.create(
            num_peers=8, config=KadopConfig(replication=2), seed=37
        )
        key = "elem:x"
        net.net.append(net.peers[0].node, key, [Posting(0, 0, 1, 2, 0)])
        holders = [n for n in net.net.alive_nodes() if key in n.store]
        assert len(holders) == 2
        # crash the backup (disk kept, nothing handed over), then remove
        # the owner gracefully: _rehome_key finds no surviving replica
        owner = net.net.owner_of(key)
        backup = next(n for n in holders if n is not owner)
        net.net.crash_node(backup)
        net.net.remove_node(owner)
        assert not any(
            key in n.store for n in net.net.alive_nodes()
        )  # replication factor exceeded: the data really is gone
        # ... until the crashed backup restarts as the sole survivor —
        # restart_node must keep its copy, not drop it as an orphan
        net.net.restart_node(backup)
        assert any(key in n.store for n in net.net.alive_nodes())
        net.net.anti_entropy_repair()
        holders = [n for n in net.net.alive_nodes() if key in n.store]
        assert len(holders) == 2

    def test_chord_remove_node_hands_over_to_successor(self):
        net = KadopNetwork.create(
            num_peers=8,
            config=KadopConfig(replication=2, overlay="chord"),
            seed=41,
        )
        net.peers[0].publish("<a><b>chord</b></a>", uri="u:0")
        baseline = {a.bindings for a in net.query("//a//b")}
        assert baseline
        key = "elem:b"
        owner = net.net.owner_of(key)
        net.net.remove_node(owner)
        # Chord handover: the next successor owns the key now and (as the
        # first replica) already holds or just received a copy
        new_owner = net.net.owner_of(key)
        assert new_owner is not owner
        assert key in new_owner.store
        src = next(p for p in net.peers if p.node.alive)
        assert {a.bindings for a in net.query("//a//b", peer=src)} == baseline


_HANDOVER_SCRIPT = """
from repro.kadop.system import KadopNetwork
from repro.postings.posting import Posting

system = KadopNetwork.create(8, seed=1)
net = system.net
src = system.peers[0].node
keys = ["elem:k%d" % k for k in range(60)]
for key in keys:
    net.append(src, key, [
        Posting(0, doc, 2 * e + 1, 2 * e + 2, 1)
        for doc in range(6) for e in range(20)
    ])
system.add_peer("peer://late")
for key in keys:
    print(repr(net.append(src, key, [Posting(0, 7, 1, 2, 1)]).duration_s))
net.remove_node(system.peers[3].node)
for key in keys:
    print(repr(net.append(src, key, [Posting(0, 8, 1, 2, 1)]).duration_s))
"""


def test_handover_order_ignores_the_hash_seed():
    """Join and leave hand keys over in sorted order, not ``set`` order:
    the receiving store fills the same way, so later simulated store times
    there are the same in every process (``faults.py`` promises decisions
    "identical across processes and ``PYTHONHASHSEED`` values")."""

    def receipts(hash_seed):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        )
        return subprocess.run(
            [sys.executable, "-c", _HANDOVER_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout

    first = receipts("1")
    assert len(first.splitlines()) == 120
    assert first == receipts("2")
