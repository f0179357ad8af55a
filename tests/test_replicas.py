"""``repro.dht.replicas.reconcile`` against the single-winner hand-over it
replaced.

Until the one reconcile rule, join, leave, restart, migration and
promotion copied one winning copy (highest stamp, then most postings,
then lowest peer), while repair took the union of the top-stamp copies.
The three ``DhtNetwork`` methods behind the two rules are kept below,
verbatim, as the reference.  On random replica states (5-8 nodes, random
stamps, copies that missed different appends at one stamp, control
objects, crashed holders, targets with no copy, a stale copy or a fresh
one) reconcile must do what the single winner did wherever the top
copies agree, hand over their union where they do not, and never lower a
stamp.  Each state is built on the B+-tree, LSM and PAST-style stores
alike, since reconcile tells agreeing copies apart by the stores'
summaries.

The store summaries themselves are checked against a recount after every
write of a random script, and a DPP publish pins what they buy: no union
while the copies agree, and a union as soon as one diverges.
"""

import functools
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dht import replicas
from repro.dht.network import DhtNetwork
from repro.dht.replicas import Membership, reconcile
from repro.experiments.harness import dblp_network
from repro.kadop.config import KadopConfig
from repro.postings.encoder import encoded_size
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.storage import ClusteredIndexStore, NaiveGzipStore
from repro.storage.api import EMPTY_SUMMARY, summarise
from repro.storage.lsm import LsmStore

KEY = "elem:k"
ROOT = "dpproot:elem:k"

#: every store backend; the LSM store flushes and folds runs every few
#: postings, so a script crosses its layers
STORES = (
    ClusteredIndexStore,
    functools.partial(LsmStore, memtable_postings=3, max_runs=2),
    NaiveGzipStore,
)


# -- the replaced DhtNetwork methods, verbatim --------------------------------


def freshest_holder(self, key, exclude=None):
    """The alive node, other than ``exclude``, with the freshest copy
    of ``key`` (posting list or control object); None if nobody has one.

    The one ranking every hand-over uses — join, restart, graceful
    leave, rebalancer migration, hot-key promotion: highest write stamp
    (see :meth:`next_stamp`), then most postings, then lowest peer."""
    holders = [
        n
        for n in self.alive_nodes()
        if n is not exclude and (key in n.store or key in n.objects)
    ]
    return max(
        holders,
        key=lambda n: (
            n.versions.get(key, 0),
            n.store.count(key) if key in n.store else 0,
            -n.peer_index,
        ),
        default=None,
    )


def copy_key(self, source, target, key):
    """Replace ``target``'s copy of ``key`` with ``source``'s — posting
    list and control object, whichever exist — at the source's stamp
    (a moved copy is the same logical write), metered as wire traffic.
    Returns the bytes moved."""
    version = source.versions.get(key, 0)
    moved = 0
    if key in source.store:
        postings = source.store.get(key)
        self.sync_copy(target, key, postings, version)
        moved = encoded_size(postings)
        self.meter.record("postings", moved)
    if key in source.objects:
        obj, nbytes = source.objects[key]
        target.objects[key] = (obj, nbytes)
        target.versions[key] = version
        self.meter.record("control", nbytes)
        moved += nbytes
    return moved


def freshest_postings(self, key, exclude=None, floor=0):
    """``(version, postings)``: the highest stamp at which an alive
    node other than ``exclude`` stores ``key``, and the union of the
    copies at that stamp.  None when nobody stores the key, or when
    that stamp is below ``floor`` (the caller's own copy is fresher;
    no list is read).

    The freshest *version* wins — size is no proxy, a stale
    pre-rewrite (pre-split) copy can be the largest.  Copies at the
    same top version can still differ: under a majority quorum each
    may have missed a different earlier append, so the reference is
    their union.  (Safe because rewrites — splits, deletes — always
    bump the version on every copy they touch; equal-version copies
    only ever diverge by missed appends.)"""
    holders = [
        n for n in self.alive_nodes() if n is not exclude and key in n.store
    ]
    if not holders:
        return None
    version = max(n.versions.get(key, 0) for n in holders)
    if version < floor:
        return None
    tops = sorted(
        (n for n in holders if n.versions.get(key, 0) == version),
        key=lambda n: (-n.store.count(key), n.peer_index),
    )
    return version, PostingList.concat([n.store.get(key) for n in tops])


def single_winner(net, key, targets):
    """The rebalancer migration's hand-over before reconcile: the freshest
    other copy lands on each target unless the target's is as fresh."""
    for target in targets:
        source = freshest_holder(net, key, exclude=target)
        if source is None:
            continue
        version = source.versions.get(key, 0)
        if key in source.store:
            held = (
                target.versions.get(key, 0),
                target.store.count(key) if key in target.store else 0,
            )
            stale = held < (version, source.store.count(key))
        else:
            stale = key not in target.objects or target.versions.get(key, 0) < version
        if stale:
            copy_key(net, source, target, key)


# -- random replica states ----------------------------------------------------


@st.composite
def replica_states(draw):
    """A list-key history of appends at rising stamps, each node's copy of
    it (or none), an object history, the crashed nodes and the targets."""
    nodes = draw(st.integers(5, 8))
    gaps = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    stamps = [sum(gaps[: i + 1]) for i in range(len(gaps))]
    sizes = [draw(st.integers(1, 3)) for _ in stamps]
    copies = []
    for _ in range(nodes):
        if draw(st.booleans()):
            copies.append(None)
            continue
        # half the copies sit at the top stamp, where holes can differ
        top = len(stamps) - 1
        upto = draw(st.one_of(st.just(top), st.integers(0, top)))
        # the write at its own stamp landed; any earlier one may be missed
        missed = draw(st.sets(st.integers(0, upto), max_size=upto).map(
            lambda s, upto=upto: s - {upto}
        ))
        copies.append((upto, frozenset(missed)))
    objects = [
        draw(st.one_of(st.none(), st.integers(1, 6))) for _ in range(nodes)
    ]
    crashed = draw(st.sets(st.integers(0, nodes - 1), max_size=2))
    alive = [i for i in range(nodes) if i not in crashed]
    targets = draw(
        st.lists(st.sampled_from(alive), min_size=1, max_size=3, unique=True)
    )
    return stamps, sizes, copies, objects, crashed, targets


def _append(i, size):
    return [Posting(0, i, 2 * e + 1, 2 * e + 2, 1) for e in range(size)]


def build(state, store):
    stamps, sizes, copies, objects, crashed, _ = state
    net = DhtNetwork(replication=2)
    for index in range(len(copies)):
        net.add_node("peer://%d" % index, store())
    for node, copy, obj in zip(net.nodes, copies, objects):
        if copy is not None:
            upto, missed = copy
            held = [p for i in range(upto + 1) if i not in missed for p in _append(i, sizes[i])]
            node.store.append(KEY, PostingList(held))
            node.versions[KEY] = stamps[upto]
        if obj is not None:
            node.objects[ROOT] = (("root", obj), 40 + obj)
            node.versions[ROOT] = obj
    for index in sorted(crashed):
        net.crash_node(net.nodes[index])
    return net


def snapshot(net):
    return [
        (
            node.store.get(KEY).items() if KEY in node.store else None,
            node.objects.get(ROOT),
            node.versions.get(KEY),
            node.versions.get(ROOT),
        )
        for node in net.nodes
    ]


def top_copies(net):
    lists = [n for n in net.alive_nodes() if KEY in n.store]
    if not lists:
        return set()
    stamp = max(n.versions[KEY] for n in lists)
    return {tuple(n.store.get(KEY).items()) for n in lists if n.versions[KEY] == stamp}


#: two top-stamp copies that each missed a different append, a stale one,
#: an object holder, one crashed node, and targets with no copy and a top one
DIVERGENT = (
    [1, 2, 4], [1, 2, 1],
    [(2, frozenset({0})), (2, frozenset({1})), (1, frozenset()), None, None],
    [None, 3, None, 5, None], {2}, [4, 0],
)


@settings(max_examples=300, deadline=None)
@example(DIVERGENT)
@given(replica_states())
def test_reconcile_against_the_single_winner(state):
    for store in STORES:
        check_against_the_single_winner(state, store)


def check_against_the_single_winner(state, store):
    old, new = build(state, store), build(state, store)
    targets = state[-1]
    tops = top_copies(new)
    before = snapshot(new)
    meter_before = new.meter.snapshot()
    for key in (KEY, ROOT):
        single_winner(old, key, [old.nodes[i] for i in targets])
        reconcile(new, key, [new.nodes[i] for i in targets])
    after, reference = snapshot(new), snapshot(old)
    moved = new.meter.snapshot()
    for index in targets:
        items, obj, list_stamp, obj_stamp = after[index]
        assert (obj, obj_stamp) == reference[index][1::2]
        if len(tops) <= 1:  # the top copies agree: exactly the single winner
            assert after[index] == reference[index]
        else:  # they diverge: the union, a superset of the winner's list
            union = sorted(set().union(*tops))
            assert items == union
            assert set(reference[index][0]) <= set(items)
    if len(tops) <= 1:
        assert moved == old.meter.snapshot()
    assert moved.get("control", 0) == old.meter.snapshot().get("control", 0)
    for (_, _, list_was, obj_was), (_, _, list_now, obj_now) in zip(before, after):
        assert (list_now or 0) >= (list_was or 0)
        assert (obj_now or 0) >= (obj_was or 0)
    untouched = set(range(len(before))) - set(targets)
    assert all(before[i] == after[i] for i in untouched)


@settings(max_examples=100, deadline=None)
@given(replica_states())
def test_reconcile_reaches_the_repair_reference(state):
    """Every target ends at the union repair's reference named, read with
    HEAD's ``freshest_postings``, and a second pass copies nothing."""
    for store in STORES:
        check_repair_reference(state, store)


def check_repair_reference(state, store):
    net = build(state, store)
    fresh = freshest_postings(net, KEY)
    targets = [net.nodes[i] for i in state[-1]]
    reconcile(net, KEY, targets)
    for node in targets:
        if fresh is None:
            assert KEY not in node.store
        else:
            assert node.versions[KEY] == fresh[0]
            assert node.store.get(KEY).items() == fresh[1].items()
    assert reconcile(net, KEY, targets) == []


# -- store summaries -----------------------------------------------------------

TERMS = ("a", "b")

#: a small universe of rows, so appends repeat postings and deletes miss
ROWS = st.tuples(
    st.just(0), st.integers(0, 2), st.integers(0, 5).map(lambda s: 2 * s + 1),
    st.just(0), st.just(1),
).map(lambda r: Posting(r[0], r[1], r[2], r[2] + 1, r[4]))

STORE_OPS = st.one_of(
    st.tuples(st.sampled_from(("append", "delete", "sync", "sync-append")),
              st.sampled_from(TERMS), st.lists(ROWS, min_size=1, max_size=6)),
    st.tuples(st.sampled_from(("drop", "ask")), st.sampled_from(TERMS), st.none()),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(STORE_OPS, max_size=30))
def test_summaries_follow_every_write(script):
    """After each append, run delete, whole-term delete and ``sync_copy``
    (replacing or appending), every summary a store holds equals the one
    recounted from its list, on every backend; a summary asked for costs
    no ``StoreStats`` charge, and at the end every term's does."""
    for make in STORES:
        store = make()
        node = types.SimpleNamespace(store=store, versions={})
        for op, term, rows in script:
            if op == "append":
                store.append(term, rows)
            elif op == "delete":
                store.delete(term, rows)
            elif op == "drop":
                store.delete(term)
            elif op.startswith("sync"):
                Membership.sync_copy(node, term, PostingList(rows), 1, op == "sync")
            else:
                charged = store.stats.snapshot()
                store.summary(term)
                assert store.stats.snapshot() == charged
            for held in TERMS:
                if held in store._summaries:
                    assert store._summaries[held] == summarise(store.get(held)), (op, held)
        for term in TERMS:
            assert store.summary(term) == summarise(store.get(term))
            assert (store.summary(term) == EMPTY_SUMMARY) == (term not in store)


def test_check_invariants_names_a_stale_summary():
    """The stores' invariant checks (the fuzzer runs the LSM store's)
    recount every summary kept."""
    for make in STORES[:2]:
        store = make()
        store.append("a", _append(0, 4))
        store.summary("a")
        store.check_invariants()
        store._summaries["a"] = EMPTY_SUMMARY
        with pytest.raises(AssertionError, match="stale summary"):
            store.check_invariants()


def test_summary_tells_sets_apart():
    """Equal summaries for equal sets in any order, different ones for a
    set with one posting swapped or missing."""
    rows = [Posting(0, d, 2 * s + 1, 2 * s + 2, 1) for d in range(3) for s in range(4)]
    base = summarise(PostingList(rows))
    assert summarise(PostingList(rows[::-1])) == base
    assert summarise(PostingList(rows[1:])) != base
    swapped = rows[1:] + [Posting(0, 9, 1, 2, 1)]
    assert summarise(PostingList(swapped))[0] == base[0]
    assert summarise(PostingList(swapped)) != base
    assert summarise(PostingList()) == EMPTY_SUMMARY


def _count_unions(monkeypatch):
    calls = []
    union = replicas._union

    def counted(key, nodes):
        calls.append(key)
        return union(key, nodes)

    monkeypatch.setattr(replicas, "_union", counted)
    return calls


def _open_block(system):
    """``(term, holder, store key)`` of a term's last DPP block that has
    room for one more posting and two copies at its holder's stamp."""
    net, dpp = system.net, system.dpp
    terms = sorted(
        key[len("dpproot:"):] for node in net.alive_nodes() for key in node.objects
        if key.startswith("dpproot:")
    )
    for term in terms:
        owner = net.owner_of(term)
        entry = dpp._root_at(owner, term).entries[-1]
        holder, store_key = dpp._block_location(owner, entry, term)
        stamp = holder.versions.get(store_key)
        copies = [
            n for n in net.alive_nodes()
            if store_key in n.store and n.versions.get(store_key) == stamp
        ]
        if len(copies) >= 2 and holder.store.count(store_key) < dpp.max_block_entries:
            return term, holder, store_key
    raise AssertionError("no open block with two copies")


def test_agreeing_dpp_copies_are_never_unioned_and_diverging_ones_are(monkeypatch):
    """A fault-free DPP publish freshens blocks whose copies agree and so
    builds no union.  A copy that loses a posting at the same stamp (a
    run delete, as a missed append leaves it) no longer agrees: the next
    append's freshen unions the copies, and the holder gets the posting
    back beside the new one.  Without the run delete's summary update the
    holder's stale summary would still agree, and the posting stay lost."""
    unions = _count_unions(monkeypatch)
    asked = []
    summary = ClusteredIndexStore.summary

    def counted(store, term):
        asked.append(term)
        return summary(store, term)

    monkeypatch.setattr(ClusteredIndexStore, "summary", counted)
    system = dblp_network(KadopConfig(use_dpp=True, replication=2), 8, 4, 4_000)
    assert asked and unions == []

    term, holder, store_key = _open_block(system)
    assert reconcile(system.net, store_key, [holder]) == [] and unions == []
    before = holder.store.get(store_key)
    lost = Posting(*before.key(0))
    assert holder.store.delete(store_key, [lost]) == 1
    added = Posting(10**6, 0, 1, 2, 1)  # sorts after every block's range
    system.dpp.append(system.net.nodes[0], term, [added])
    assert unions == [store_key]
    after = holder.store.get(store_key)
    assert after.items() == PostingList(list(before) + [added]).items()
