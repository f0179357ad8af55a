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
stamp.
"""

from hypothesis import example, given, settings, strategies as st

from repro.dht.network import DhtNetwork
from repro.dht.replicas import reconcile
from repro.postings.encoder import encoded_size
from repro.postings.plist import PostingList
from repro.postings.posting import Posting

KEY = "elem:k"
ROOT = "dpproot:elem:k"


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


def build(state):
    stamps, sizes, copies, objects, crashed, _ = state
    net = DhtNetwork.create(len(copies), replication=2)
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
    old, new = build(state), build(state)
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
    net = build(state)
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
