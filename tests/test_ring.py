"""The sorted ring answers every ownership question as a sort would.

* :func:`repro.dht.nodeid.closest` and :func:`repro.dht.nodeid.successor`
  equal a full sort by ring distance and a linear scan, on rings of 1 to
  600 ids and on the keys where a walk could go wrong: on an id, exactly
  halfway between two ids, and opposite an id;
* after every join, leave, crash, restart and placement change, a
  network's ``owner_of``, ``replica_nodes`` and ``alive_nodes`` equal a
  sort of its alive nodes, under both overlays.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dht.network import DhtNetwork
from repro.dht.nodeid import ID_SPACE, NodeId, closest, key_id, successor
from repro.dht.replicas import routing_alias
from repro.storage.clustered import ClusteredIndexStore


def ref_ranked(ids, key):
    """Every position, nearest id first: a full sort by (distance, id)."""
    return sorted(range(len(ids)), key=lambda i: (NodeId(ids[i]).distance(key), ids[i]))


def ref_successor(ids, point):
    """Position of the first id at or after ``point``, else the smallest."""
    return next((i for i, v in enumerate(ids) if v >= point), 0)


# ids spread over the ring, ids packed under one leading digit (near
# ties), and even ids, between which every midpoint is an exact tie
_spread = st.integers(min_value=0, max_value=ID_SPACE - 1)
_packed = st.integers(min_value=0, max_value=(1 << 16) - 1).map(lambda t: (3 << 124) | t)
_even = st.integers(min_value=0, max_value=ID_SPACE // 2 - 1).map(lambda v: 2 * v)
def _random_ring(size, seed):
    rng = random.Random(seed)
    return {rng.getrandbits(128) for _ in range(size)}


_rings = st.one_of(
    st.builds(
        _random_ring,
        st.integers(min_value=1, max_value=600),
        st.integers(min_value=0, max_value=1 << 32),
    ),
    st.sets(st.one_of(_packed, _spread), min_size=1, max_size=40),
    st.sets(_even, min_size=1, max_size=40),
    st.sets(st.integers(min_value=0, max_value=63).map(lambda v: 2 * v), min_size=1, max_size=12),
)


def _hard_keys(ids, pairs=24):
    """On an id, beside it, halfway to its clockwise neighbour (across
    the wrap too) and opposite it, for about ``pairs`` ids spread over
    the ring."""
    keys = []
    step = max(1, len(ids) // pairs)
    for i in range(len(ids) - 1, -1, -step):  # the wrap pair first
        a, b = ids[i], ids[(i + 1) % len(ids)]
        gap = (b - a) % ID_SPACE
        keys += [a, (a + 1) % ID_SPACE, (a - 1) % ID_SPACE,
                 (a + gap // 2) % ID_SPACE, (a + ID_SPACE // 2) % ID_SPACE]
    return keys


class TestRingHelpers:
    @settings(max_examples=60, deadline=None)
    @given(_rings, st.lists(_spread, max_size=4), st.integers(min_value=1, max_value=6))
    def test_closest_equals_sort(self, ring, keys, k):
        ids = sorted(ring)
        for key in _hard_keys(ids) + keys:
            ranked = ref_ranked(ids, key)
            for want in (1, k, len(ids), len(ids) + 1):
                assert closest(ids, key, want) == ranked[:want]

    @settings(max_examples=60, deadline=None)
    @given(_rings, st.lists(_spread, max_size=4))
    def test_successor_equals_scan(self, ring, keys):
        ids = sorted(ring)
        for key in _hard_keys(ids) + keys:
            assert successor(ids, key) == ref_successor(ids, key)

    def test_halfway_tie_goes_to_the_smaller_id(self):
        assert closest([10, 20], 15, 2) == [0, 1]
        # across the wrap: ID_SPACE - 5 and 5 are both 5 away from 0
        assert closest([5, ID_SPACE - 5], 0, 2) == [0, 1]
        assert closest([5, 100, ID_SPACE - 5], 0, 1) == [0]

    def test_key_on_an_id_and_opposite_it(self):
        ids = [0, ID_SPACE // 4, ID_SPACE // 2]
        assert closest(ids, ID_SPACE // 4, 1) == [1]
        assert closest([7], (7 + ID_SPACE // 2) % ID_SPACE, 3) == [0]
        assert successor(ids, ID_SPACE // 2 + 1) == 0  # wraps


# -- ownership after membership events ------------------------------------------


def ref_replicas(net, key):
    """``key``'s replica set by sorting the alive nodes: the placed node
    (if alive) first, then the hash replica set, Pastry's closest ids or
    Chord's successor window."""
    alive = [n for n in net.nodes if n.alive]
    alias = routing_alias(key)
    kid = key_id(alias)
    count = min(net.replication, len(alive))
    if net.overlay == "chord":
        ring = sorted(alive, key=lambda n: int(n.node_id))
        start = next((i for i, n in enumerate(ring) if n.node_id >= kid), 0)
        hashed = [ring[(start + i) % len(ring)] for i in range(count)]
    else:
        hashed = sorted(alive, key=lambda n: (n.node_id.distance(kid), int(n.node_id)))
        hashed = hashed[:count]
    placed = net.placement.get(alias)
    if placed is None or not placed.alive:
        return hashed
    return ([placed] + [n for n in hashed if n is not placed])[:count]


@pytest.mark.parametrize("overlay", ["pastry", "chord"])
def test_ownership_equals_sort_after_membership_events(overlay):
    rng = random.Random(5)
    net = DhtNetwork.create(20, replication=3, overlay=overlay)
    keys = ["k%d" % i for i in range(30)] + ["dpproot:k1", "dppdata:k2"]
    seen = set()
    for step in range(80):
        alive = [n for n in net.nodes if n.alive]
        down = [n for n in net.nodes if not n.alive]
        action = rng.choice(["join", "leave", "crash", "restart", "place", "place"])
        if action == "join" and len(net.nodes) < 40:
            net.add_node("peer://late-%d" % step, ClusteredIndexStore())
        elif action in ("leave", "crash") and len(alive) > 3:
            victim = rng.choice(alive)
            (net.remove_node if action == "leave" else net.crash_node)(victim)
        elif action == "restart" and down:
            net.restart_node(rng.choice(down))
        elif action == "place":
            net.set_placement("k%d" % rng.randrange(30), rng.choice(alive))
        else:
            continue
        seen.add(action)
        assert net.alive_nodes() == [n for n in net.nodes if n.alive]
        for key in keys:
            expected = ref_replicas(net, key)
            assert net.replica_nodes(key) == expected, (step, action, key)
            assert net.owner_of(key) is expected[0], (step, action, key)
    assert seen == {"join", "leave", "crash", "restart", "place"}
