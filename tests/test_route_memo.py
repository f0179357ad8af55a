"""The write-path routing shortcuts change no routing decision.

* integer ``next_hop`` / ``is_owner`` / ``shared_prefix_len`` equal the
  ``NodeId.distance``-based formulas they replaced (kept here as the
  reference);
* the per-hop memo of ``DhtNetwork.route`` is invisible: across joins,
  leaves, crashes, restarts and placement changes, under tracing and under
  an installed ``FaultPlan``, a memoised network behaves like one whose
  memo is emptied before every call;
* the memo is bounded;
* ``key_id`` is memoised, bounded, and returns what the hash returns.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dht import network as network_module
from repro.dht.network import DhtNetwork
from repro.dht.nodeid import DIGITS, ID_SPACE, NodeId, key_id
from repro.dht.routing import RoutingState
from repro.faults import FaultPlan, OpTimeoutError
from repro.obs.trace import Tracer
from repro.postings.posting import Posting


# -- reference implementations: the formulas before the integer state ---------


def ref_shared_prefix_len(a, b):
    a, b = NodeId(a), NodeId(b)
    length = 0
    for i in range(DIGITS):
        if a.digit(i) != b.digit(i):
            break
        length += 1
    return length


def ref_is_owner(state, key):
    my_dist = state.node_id.distance(key)
    return all(leaf.distance(key) >= my_dist for leaf in state.leaves)


def ref_next_hop(state, key):
    key = NodeId(key)
    my_dist = state.node_id.distance(key)
    best_leaf = min(
        state.leaves, key=lambda l: (l.distance(key), int(l)), default=None
    )
    if best_leaf is not None and best_leaf.distance(key) < my_dist:
        candidates = [best_leaf]
    else:
        candidates = []
    if ref_is_owner(state, key):
        return None
    row = ref_shared_prefix_len(state.node_id, key)
    if row < DIGITS:
        entry = state.table[row][key.digit(row)]
        if entry is not None:
            return entry
    known = state.leaves + [e for r in state.table for e in r if e is not None]
    closer = [n for n in known if n.distance(key) < my_dist]
    if closer:
        return min(closer, key=lambda n: (n.distance(key), int(n)))
    if candidates:
        return candidates[0]
    return None


# ids spread over the ring, and ids packed under a few leading digits so
# that deeper table rows and near-ties occur
_ids = st.one_of(
    st.integers(min_value=0, max_value=ID_SPACE - 1),
    st.builds(
        lambda head, tail: (head << 120) | tail,
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
    ),
)


class TestIntegerRoutingState:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(_ids, min_size=1, max_size=64),
        st.lists(_ids, min_size=1, max_size=8),
        st.sampled_from([2, 4, 8, 16]),
    )
    def test_equals_distance_based_reference(self, members, keys, leaf_size):
        members = sorted(members)
        # keys that sit on a node, beside one, halfway between two
        # neighbours (a distance tie) and opposite one on the ring
        for a, b in zip(members, members[1:] + members[:1]):
            keys += [a, (a + 1) % ID_SPACE, (a - 1) % ID_SPACE,
                     (a + b) // 2, (a + ID_SPACE // 2) % ID_SPACE]
        for member in members:
            state = RoutingState(member, leaf_size=leaf_size)
            state.rebuild(members)
            for key in keys:
                assert state.is_owner(key) == ref_is_owner(state, key)
                assert state.next_hop(key) == ref_next_hop(state, key)
                assert state.node_id.shared_prefix_len(key) == (
                    ref_shared_prefix_len(member, key)
                )


# -- the per-hop memo ------------------------------------------------------------


def P(start):
    return Posting(0, 0, start, start + 1, 1)


def _twins(overlay, num_peers=12, replication=2):
    return (
        DhtNetwork.create(num_peers, replication=replication, overlay=overlay),
        DhtNetwork.create(num_peers, replication=replication, overlay=overlay),
    )


def _traced_route(net, src_index, key):
    owner, hops = net.route(net.nodes[src_index], key)
    return owner.peer_index, hops, net._last_path


@pytest.mark.parametrize("overlay", ["pastry", "chord"])
def test_memo_invisible_across_membership_and_placement(overlay):
    """Seeded join / leave / crash / restart / set_placement script with
    routes in between: ``(owner, hops)`` and the tracer's hop path equal
    those of a twin whose memo is emptied before every route."""
    rng = random.Random(17)
    memoised, cold = _twins(overlay)
    for net in (memoised, cold):
        net.tracer = Tracer()
        net.tracer.begin_query("routes")
        for i in range(8):
            net.append(net.nodes[0], "k%d" % i, [P(2 * i + 1)])
    keys = ["k%d" % i for i in range(24)]
    joined = 0
    for _ in range(60):
        alive = [n.peer_index for n in memoised.alive_nodes()]
        down = [n.peer_index for n in memoised.nodes if not n.alive]
        action = rng.choice(
            ["route"] * 6 + ["join", "leave", "crash", "restart", "place"]
        )
        if action == "join":
            joined += 1
            for net in (memoised, cold):
                net.add_node("peer://late-%d" % joined, type(net.nodes[0].store)())
        elif action in ("leave", "crash") and len(alive) > 4:
            victim = rng.choice(alive)
            for net in (memoised, cold):
                getattr(net, "remove_node" if action == "leave" else "crash_node")(
                    net.nodes[victim]
                )
        elif action == "restart" and down:
            back = rng.choice(down)
            for net in (memoised, cold):
                net.restart_node(net.nodes[back])
        elif action == "place":
            alias, target = rng.choice(keys), rng.choice(alive)
            for net in (memoised, cold):
                net.set_placement(alias, net.nodes[target])
        for _ in range(6):
            src = rng.choice([n.peer_index for n in memoised.alive_nodes()])
            key = rng.choice(keys)
            cold._hop_memo.clear()
            assert _traced_route(memoised, src, key) == _traced_route(
                cold, src, key
            )
    assert memoised._hop_memo, "the script never exercised the memo"


def _run_faulted_ops(net, plan_seed, warm):
    """A seeded op mix under a crash-heavy plan; everything observable."""
    keys = ["t%d" % i for i in range(10)]
    if warm:
        for node in net.nodes:
            for key in keys:
                net.route(node, key)
    net.faults = plan = FaultPlan(
        seed=plan_seed, crash_rate=0.3, drop_rate=0.05, restart_after_ops=3
    )
    rng = random.Random(plan_seed)
    outcomes = []
    for step in range(120):
        src = rng.choice(net.alive_nodes())
        key = rng.choice(keys)
        op = rng.choice(["append", "append_batch", "get", "locate", "route"])
        try:
            if op in ("append", "append_batch"):  # both draws run the routed append
                result = net.append(src, key, [P(2 * step + 1)])
            elif op == "get":
                plist, result = net.get(src, key)
                result = (list(plist), result)
            elif op == "locate":
                owner, result = net.locate(src, key)
                result = (owner.peer_index, result)
            else:
                owner, hops = net.route(src, key)
                result = (owner.peer_index, hops)
        except OpTimeoutError as error:
            result = ("timeout", error.receipt)
        outcomes.append((op, src.peer_index, key, result))
    return outcomes, net.meter.snapshot(), net.meter.messages(), plan


@pytest.mark.parametrize("overlay", ["pastry", "chord"])
@pytest.mark.parametrize("plan_seed", [3, 11])
def test_memo_invisible_under_hop_crashes(overlay, plan_seed):
    """A hop crash rebuilds routing in the middle of ``route``; a memo
    warmed beforehand must not leak a pre-crash decision into it."""
    warm_net, cold_net = _twins(overlay, num_peers=10)
    warm = _run_faulted_ops(warm_net, plan_seed, warm=True)
    cold = _run_faulted_ops(cold_net, plan_seed, warm=False)
    assert warm[0] == cold[0]
    # warming routed without a plan and metered nothing
    assert warm[1] == cold[1] and warm[2] == cold[2]
    assert warm[3].stats.to_dict() == cold[3].stats.to_dict()
    assert warm[3].events == cold[3].events
    assert warm[3].stats.crashes > 0, "the plan never crashed a hop"


def test_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(network_module, "HOP_MEMO_CAP", 8)
    net = DhtNetwork.create(16, replication=1)
    for i in range(200):
        key = "key:%d" % i
        owner, _ = net.route(net.nodes[i % 16], key)
        assert owner is net.owner_of(key)
        assert 0 < len(net._hop_memo) <= 8


def test_key_id_memo_is_bounded_and_transparent():
    assert key_id.cache_info().maxsize is not None
    for key in ["word:alpha", "label:article", "", "dpp:x\x00y", "fun:w"]:
        assert key_id(key) == key_id.__wrapped__(key)
        assert key_id(key) == key_id.__wrapped__(key)  # a hit, too
