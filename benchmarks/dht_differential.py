"""Seeded fault-script differential for ``DhtNetwork`` refactors.

Runs ``--scripts`` seeded scenarios of ``--ops`` random DHT operations
each (all nine ops, ``append`` drawn under two names; three stores, both overlays, both write quorums,
both read policies, hot-key promotion and rebalance ticks, DPP
publishes; drop 0.25 / delay 0.1 / duplicate 0.1 / crash 0.05,
``op_max_retries`` 0-6; a join, a graceful leave and four repairs per
script) and prints one digest line per script over every receipt
(``repr(duration_s)``), timeout, meter total, ``plan.stats``,
``plan.events`` and the final per-node store state.  ``--dump FILE``
writes the undigested log.  Two checkouts behave identically when their
outputs are byte-equal, under any ``PYTHONHASHSEED``:

    PYTHONHASHSEED=1 PYTHONPATH=<parent>/src python benchmarks/dht_differential.py > a
    PYTHONHASHSEED=2 PYTHONPATH=src python benchmarks/dht_differential.py > b
    cmp a b
"""

import argparse
import hashlib
import random

from repro.errors import NoSuchPeerError
from repro.faults import FaultPlan, OpTimeoutError
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.postings.posting import Posting

#: the ten-op draw of the API that still had ``put``: a drawn "put" runs
#: ``append`` (the PAST-style store's append is the paper's put), so the
#: seeded stream, and every digest line, stays where it was
OPS = (
    "locate", "append", "put", "append_batch", "put_object", "get_object",
    "get", "pipelined_get", "block_get", "delete",
)
STORES = ("btree", "naive", "lsm")
#: indexed ``(seed // 2) % 3``; the third entry keeps every seed's policy,
#: and so its digest line, where it is
READ_POLICIES = ("owner", "least_loaded", "least_loaded")


def _receipt(receipt):
    return "h=%d req=%d resp=%d t=%r" % (
        receipt.hops, receipt.request_bytes, receipt.response_bytes,
        receipt.duration_s,
    )


def _state(net):
    lines = []
    for node in net.nodes:
        lines.append("node %d alive=%s" % (node.peer_index, node.alive))
        for term in sorted(node.store.terms()):
            lines.append("  store %s %r" % (term, node.store.get(term).items()))
        for key in sorted(node.objects):
            lines.append("  object %s %d" % (key, node.objects[key][1]))
        lines.append("  versions %r" % (sorted(node.versions.items()),))
    lines.append(
        "placement %r"
        % sorted((alias, n.peer_index) for alias, n in net.placement.items())
    )
    return lines


def run_script(seed, num_ops):
    rng = random.Random(seed)
    knobs = dict(
        replication=3,
        store_backend=STORES[seed % 3],
        overlay=("pastry", "chord")[(seed // 3) % 2],
        write_quorum=("all", "majority")[(seed // 6) % 2],
        read_policy=READ_POLICIES[(seed // 2) % 3],
        hot_key_threshold=200 if seed % 2 else None,
        op_max_retries=seed % 7,
        use_dpp=seed % 4 == 0,
        dpp_block_entries=4,
        chunk_postings=3,
    )
    config = KadopConfig(**knobs)
    system = KadopNetwork.create(8, config=config, seed=seed)
    net = system.net
    plan = system.install_faults(
        FaultPlan(
            seed=seed, drop_rate=0.25, delay_rate=0.1, duplicate_rate=0.1,
            crash_rate=0.05, max_crashed=2, restart_after_ops=15,
        )
    )
    keys = ["elem:k%d" % i for i in range(6)]
    # the knobs set here, not repr(config): adding or deleting an unrelated
    # config field must not move every digest
    log = ["script %d %r" % (seed, sorted(knobs.items()))]
    serial = 0
    membership = {
        num_ops // 4: "repair", num_ops // 3: "join", num_ops // 2: "repair",
        (2 * num_ops) // 3: "leave", (3 * num_ops) // 4: "repair",
        num_ops - 1: "repair",
    }
    for step in range(num_ops):
        event = membership.get(step)
        if event == "repair":
            report = system.repair()
            log.append("repair %r" % (sorted(report.to_dict().items()),))
        elif event == "join":
            try:
                system.add_peer("kadop://s%d/late" % seed)
                log.append("join")
            except OpTimeoutError as exc:  # the catalog row; the node is in
                log.append("join, catalog timeout %s" % _receipt(exc.receipt))
        elif event == "leave":
            victim = next(n for n in net.nodes[1:] if n.alive)
            net.remove_node(victim)
            log.append("leave %d" % victim.peer_index)
        if step % 10 == 9:
            report = system.balance.tick()
            log.append("tick %r %d" % (report.moved, report.bytes_moved))
        op = OPS[rng.randrange(len(OPS))]
        key = keys[rng.randrange(len(keys))]
        alive = net.alive_nodes()
        src = alive[rng.randrange(len(alive))]
        postings = []
        for _ in range(rng.randrange(1, 9)):
            serial += 1
            postings.append(Posting(src.peer_index, serial % 5, serial, serial + 1, 1))
        try:
            if op in ("append", "put"):
                out = _receipt(net.append(src, key, postings))
            elif op == "append_batch":
                out = _receipt(net.append_batch(src, key, postings))
            elif op == "locate":
                owner, receipt = net.locate(src, key)
                out = "%d %s" % (owner.peer_index, _receipt(receipt))
            elif op == "put_object":
                nbytes = 40 + serial % 9
                out = _receipt(net.put_object(src, "obj:" + key, serial, nbytes))
            elif op == "get_object":
                obj, receipt = net.get_object(src, "obj:" + key)
                out = "%r %s" % (obj, _receipt(receipt))
            elif op == "get":
                plist, receipt = net.get(src, key)
                out = "%r %s" % (plist.items(), _receipt(receipt))
            elif op == "pipelined_get":
                chunks, receipt = net.pipelined_get(src, key, chunk_postings=3)
                out = "%r %s" % ([c.items() for c in chunks], _receipt(receipt))
            elif op == "block_get":
                holder = net.owner_of(key)
                out = _receipt(
                    net.block_get(src, key, holder.store.get(key), holder=holder)
                )
            else:
                removed, receipt = net.delete(src, key)
                out = "%r %s" % (removed, _receipt(receipt))
        except OpTimeoutError as exc:
            out = "timeout %s attempts=%d %s" % (
                exc.op, exc.attempts, _receipt(exc.receipt),
            )
        log.append("%d %s %s from %d: %s" % (step, op, key, src.peer_index, out))
        if config.use_dpp and step % 12 == 5:
            peer = system.peers[src.peer_index]
            xml = "<d><t>w%d</t><t>w%d</t><u>x</u></d>" % (step % 3, step % 5)
            try:
                peer.publish(xml, uri="u:%d:%d" % (seed, step))
                log.append("publish ok")
            except (OpTimeoutError, NoSuchPeerError) as exc:
                log.append("publish %s" % type(exc).__name__)
    log.append("meter %r" % (sorted(net.meter.snapshot().items()),))
    log.append("messages %d" % net.meter.messages())
    log.append("stats %r" % (sorted(plan.stats.to_dict().items()),))
    log.append("events %r" % (plan.events,))
    log.extend(_state(net))
    return log, plan.stats.timeouts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scripts", type=int, default=40)
    parser.add_argument("--ops", type=int, default=120)
    parser.add_argument("--dump", help="write the undigested log here")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    timeouts = 0
    dump = open(args.dump, "w") if args.dump else None
    try:
        for seed in range(args.scripts):
            log, script_timeouts = run_script(seed, args.ops)
            timeouts += script_timeouts
            text = "\n".join(log) + "\n"
            if dump is not None:
                dump.write(text)
            total.update(text.encode("utf-8"))
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
            print("script %2d  timeouts=%-3d %s" % (seed, script_timeouts, digest))
    finally:
        if dump is not None:
            dump.close()
    print(
        "%d scripts, %d timeouts, digest %s"
        % (args.scripts, timeouts, total.hexdigest())
    )


if __name__ == "__main__":
    main()
