"""Fault-tolerance ablation: completeness and latency vs. crash rate.

The paper leans on the DHT's reliability replication (Section 4.2) for
availability but never quantifies it.  This ablation does: the same
corpus and query workload run under increasingly hostile crash rates at
replication factors 1, 2, and 3.  Crashed peers are restarted (and one
anti-entropy pass run) between queries, so what is measured is the
completeness of answers *during* failures — the failover path through
replicas, retries, and timeouts — not permanent data loss.

The expected shape: at crash rate zero every configuration is complete;
as the rate grows, replication 1 sheds answers (a crashed holder makes
its keys unreachable) while replication 3 stays near-complete, paying
for it with retry latency.
"""

import random

from repro.experiments.harness import dblp_network
from repro.faults import FaultPlan
from repro.kadop.config import KadopConfig

DESCRIPTION = "Section 4.2 ablation: completeness/latency vs. crash rate"

QUERY = "//article//author"
CRASH_RATES = (0.0, 0.05, 0.15)
REPLICATIONS = (1, 2, 3)


def run(num_peers=12, docs=12, num_queries=8, seed=0):
    """``{replication: {crash_rate: {completeness, latency, ...}}}``."""
    results = {}
    for replication in REPLICATIONS:
        per_rate = {}
        for crash_rate in CRASH_RATES:
            net = dblp_network(
                KadopConfig(replication=replication), num_peers, docs, 6_000,
                seed=seed,
            )
            baseline = len(net.query(QUERY))
            plan = FaultPlan(
                seed=seed,
                crash_rate=crash_rate,
                drop_rate=crash_rate / 2.0,
                max_crashed=max(1, replication),
                min_alive=2,
            )
            net.install_faults(plan)
            rng = random.Random(seed)
            got = latency = incomplete = 0
            for _ in range(num_queries):
                alive = [p for p in net.peers if p.node.alive]
                answers, report = net.query_with_report(
                    QUERY, peer=rng.choice(alive)
                )
                got += len(answers)
                latency += report.response_time_s
                incomplete += 0 if report.complete else 1
                # restart + repair between queries: measure failover, not
                # a network that has finished collapsing
                for peer in net.peers:
                    if not peer.node.alive:
                        net.restart_peer(peer)
                net.repair()
            net.clear_faults()
            per_rate[crash_rate] = {
                "baseline": baseline,
                "completeness": got / float(baseline * num_queries),
                "latency": latency / num_queries,
                "incomplete_queries": incomplete,
                "crashes": plan.stats.crashes,
            }
        results[replication] = per_rate
    return results


def format_rows(results):
    lines = [
        "%-12s %-11s %13s %13s %11s %9s"
        % ("replication", "crash rate", "completeness", "latency (s)",
           "incomplete", "crashes")
    ]
    for replication, per_rate in results.items():
        for crash_rate, row in per_rate.items():
            lines.append(
                "%-12d %-11g %13.3f %13.4f %11d %9d"
                % (
                    replication,
                    crash_rate,
                    row["completeness"],
                    row["latency"],
                    row["incomplete_queries"],
                    row["crashes"],
                )
            )
    return "\n".join(lines)


def check_shape(results):
    for replication, per_rate in results.items():
        zero = per_rate[0.0]
        assert zero["completeness"] == 1.0, (
            "replication %d incomplete with no faults: %r"
            % (replication, zero)
        )
        for crash_rate, row in per_rate.items():
            assert 0.0 <= row["completeness"] <= 1.0, row
    worst = max(CRASH_RATES)
    low = results[min(REPLICATIONS)][worst]["completeness"]
    high = results[max(REPLICATIONS)][worst]["completeness"]
    assert high >= low, (
        "replication %d (%.3f) should not trail replication %d (%.3f) at "
        "crash rate %g" % (max(REPLICATIONS), high, min(REPLICATIONS), low,
                           worst)
    )
    assert high >= 0.9, (
        "replication %d should stay near-complete at crash rate %g: %.3f"
        % (max(REPLICATIONS), worst, high)
    )
