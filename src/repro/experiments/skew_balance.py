"""Skew ablation: serving a Zipfian stream with redistribution on/off.

The failure mode motivating :mod:`repro.balance`: term popularity is
Zipfian, so the peers owning the hottest posting lists saturate first —
their egress links are where the serving engine's queue-wait spans pile
up.  This sweep serves the same open-loop stream at three Zipf
exponents (uniform, skewed, heavily skewed) under two variants:

* ``unbalanced``  the default config — every get is served by the key's
                  owner, no extra copies, no migration;
* ``balanced``    ``least_loaded`` read fan-out over the replica set,
                  hot-key extra replication onto cold peers, and the
                  background rebalancer ticking on the serving clock.

Per cell: throughput, p50/p95/p99 latency, simulated bytes, and the
balancer's counters (fan-out reads, promotions, migrations).  Answers
are the invariant: every variant must serve byte-identical answers to
running the same queries serially on an identical fresh *unbalanced*
network — balancing is a performance model, never a semantics change.

``repro run skew --check`` compares every number of the sweep with the
committed ``BENCH_skew.json``.
"""

from repro.experiments.harness import (
    diagnostics_lines,
    dblp_network,
    serial_answer_sigs,
    serve_row,
)
from repro.kadop.config import KadopConfig
from repro.sim.cost import CostParams
from repro.workloads.profiles import open_loop_workload, skewed_profile

DESCRIPTION = "Load balancing: skewed-serving ablation (redistribution on/off)"
BASELINE = "BENCH_skew.json"

#: the sweep axis: uniform, skewed, heavily skewed
SKEWS = (0.0, 1.0, 1.4)

#: arrival rate (queries/second simulated) near saturation on slow links
RATE = 24.0

QUERIES = 48
NUM_SOURCES = 3

#: balanced p99 must stay below this fraction of unbalanced p99 at
#: Zipf >= 1.0
P99_MARGIN = 0.95

_BALANCE_KNOBS = {
    "read_policy": "least_loaded",
    "hot_key_threshold": 30_000,
    "hot_key_copies": 2,
    "rebalance_interval_s": 0.25,
    "rebalance_overload": 1.5,
}

VARIANTS = (
    ("unbalanced", {}),
    ("balanced", _BALANCE_KNOBS),
)


def network(num_peers, docs, seed, knobs):
    """The sweep's corpus on a network configured with ``knobs``."""
    # slow links (as in experiments.serving) so per-query service times
    # are long enough for arrivals to genuinely overlap; replication=2
    # gives the read fan-out a real replica set to spread over
    config = KadopConfig(
        replication=2,
        coalesce_fetches=False,
        cost=CostParams(egress_bw=100_000.0, ingress_bw=600_000.0),
        **knobs,
    )
    return dblp_network(
        config, num_peers, docs, 6_000, publishers=num_peers, seed=seed,
        gen_seed=seed + 1,
    )


def _arrivals(skew, seed):
    profile = skewed_profile(skew, num_queries=QUERIES)
    return open_loop_workload(profile, RATE, seed=seed, num_sources=NUM_SOURCES)


def run(num_peers=10, docs=12, seed=0, telemetry=False):
    """``{skew: {variant: row}}``; every row carries the answer check.

    ``telemetry=True`` traces every variant run and embeds the ``slo`` /
    ``findings`` of its telemetry view in its row; every other number is
    byte-identical either way."""
    results = {}
    for skew in SKEWS:
        arrivals = _arrivals(skew, seed)
        # serial reference on a fresh *unbalanced* network: the answers
        # every variant (balanced included) must reproduce byte-for-byte
        serial_sigs = serial_answer_sigs(
            network(num_peers, docs, seed, {}), arrivals
        )
        rows = {}
        for name, knobs in VARIANTS:
            net = network(num_peers, docs, seed, knobs)
            _, row = serve_row(net, arrivals, serial_sigs, telemetry)
            row["balance"] = net.balance.summary()
            rows[name] = row
        results["%g" % skew] = rows
    return results


def format_rows(results):
    lines = [
        "%-5s %-10s %10s %9s %9s %9s %10s %7s %6s %5s %5s %7s"
        % (
            "skew", "variant", "thr (qps)", "p50 (s)", "p95 (s)", "p99 (s)",
            "bytes", "fanout", "promo", "mig", "moved", "answers",
        )
    ]
    for skew in ("%g" % s for s in SKEWS):
        for name, _ in VARIANTS:
            row = results[skew][name]
            balance = row["balance"]
            lines.append(
                "%-5s %-10s %10.2f %9.4f %9.4f %9.4f %10d %7d %6d %5d %5d %7s"
                % (
                    skew,
                    name,
                    row["throughput_qps"],
                    row["p50_s"],
                    row["p95_s"],
                    row["p99_s"],
                    row["total_bytes"],
                    balance["fanout_reads"],
                    balance["promotions"],
                    balance["migrations"],
                    balance["keys_moved"],
                    "OK" if row["answers_match_serial"] else "DIFF",
                )
            )
    lines.extend(
        diagnostics_lines(results, ["%g" % s for s in SKEWS], VARIANTS)
    )
    return "\n".join(lines)


def check_shape(results):
    for skew, rows in results.items():
        for name, row in rows.items():
            # balancing is a performance model only: every variant's
            # answers are byte-identical to serial unbalanced execution
            assert row["answers_match_serial"], "%s@%s" % (name, skew)
        # the unbalanced variant must really be inert
        inert = rows["unbalanced"]["balance"]
        assert inert["fanout_reads"] == 0, skew
        assert inert["promotions"] == 0 and inert["migrations"] == 0, skew
    for skew in SKEWS:
        if skew < 1.0:
            continue
        rows = results["%g" % skew]
        balanced, unbalanced = rows["balanced"], rows["unbalanced"]
        # redistribution engaged ...
        assert balanced["balance"]["fanout_reads"] > 0, skew
        # ... and paid: better tail latency by the fixed margin, at least
        # the same throughput
        assert balanced["p99_s"] <= unbalanced["p99_s"] * P99_MARGIN, (
            "skew %g: balanced p99 %.4f not below %.2f x unbalanced %.4f"
            % (skew, balanced["p99_s"], P99_MARGIN, unbalanced["p99_s"])
        )
        assert balanced["throughput_qps"] >= unbalanced["throughput_qps"], skew
