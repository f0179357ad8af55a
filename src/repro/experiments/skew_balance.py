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

The committed ``BENCH_skew.json`` doubles as a CI regression baseline:
at Zipf exponents >= 1.0, balanced serving must beat unbalanced on p99
latency by a fixed margin while holding throughput.
"""

import argparse
import json

from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.sim.cost import CostParams
from repro.workloads.dblp import DblpGenerator
from repro.workloads.profiles import open_loop_workload, skewed_profile

#: the sweep axis: uniform, skewed, heavily skewed
SKEWS = (0.0, 1.0, 1.4)

#: arrival rate (queries/second simulated) near saturation on slow links
RATE = 24.0

QUERIES = 48
NUM_SOURCES = 3

#: balanced p99 must stay below this fraction of unbalanced p99 at
#: Zipf >= 1.0 — the fixed margin the CI gate enforces
P99_MARGIN = 0.95

#: latency objective handed to the SLO tracker under ``--telemetry``;
#: calibrated between the committed balanced (max p99 0.51s) and
#: unbalanced (min p99 1.25s at Zipf >= 1.0) baselines, so diagnostics
#: flag exactly the unbalanced skewed cells
SLO_OBJECTIVE_S = 0.8

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


def _network(num_peers, docs, seed, knobs):
    # slow links (as in experiments.serving) so per-query service times
    # are long enough for arrivals to genuinely overlap; replication=2
    # gives the read fan-out a real replica set to spread over
    config = KadopConfig(
        replication=2,
        coalesce_fetches=False,
        cost=CostParams(egress_bw=100_000.0, ingress_bw=600_000.0),
        **knobs,
    )
    net = KadopNetwork.create(num_peers=num_peers, config=config, seed=seed)
    gen = DblpGenerator(seed=seed + 1, target_doc_bytes=6_000)
    for i in range(docs):
        net.peers[i % num_peers].publish(gen.document(), uri="dblp:%d" % i)
    return net


def _arrivals(skew, seed):
    profile = skewed_profile(skew, num_queries=QUERIES)
    return open_loop_workload(profile, RATE, seed=seed, num_sources=NUM_SOURCES)


def _sigs(answers):
    return [(a.peer, a.doc, repr(a.bindings)) for a in answers]


def run(num_peers=10, docs=12, seed=0, telemetry=False):
    """``{skew: {variant: row}}``; every row carries the answer check.

    ``telemetry=True`` attaches the serving-clock sampler + SLO tracker
    to every variant run and embeds ``slo`` / ``findings`` in its row —
    strictly observational, so the benchmark numbers (and the CI gate)
    are byte-identical either way."""
    results = {}
    for skew in SKEWS:
        arrivals = _arrivals(skew, seed)
        # serial reference on a fresh *unbalanced* network: the answers
        # every variant (balanced included) must reproduce byte-for-byte
        serial_net = _network(num_peers, docs, seed, {})
        serial_sigs = {}
        for seq, arrival in enumerate(arrivals):
            answers, _ = serial_net.query_with_report(
                arrival.query_text,
                keyword_steps=arrival.keyword_steps,
                peer=serial_net.peers[arrival.src],
            )
            serial_sigs[seq] = _sigs(answers)
        rows = {}
        for name, knobs in VARIANTS:
            net = _network(num_peers, docs, seed, knobs)
            sampler = (
                net.enable_telemetry(slo_objective_s=SLO_OBJECTIVE_S)
                if telemetry
                else None
            )
            result = net.serve(arrivals, policy="fifo", coalesce=False)
            sigs = {q.seq: _sigs(q.answers) for q in result.queries}
            row = result.to_dict()
            row["answers_match_serial"] = sigs == serial_sigs
            row["balance"] = net.balance.summary()
            if sampler is not None:
                from repro.obs.slo import diagnose

                row["slo"] = sampler.slo.to_dict()
                row["findings"] = [
                    f.to_dict()
                    for f in diagnose(
                        sampler, sampler.slo, ledger=net.balance.ledger
                    )
                ]
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
    from repro.experiments.serving import _diagnostics_lines

    extra = _diagnostics_lines(
        results, ["%g" % s for s in SKEWS], VARIANTS
    )
    if extra:
        lines.append("")
        lines.append("diagnostics (--telemetry):")
        lines.extend(extra)
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
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="skewed-serving ablation: redistribution on/off"
    )
    parser.add_argument("--peers", type=int, default=10)
    parser.add_argument("--docs", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", help="write the result table to this JSON file"
    )
    parser.add_argument(
        "--check",
        help="regression gate: assert the balanced-vs-unbalanced p99 "
        "margin holds against the committed baseline",
    )
    args = parser.parse_args(argv)
    results = run(num_peers=args.peers, docs=args.docs, seed=args.seed)
    print(format_rows(results))
    check_shape(results)
    print("shape OK")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out)
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        top = "%g" % SKEWS[-1]
        # balanced p99 must not regress above the committed run's (2%
        # slack for float differences across interpreter versions)
        allowed = baseline[top]["balanced"]["p99_s"] * 1.02
        got = results[top]["balanced"]["p99_s"]
        assert got <= allowed, (
            "balanced p99 regressed: %.4f > allowed %.4f" % (got, allowed)
        )
        print(
            "regression gate OK: balanced p99 %.4fs (allowed %.4fs)"
            % (got, allowed)
        )
    return results


if __name__ == "__main__":
    main()
