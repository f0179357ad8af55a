"""Saturation sweep: open-loop serving across arrival rates.

Drives :class:`~repro.kadop.serving.ServingEngine` with seeded Poisson
arrival traces (:func:`~repro.workloads.profiles.open_loop_workload`) over
the skewed ``zipf-hot`` query pool, at three arrival rates spanning light
load to saturation, under four variants:

* ``base``      unbounded admission, no coalescing — every query enjoys
                instant admission but fights everyone else for links/CPU;
* ``coalesce``  single-flight fetch coalescing on — concurrent repeats of
                the hot patterns share in-flight transfers;
* ``admit``     bounded admission (``max_inflight``) — saturation turns
                into queueing delay instead of unbounded contention;
* ``both``      coalescing + admission.

Per cell: throughput, p50/p95/p99 latency (read back from the span
tracer's query roots, which the serving engine patches to served
extents), simulated bytes, and coalescing savings.  Every variant's
per-query answers must be byte-identical to running the same queries
sequentially on an identical fresh network — concurrency is a
performance model, never a semantics change.

The committed ``BENCH_serve.json`` doubles as a CI regression baseline:
at the top rate, coalescing must keep saving bytes and admission must
keep p99 below the no-admission baseline.
"""

import argparse
import json

from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.sim.cost import CostParams
from repro.workloads.dblp import DblpGenerator
from repro.workloads.profiles import REPEATED_QUERY_PROFILES, open_loop_workload

#: queries/second of simulated time: light load, near-saturation, saturation
RATES = (4.0, 16.0, 64.0)

VARIANTS = (
    ("base", {"coalesce": False, "max_inflight": None}),
    ("coalesce", {"coalesce": True, "max_inflight": None}),
    ("admit", {"coalesce": False, "max_inflight": 4}),
    ("both", {"coalesce": True, "max_inflight": 4}),
)

#: sources the stream originates from — few, so ingress/CPU contention bites
NUM_SOURCES = 3

#: latency objective handed to the SLO tracker under ``--telemetry``
SLO_OBJECTIVE_S = 0.8


def _network(num_peers, docs, seed):
    # slow links (as in experiments.block_pruning) so per-query service
    # times are long enough for arrivals to genuinely overlap
    config = KadopConfig(
        replication=1,
        cost=CostParams(egress_bw=100_000.0, ingress_bw=600_000.0),
    )
    net = KadopNetwork.create(num_peers=num_peers, config=config, seed=seed)
    gen = DblpGenerator(seed=seed + 1, target_doc_bytes=6_000)
    for i in range(docs):
        net.peers[i % num_peers].publish(gen.document(), uri="dblp:%d" % i)
    return net


def _arrivals(rate, queries, seed):
    profile = REPEATED_QUERY_PROFILES["zipf-hot"]
    return open_loop_workload(
        profile, rate, seed=seed, num_sources=NUM_SOURCES
    )[:queries]


def _answer_sigs(answers_by_seq):
    return {
        seq: [(a.peer, a.doc, repr(a.bindings)) for a in answers]
        for seq, answers in answers_by_seq.items()
    }


def run(num_peers=10, docs=12, queries=60, seed=0, telemetry=False):
    """``{rate: {variant: row}}`` plus the serial answer reference.

    ``telemetry=True`` attaches the serving-clock sampler + SLO tracker
    to every variant run and embeds ``slo`` / ``findings`` in its row.
    Telemetry is strictly observational, so every benchmark number is
    byte-identical either way (the CI gates read the same keys)."""
    from repro.obs import Tracer

    results = {}
    for rate in RATES:
        arrivals = _arrivals(rate, queries, seed)
        # serial reference: the same queries, one at a time, on an
        # identical fresh network — the answers every variant must match
        serial_net = _network(num_peers, docs, seed)
        serial_sigs = {}
        for seq, arrival in enumerate(arrivals):
            answers, _ = serial_net.query_with_report(
                arrival.query_text,
                keyword_steps=arrival.keyword_steps,
                peer=serial_net.peers[arrival.src],
            )
            serial_sigs[seq] = [
                (a.peer, a.doc, repr(a.bindings)) for a in answers
            ]
        rows = {}
        for name, knobs in VARIANTS:
            net = _network(num_peers, docs, seed)
            tracer = net.enable_tracing(Tracer())
            sampler = (
                net.enable_telemetry(slo_objective_s=SLO_OBJECTIVE_S)
                if telemetry
                else None
            )
            result = net.serve(
                arrivals,
                max_inflight=knobs["max_inflight"],
                policy="fifo",
                coalesce=knobs["coalesce"],
            )
            sigs = _answer_sigs(
                {q.seq: q.answers for q in result.queries}
            )
            # the tracer's patched query roots carry the served latency;
            # percentiles quoted below come from those spans
            span_latencies = sorted(
                span.args["latency_s"]
                for span in tracer.spans_by_cat("query")
                if "latency_s" in span.args
            )
            row = result.to_dict()
            row["span_latencies_match"] = (
                span_latencies == result.latencies()
            )
            row["answers_match_serial"] = sigs == serial_sigs
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
        results["%g" % rate] = rows
    return results


def _diagnostics_lines(results, axis_keys, variants):
    """Findings rows for :func:`format_rows`, when --telemetry ran."""
    lines = []
    for axis in axis_keys:
        for name, _ in variants:
            row = results[axis][name]
            for f in row.get("findings", ()):
                lines.append(
                    "  %s/%s [%s] %s %.2f-%.2fs: %s"
                    % (
                        axis,
                        name,
                        f["severity"],
                        f["kind"],
                        f["t0_s"],
                        f["t1_s"],
                        f["detail"],
                    )
                )
    return lines


def format_rows(results):
    lines = [
        "%-6s %-9s %10s %9s %9s %9s %10s %9s %7s"
        % (
            "rate", "variant", "thr (qps)", "p50 (s)", "p95 (s)",
            "p99 (s)", "bytes", "saved", "answers",
        )
    ]
    for rate in ("%g" % r for r in RATES):
        for name, _ in VARIANTS:
            row = results[rate][name]
            lines.append(
                "%-6s %-9s %10.2f %9.4f %9.4f %9.4f %10d %9d %7s"
                % (
                    rate,
                    name,
                    row["throughput_qps"],
                    row["p50_s"],
                    row["p95_s"],
                    row["p99_s"],
                    row["total_bytes"],
                    row["coalesced_bytes_saved"],
                    "OK" if row["answers_match_serial"] else "DIFF",
                )
            )
    extra = _diagnostics_lines(
        results, ["%g" % r for r in RATES], VARIANTS
    )
    if extra:
        lines.append("")
        lines.append("diagnostics (--telemetry):")
        lines.extend(extra)
    return "\n".join(lines)


def check_shape(results):
    top = results["%g" % RATES[-1]]
    for rate_rows in results.values():
        for name, row in rate_rows.items():
            # concurrency is a performance model only: answers are
            # byte-identical to serial execution, with and without
            # coalescing, and the tracer agrees with the result object
            assert row["answers_match_serial"], name
            assert row["span_latencies_match"], name
    # at the highest arrival rate: coalescing reduces simulated bytes ...
    assert top["coalesce"]["total_bytes"] < top["base"]["total_bytes"]
    assert top["coalesce"]["coalesced_hits"] > 0
    # ... and admission control reduces p99 latency vs no-admission
    assert top["admit"]["p99_s"] < top["base"]["p99_s"]
    # queueing is where admission pays: waits exist under the bound
    assert top["admit"]["mean_queue_wait_s"] > 0
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="open-loop serving saturation sweep"
    )
    parser.add_argument("--peers", type=int, default=10)
    parser.add_argument("--docs", type=int, default=12)
    parser.add_argument("--queries", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", help="write the result table to this JSON file"
    )
    parser.add_argument(
        "--check",
        help="regression gate: assert the saturation-rate coalescing "
        "savings and admission p99 hold against the committed baseline",
    )
    args = parser.parse_args(argv)
    results = run(
        num_peers=args.peers,
        docs=args.docs,
        queries=args.queries,
        seed=args.seed,
    )
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
        top_rate = "%g" % RATES[-1]
        base_top = baseline[top_rate]
        got_top = results[top_rate]
        # byte savings must not regress below the committed run's
        saved_baseline = base_top["coalesce"]["coalesced_bytes_saved"]
        saved_now = got_top["coalesce"]["coalesced_bytes_saved"]
        assert saved_now >= saved_baseline, (
            "coalescing savings regressed: %d < baseline %d"
            % (saved_now, saved_baseline)
        )
        # admission p99 must stay below the no-admission baseline, with
        # headroom no worse than the committed run's (2% slack for float
        # differences across interpreter versions)
        allowed = base_top["admit"]["p99_s"] * 1.02
        got = got_top["admit"]["p99_s"]
        assert got <= allowed, (
            "admission p99 regressed: %.4f > allowed %.4f" % (got, allowed)
        )
        print(
            "regression gate OK: saved %d bytes (baseline %d), "
            "admit p99 %.4fs (allowed %.4fs)"
            % (saved_now, saved_baseline, got, allowed)
        )
    return results


if __name__ == "__main__":
    main()
