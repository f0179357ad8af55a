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

``repro run serve --check`` compares every number of the sweep with the
committed ``BENCH_serve.json``.
"""

from repro.experiments.harness import (
    diagnostics_lines,
    dblp_network,
    serial_answer_sigs,
    serve_row,
)
from repro.kadop.config import KadopConfig
from repro.sim.cost import CostParams
from repro.workloads.profiles import REPEATED_QUERY_PROFILES, open_loop_workload

DESCRIPTION = "Concurrent serving: saturation sweep with coalescing/admission"
BASELINE = "BENCH_serve.json"

#: queries/second of simulated time: light load, near-saturation, saturation
RATES = (4.0, 16.0, 64.0)

#: variant -> the serving knobs of its network's config
VARIANTS = (
    ("base", {"coalesce_fetches": False, "max_inflight": None}),
    ("coalesce", {"coalesce_fetches": True, "max_inflight": None}),
    ("admit", {"coalesce_fetches": False, "max_inflight": 4}),
    ("both", {"coalesce_fetches": True, "max_inflight": 4}),
)

#: sources the stream originates from — few, so ingress/CPU contention bites
NUM_SOURCES = 3


def _network(num_peers, docs, seed, knobs):
    # slow links (as in experiments.block_pruning) so per-query service
    # times are long enough for arrivals to genuinely overlap
    config = KadopConfig(
        replication=1,
        cost=CostParams(egress_bw=100_000.0, ingress_bw=600_000.0),
        **knobs,
    )
    return dblp_network(
        config, num_peers, docs, 6_000, publishers=num_peers, seed=seed,
        gen_seed=seed + 1,
    )


def _arrivals(rate, queries, seed):
    profile = REPEATED_QUERY_PROFILES["zipf-hot"]
    return open_loop_workload(
        profile, rate, seed=seed, num_sources=NUM_SOURCES
    )[:queries]


def run(num_peers=10, docs=12, queries=60, seed=0, telemetry=False):
    """``{rate: {variant: row}}`` plus the serial answer reference.

    ``telemetry=True`` embeds the ``slo`` / ``findings`` of each variant
    run's telemetry view in its row; every other number is byte-identical
    either way."""
    from repro.obs import Tracer

    results = {}
    for rate in RATES:
        arrivals = _arrivals(rate, queries, seed)
        # serial reference: the same queries, one at a time, on an
        # identical fresh network — the answers every variant must match
        serial_sigs = serial_answer_sigs(
            _network(num_peers, docs, seed, {}), arrivals
        )
        rows = {}
        for name, knobs in VARIANTS:
            net = _network(num_peers, docs, seed, knobs)
            tracer = net.enable_tracing(Tracer())
            result, row = serve_row(net, arrivals, serial_sigs, telemetry)
            # the tracer's patched query roots carry the served latency;
            # percentiles quoted below come from those spans
            span_latencies = sorted(
                span.args["latency_s"]
                for span in tracer.spans_by_cat("query")
                if "latency_s" in span.args
            )
            row["span_latencies_match"] = (
                span_latencies == result.latencies()
            )
            rows[name] = row
        results["%g" % rate] = rows
    return results


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
    lines.extend(
        diagnostics_lines(results, ["%g" % r for r in RATES], VARIANTS)
    )
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
