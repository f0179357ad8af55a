"""Materialized-view warmup: the cold/warm crossover of result caching.

The paper's Section 8 lists reuse of previously computed results among the
planned optimizations; :mod:`repro.views` implements it as materialized
tree-pattern views with popularity-driven auto-materialization.  This
experiment measures the mechanism end to end on the workload shape it is
built for: a Zipfian repeated-query stream over a DBLP-like corpus
(:func:`repro.workloads.profiles.zipfian_query_workload`).

Two identical networks run the same stream from the same source peers: one
with views disabled, one with auto-materialization after a small popularity
threshold.  During the cold phase the views network pays *extra* — every
materialization runs the full base query and then ships the answer blocks
into the DHT — so its cumulative traffic starts above the baseline's.  As
hot patterns materialize, each repeat is served from its view for a
fraction of the base cost, and the cumulative curves cross: the investment
is paid back.  The experiment reports per-phase means, the crossover point,
and verifies on every single query that both networks return
element-for-element identical answers.
"""

from repro.experiments.harness import dblp_network
from repro.kadop.config import KadopConfig
from repro.workloads.profiles import REPEATED_QUERY_PROFILES, zipfian_query_workload

DESCRIPTION = "Materialized views: repeated-query warmup crossover"


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def run(
    profile="zipf-hot",
    num_peers=16,
    num_docs=40,
    doc_bytes=12_000,
    publishers=8,
    materialize_after=2,
    seed=0,
    tracer=None,
):
    """Run the stream on views-off and views-on twins; returns a result dict.

    ``per_query`` holds ``(latency_off_s, latency_on_s, traffic_off_bytes,
    traffic_on_bytes)`` per stream position; phase aggregates split at the
    profile's warmup boundary.

    Pass a :class:`repro.obs.Tracer` to record the views network's queries
    as simulated-time spans; the result then gains a ``span_breakdown``
    (self-time per span category) so the crossover can be attributed phase
    by phase.  Tracing never changes the measured numbers — the in-run
    answer assertion doubles as the proof."""
    profile = REPEATED_QUERY_PROFILES[profile]
    workload = zipfian_query_workload(profile, seed=seed)

    base_config = KadopConfig(replication=1)
    view_config = KadopConfig(
        replication=1,
        use_views=True,
        view_auto_materialize_after=materialize_after,
    )
    base_net = dblp_network(base_config, num_peers, num_docs, doc_bytes, publishers, seed)
    view_net = dblp_network(view_config, num_peers, num_docs, doc_bytes, publishers, seed)
    if tracer is not None:
        view_net.enable_tracing(tracer)

    per_query = []
    hits = 0
    for i, (query, keywords) in enumerate(workload):
        src = i % num_peers
        base_snap = base_net.meter.snapshot()
        base_answers, base_report = base_net.query_with_report(
            query, keyword_steps=keywords, peer=base_net.peers[src]
        )
        base_traffic = sum(base_net.meter.delta_since(base_snap).values())
        view_snap = view_net.meter.snapshot()
        view_answers, view_report = view_net.query_with_report(
            query, keyword_steps=keywords, peer=view_net.peers[src]
        )
        view_traffic = sum(view_net.meter.delta_since(view_snap).values())
        # the differential guarantee, asserted in-run on every query
        if [(a.peer, a.doc, a.bindings) for a in base_answers] != [
            (a.peer, a.doc, a.bindings) for a in view_answers
        ]:
            raise AssertionError(
                "view-served answers differ from base on query %d: %s" % (i, query)
            )
        hits += bool(view_report.view_hit)
        per_query.append(
            (
                base_report.response_time_s,
                view_report.response_time_s,
                base_traffic,
                view_traffic,
            )
        )

    warmup = profile.warmup_queries
    cold, warm = per_query[:warmup], per_query[warmup:]

    def phase(rows):
        return {
            "latency_off_s": _mean([r[0] for r in rows]),
            "latency_on_s": _mean([r[1] for r in rows]),
            "traffic_off_bytes": _mean([r[2] for r in rows]),
            "traffic_on_bytes": _mean([r[3] for r in rows]),
        }

    # the payback point: materialization investments push the views
    # network's cumulative traffic above the baseline's; the crossover is
    # the stream position after which it stays below for good (0 if the
    # investments never even showed — e.g. views disabled by cost)
    cum_off = cum_on = 0
    last_above = -1
    for i, (_, _, t_off, t_on) in enumerate(per_query):
        cum_off += t_off
        cum_on += t_on
        if cum_on > cum_off:
            last_above = i
    crossover = last_above + 1 if last_above + 1 < len(per_query) else None
    views = view_net.views
    span_breakdown = None
    if tracer is not None:
        from repro.obs.profile import phase_totals

        span_breakdown = phase_totals(tracer)
    return {
        "span_breakdown": span_breakdown,
        "profile": profile.name,
        "queries": len(per_query),
        "warmup": warmup,
        "per_query": per_query,
        "cold": phase(cold),
        "warm": phase(warm),
        "crossover": crossover,
        "cumulative_off_bytes": cum_off,
        "cumulative_on_bytes": cum_on,
        "view_hits": hits,
        "materializations": views.materializations,
        "view_storage_bytes": sum(
            nbytes for _, nbytes in views.storage_by_peer().values()
        ),
        "answers_identical": True,  # every query was asserted above
    }


def format_rows(result):
    lines = [
        "profile %s: %d queries (%d cold / %d warm), %d materializations, "
        "%d view hits"
        % (
            result["profile"],
            result["queries"],
            result["warmup"],
            result["queries"] - result["warmup"],
            result["materializations"],
            result["view_hits"],
        ),
        "%6s %18s %18s %18s %18s"
        % ("phase", "lat off (ms)", "lat on (ms)", "traffic off (B)", "traffic on (B)"),
    ]
    for name in ("cold", "warm"):
        ph = result[name]
        lines.append(
            "%6s %18.2f %18.2f %18.0f %18.0f"
            % (
                name,
                ph["latency_off_s"] * 1e3,
                ph["latency_on_s"] * 1e3,
                ph["traffic_off_bytes"],
                ph["traffic_on_bytes"],
            )
        )
    lines.append(
        "cumulative traffic: off %d B, on %d B; crossover at query %s"
        % (
            result["cumulative_off_bytes"],
            result["cumulative_on_bytes"],
            result["crossover"],
        )
    )
    lines.append("view storage: %d bytes" % result["view_storage_bytes"])
    if result.get("span_breakdown"):
        parts = ", ".join(
            "%s %.1fms" % (cat, seconds * 1e3)
            for cat, seconds in sorted(
                result["span_breakdown"].items(), key=lambda kv: -kv[1]
            )
        )
        lines.append("span self-time (views network): %s" % parts)
    return "\n".join(lines)


def check_shape(result):
    """Warm phase at least halves latency and traffic; investment pays back."""
    assert result["answers_identical"]
    assert result["materializations"] > 0
    assert result["view_hits"] > 0
    warm = result["warm"]
    assert warm["latency_on_s"] <= warm["latency_off_s"] / 2, (
        "warm latency not halved: %r" % (warm,)
    )
    assert warm["traffic_on_bytes"] <= warm["traffic_off_bytes"] / 2, (
        "warm traffic not halved: %r" % (warm,)
    )
    assert result["crossover"] is not None, "caching never paid back"
    assert result["crossover"] <= result["warmup"], (
        "payback only after the cold phase: %r" % result["crossover"]
    )
    assert result["cumulative_on_bytes"] < result["cumulative_off_bytes"]
