"""The serving telemetry view: one payload computed from a finished run.

Nothing samples while a serve runs.  :func:`serving_view` reads what the
run left behind: the :class:`~repro.kadop.serving.ServingResult` (each
query's arrival, admission and finish instants, its metered traffic and
its coalesced fetches) and the span tree of the network's tracer (the peer
that served each read).  At every instant ``t = k * interval_s``, up to the
first one at or past the makespan, it derives:

``admitted_queries``         queries with ``admit_s <= t``
``queue_depth``              queries with ``arrival_s <= t < admit_s``
``inflight_queries``         queries with ``admit_s <= t < finish_s``
``coalescer_hits``           coalesced fetches of the admitted queries
``wire_bytes``               metered bytes of the queries admitted in
                             ``(t - interval_s, t]``
``peer_read_bytes{peer=i}``  read bytes peer ``i`` served to those queries

Every admitted query's bytes land in one sample, so the wire bytes plus
the rebalancer's ``bytes_moved`` (tick-time migrations run outside any
query) equal the run's metered total exactly.  The SLO block scores each
query's latency against an objective per :data:`SLO_WINDOW_S` window of
completions, with Google SRE error-budget burn rates on simulated time.
The findings are rules over the same records: windows whose p99 breaches
the objective, the peer serving a hot share of the reads of the queries
that completed in such a window, and a growing admission queue.
"""

import math
from bisect import bisect_left
from collections import Counter
from itertools import accumulate

from repro.obs.metrics import quantile_exact
from repro.obs.profile import served_reads
from repro.obs.report import TELEMETRY_SCHEMA_VERSION

#: float-comparison slack for simulated instants
_EPS = 1e-9

#: default sampling interval (simulated seconds)
DEFAULT_INTERVAL_S = 0.1

#: the SLO's target quantile and window width (simulated seconds)
SLO_TARGET = 0.99
SLO_WINDOW_S = 0.5

#: a peer serving this multiple of the mean read bytes of the active peers
#: in a breach window is reported as hot
HOT_PEER_FACTOR = 2.0

#: queue depth is "growing" when the mean of the last half of the run
#: exceeds this multiple of the first half's (and is at least
#: MIN_QUEUE_DEPTH)
QUEUE_GROWTH_FACTOR = 2.0
MIN_QUEUE_DEPTH = 2.0


def _served_reads(tracer, queries):
    """``{seq: Counter{(peer, key): bytes}}``: the reads each query's DHT
    ops were served (:func:`~repro.obs.profile.served_reads`) under its
    root (a span is always recorded after its parent)."""
    reads = {q.seq: Counter() for q in queries}
    seq_of = {q.root_id: q.seq for q in queries if q.root_id is not None}
    spans = tracer.spans if tracer is not None else ()
    for span in spans:
        seq = seq_of.get(span.parent_id)
        if seq is not None:
            seq_of[span.span_id] = seq
    for span, peer, key, nbytes in served_reads(spans):
        seq = seq_of.get(span.span_id)
        if seq is not None:
            reads[seq][peer, key] += nbytes
    return reads


def serving_view(net, result, interval_s=DEFAULT_INTERVAL_S, *, objective_s):
    """The telemetry payload of one finished ``net.serve`` run; see the
    module docstring.  ``objective_s`` is the latency objective."""
    if interval_s <= 0:
        raise ValueError("interval_s must be positive")
    if objective_s <= 0:
        raise ValueError("objective_s must be positive")
    queries = result.queries
    last = math.ceil(result.makespan_s / interval_s - _EPS)
    instants = [k * interval_s for k in range(max(0, last) + 1)]
    reads = _served_reads(net.tracer, queries)
    # each query lands in the sample of the first instant at or past its
    # admission, so the per-instant amounts partition the run
    edges = [t + _EPS for t in instants]
    admits = [0] * len(instants)
    hits = [0] * len(instants)
    wire = [0] * len(instants)
    peer_bytes = {}
    for q in queries:
        k = bisect_left(edges, q.admit_s)
        admits[k] += 1
        hits[k] += q.coalesced_fetches
        wire[k] += sum(q.traffic.values())
        for (peer, _key), nbytes in reads[q.seq].items():
            peer_bytes.setdefault(peer, [0] * len(instants))[k] += nbytes
    series = {
        "admitted_queries": list(accumulate(admits)),
        "coalescer_hits": list(accumulate(hits)),
        "wire_bytes": wire,
        "queue_depth": [
            sum(1 for q in queries if q.arrival_s <= t + _EPS < q.admit_s)
            for t in instants
        ],
        "inflight_queries": [
            sum(1 for q in queries if q.admit_s <= t + _EPS < q.finish_s)
            for t in instants
        ],
    }
    for peer in sorted(peer_bytes):
        series["peer_read_bytes{peer=%d}" % peer] = peer_bytes[peer]
    slo = _slo_block(queries, objective_s)
    return {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "interval_s": interval_s,
        "makespan_s": result.makespan_s,
        "total_bytes": result.total_bytes,
        "balance": net.balance.summary(),
        "instants": instants,
        "series": series,
        "slo": slo,
        "findings": _findings(queries, reads, slo, instants, series),
    }


def _slo_block(queries, objective_s):
    """Latency-objective accounting over :data:`SLO_WINDOW_S` windows of
    completion instants; burn rate is breach fraction over ``1 -
    SLO_TARGET``."""
    budget = 1.0 - SLO_TARGET
    breaches = sum(1 for q in queries if q.latency_s > objective_s + _EPS)
    windows = []
    end = max((q.finish_s for q in queries), default=-1.0) + _EPS
    t0 = 0.0
    while t0 < end:
        t1 = t0 + SLO_WINDOW_S
        lats = sorted(
            q.latency_s for q in queries if t0 - _EPS <= q.finish_s < t1 - _EPS
        )
        if lats:
            over = sum(1 for lat in lats if lat > objective_s + _EPS)
            windows.append(
                {
                    "t0_s": t0,
                    "t1_s": t1,
                    "total": len(lats),
                    "breaches": over,
                    "p99_s": quantile_exact(lats, 0.99),
                    "burn_rate": (over / len(lats)) / budget,
                }
            )
        t0 = t1
    return {
        "objective_s": float(objective_s),
        "target": SLO_TARGET,
        "window_s": SLO_WINDOW_S,
        "total": len(queries),
        "breaches": breaches,
        "compliance": 1.0 - breaches / len(queries) if queries else 1.0,
        "budget_spent": breaches / (budget * len(queries)) if queries else 0.0,
        "windows": windows,
    }


def _finding(kind, t0_s, t1_s, detail, data, subject=None):
    return {
        "kind": kind,
        "severity": "critical" if kind == "latency-breach" else "warning",
        "t0_s": t0_s,
        "t1_s": t1_s,
        "subject": subject,
        "detail": detail,
        "data": data,
    }


def _findings(queries, reads, slo, instants, series):
    """The diagnostics rules, worst first:

    * **latency-breach** (critical): every SLO window whose p99 exceeds
      the objective;
    * **hot-peer** (warning): in a breach window, over the reads of the
      queries that completed in it (the queries that set its p99), the
      peer serving :data:`HOT_PEER_FACTOR` times the mean of the active
      peers, once per peer, with the window's hottest key;
    * **queue-growth** (warning): admission queue depth whose last-half
      mean is :data:`QUEUE_GROWTH_FACTOR` times the first half's.
    """
    objective = slo["objective_s"]
    findings = []
    hot_seen = set()
    for w in slo["windows"]:
        if w["p99_s"] <= objective + _EPS:
            continue
        t0, t1 = w["t0_s"], w["t1_s"]
        findings.append(
            _finding(
                "latency-breach", t0, t1,
                "p99 %.4fs over objective %.4fs "
                "(%d/%d queries breached, burn rate %.1fx)"
                % (w["p99_s"], objective, w["breaches"], w["total"], w["burn_rate"]),
                dict(w),
            )
        )
        done = [q for q in queries if t0 - _EPS <= q.finish_s < t1 - _EPS]
        by_peer, by_key = Counter(), Counter()
        for q in done:
            for (peer, key), nbytes in reads[q.seq].items():
                by_peer[peer] += nbytes
                by_key[key] += nbytes
        active = {p: n for p, n in by_peer.items() if n > 0}
        if not active:
            continue
        mean = sum(active.values()) / len(active)
        peer, nbytes = max(active.items(), key=lambda kv: (kv[1], -kv[0]))
        if nbytes < HOT_PEER_FACTOR * mean or peer in hot_seen:
            continue
        hot_seen.add(peer)
        top_key = min(by_key.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        findings.append(
            _finding(
                "hot-peer", t0, t1,
                "peer %d at %.1fx mean served-read load, top key %r"
                % (peer, nbytes / mean, top_key),
                {"read_bytes": nbytes, "mean_read_bytes": mean, "top_key": top_key},
                subject=peer,
            )
        )
    queue = series["queue_depth"]
    if len(queue) >= 4:
        half = len(queue) // 2
        first = sum(queue[:half]) / half
        last = sum(queue[half:]) / (len(queue) - half)
        if last >= MIN_QUEUE_DEPTH and last > QUEUE_GROWTH_FACTOR * max(first, 0.5):
            findings.append(
                _finding(
                    "queue-growth", instants[0], instants[-1],
                    "admission queue depth grew %.1f -> %.1f "
                    "(mean, first vs last half of the run)" % (first, last),
                    {"first_mean": first, "last_mean": last},
                )
            )
    findings.sort(key=lambda f: (f["severity"] != "critical", f["t0_s"], f["kind"]))
    return findings
