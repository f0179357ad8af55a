"""Metric definitions and how each is computed from the child reports.

Two sets, as the benchmark contract has them:

* **end to end** — what a user of the system sees.  Apart from ``setup_s``
  and ``peak_rss_mb`` every one is exact: it repeats bit for bit under one
  seed.  ``SAME_SEED_BOUND`` is how far a metric may worsen between two
  commits *measured with the same seed* (``--compare``, ``--check-repeat``);
  ``BENCHMARK.json`` carries the wider bounds for medians over ten seeds.
* **per layer** — attribution.  ``TARGETS`` records, before anything was
  measured, which end-to-end metric each layer's numbers should move and on
  which workloads.
"""

import math
import statistics

from bench.layers import LAYERS

WORKLOAD_NAMES = ("ingest", "query_index", "query_docphase", "serve_churn")

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pysteps_per_op": ("steps/op", "lower"),
    "pysteps_p90_per_op": ("steps", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "sim_op_mean_s": ("sim-s", "lower"),
    "sim_op_p90_s": ("sim-s", "lower"),
    "wire_bytes_per_op": ("B/op", "lower"),
    "dht_msgs_per_op": ("msgs/op", "lower"),
}

#: worsening tolerated between two runs with one seed
SAME_SEED_BOUND = {
    "setup_s": 0.5,
    "peak_rss_mb": 0.1,
}
EXACT_BOUND = 0.005
EXACT_METRICS = tuple(name for name in END_TO_END if name not in SAME_SEED_BOUND)


def same_seed_bound(name):
    return SAME_SEED_BOUND.get(name, EXACT_BOUND)


#: layers whose code must not run at all where the workload bypasses them
ZERO_STEP_LAYERS = {
    "ingest": ("bloom", "views", "kadop.serving", "obs"),
    "query_index": ("bloom", "views", "kadop.serving", "obs"),
    "query_docphase": ("bloom", "views", "kadop.serving", "obs"),
    "serve_churn": ("obs",),
}
#: layers that may cost at most this share of steps on the bypass workloads
BYPASS_SHARE = {"sim": 0.02, "balance": 0.02}
BYPASS_WORKLOADS = ("ingest", "query_index", "query_docphase")

_WRITE = ("ingest",)
_READS = ("query_index", "query_docphase")
_ALL = WORKLOAD_NAMES

#: layer prefix -> [(end-to-end metric, workloads on which it should move)]
TARGETS = {
    "xmldata": [("pysteps_per_op", ("ingest", "query_docphase"))],
    "dht": [("pysteps_per_op", _WRITE), ("dht_msgs_per_op", _WRITE),
            ("setup_s", ("query_index",))],
    "index": [("pysteps_per_op", _WRITE), ("dht_msgs_per_op", _WRITE),
              ("setup_s", ("query_index",))],
    "storage": [("pysteps_per_op", _WRITE), ("peak_rss_mb", _ALL)],
    "postings": [("pysteps_per_op", ("query_index", "ingest"))],
    "query.twigjoin": [("pysteps_per_op", ("query_index",))],
    "query.block_join": [("pysteps_per_op", ("query_index",))],
    "query.matcher": [("pysteps_per_op", ("query_docphase",))],
    "query.xpath": [("pysteps_per_op", _READS)],
    "query": [("pysteps_per_op", _READS), ("wire_bytes_per_op", _READS)],
    "bloom": [("pysteps_per_op", ("serve_churn",)),
              ("wire_bytes_per_op", ("serve_churn",))],
    "views": [("pysteps_per_op", ("serve_churn",)),
              ("sim_op_p90_s", ("serve_churn",)),
              ("wire_bytes_per_op", ("serve_churn",))],
    "balance": [("pysteps_per_op", ("serve_churn",)),
                ("sim_op_p90_s", ("serve_churn",))],
    "kadop.serving": [("pysteps_per_op", ("serve_churn",)),
                      ("sim_op_p90_s", ("serve_churn",))],
    "kadop.execution": [("pysteps_per_op", _READS + ("serve_churn",))],
    "kadop.optimizer": [("pysteps_per_op", ("serve_churn",))],
    "sim": [("pysteps_per_op", ("serve_churn",)),
            ("sim_op_p90_s", ("serve_churn",))],
    "kadop": [("pysteps_per_op", _ALL), ("setup_s", _ALL)],
    "obs": [("pysteps_per_op", _ALL)],
    "util": [("pysteps_per_op", _WRITE)],
    "other": [("pysteps_per_op", _ALL)],
}


def targets_of(metric):
    """The ``TARGETS`` row of a per-layer metric: longest matching prefix."""
    prefix = metric.rsplit(".", 1)[0]
    while prefix not in TARGETS and "." in prefix:
        prefix = prefix.rsplit(".", 1)[0]
    return TARGETS[prefix]


_NAMED = {
    # exact counts
    "xmldata.iter_elements_calls_per_op": ("calls/op", "lower"),
    "xmldata.parse_pysteps_per_kb": ("steps/KB", "lower"),
    "index.postings_per_doc": ("postings", "lower"),
    "index.msgs_per_doc": ("msgs", "lower"),
    "index.pysteps_growth": ("ratio", "lower"),
    "index.dpp_blocks_fetched_share": ("ratio", "lower"),
    "dht.hops_per_locate": ("hops", "lower"),
    "dht.distance_calls_per_op": ("calls/op", "lower"),
    "storage.bytes_written_per_user_byte": ("ratio", "lower"),
    "storage.bytes_read_per_op": ("B/op", "lower"),
    "storage.stored_bytes_per_user_byte": ("ratio", "lower"),
    "storage.lsm_compactions": ("count", "lower"),
    "postings.encoded_size_calls_per_op": ("calls/op", "lower"),
    "postings.kernel_calls_per_op": ("calls/op", "lower"),
    "postings.kernel_elems_p50": ("elems", "higher"),
    "bloom.filtered_query_share": ("ratio", "higher"),
    "query.matcher.inits_per_op": ("calls/op", "lower"),
    "query.candidate_docs_per_query": ("docs", "lower"),
    "query.doc_precision": ("ratio", "higher"),
    "query.postings_fetched_per_query": ("postings", "lower"),
    "sim.try_start_calls_per_op": ("calls/op", "lower"),
    "sim.tasks_per_op": ("tasks/op", "lower"),
    "kadop.serving.queue_wait_sim_s_mean": ("sim-s", "lower"),
    "kadop.serving.coalesced_hit_share": ("ratio", "higher"),
    "views.hit_share": ("ratio", "higher"),
    "views.maintenance_pysteps_per_publish": ("steps", "lower"),
    "balance.fanout_reads_per_op": ("reads/op", "higher"),
    "balance.migrations": ("count", "lower"),
    "kadop.query_sim_p50_s": ("sim-s", "lower"),
    "kadop.publish_sim_p50_s": ("sim-s", "lower"),
    "kadop.setup_pysteps": ("steps", "lower"),
    "kadop.failed_ops_share": ("ratio", "lower"),
    "obs.tracer_on_pysteps_share": ("ratio", "lower"),
    # host trend: noisy, never gated
    "kadop.cpu_ms_per_op": ("ms/op", "lower"),
    "kadop.query_cpu_p50_ms": ("ms", "lower"),
    "kadop.publish_cpu_p50_ms": ("ms", "lower"),
    "obs.bench_trace_overhead_share": ("ratio", "lower"),
}
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER["%s.pysteps_per_op" % _layer] = ("steps/op", "lower")
    PER_LAYER["%s.self_ms_per_op" % _layer] = ("ms/op", "lower")
    PER_LAYER["%s.calls_per_op" % _layer] = ("calls/op", "lower")
PER_LAYER.update(_NAMED)


def percentile(values, fraction):
    """Nearest-rank percentile; at 0.9 over n >= 100 values at least ten
    samples lie at or beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def median_of(report, field, kind):
    """Median of a per-op field over the ops of one kind; 0 if there are none."""
    chosen = [
        value
        for value, op_kind in zip(report[field], report["op_kinds"])
        if op_kind == kind and value is not None
    ]
    return statistics.median(chosen) if chosen else 0.0


def host_trend(plain):
    """Host CPU of a plain run: noisy, reported for trend only."""
    return {
        "kadop.cpu_ms_per_op": plain["cpu_s"] * 1000.0 / plain["ops"],
        "kadop.query_cpu_p50_ms": median_of(plain, "cpu_ms", "query"),
        "kadop.publish_cpu_p50_ms": median_of(plain, "cpu_ms", "publish"),
    }


def end_to_end(plain, counted, setup_samples):
    """End-to-end metric values from one plain and one counted report."""
    ops = plain["ops"]
    sims = [s for s in plain["sim_s"] if s is not None]
    return {
        "setup_s": statistics.median(setup_samples),
        "pysteps_per_op": counted["steps_total"] / counted["ops"],
        "pysteps_p90_per_op": percentile(counted["op_steps"], 0.9),
        "peak_rss_mb": plain["peak_rss_mb"],
        "sim_op_mean_s": statistics.fmean(sims),
        "sim_op_p90_s": percentile(sims, 0.9),
        "wire_bytes_per_op": plain["totals"]["wire_bytes"] / ops,
        "dht_msgs_per_op": plain["totals"]["msgs"] / ops,
    }


def per_layer(plain, counted, traced, tracer_slice):
    """Per-layer metric values from the four trace-mode reports."""
    ops = counted["ops"]
    values = {}
    for layer in LAYERS:
        spans = traced["layers"].get(layer, {"self_ms": 0.0, "calls": 0})
        values["%s.pysteps_per_op" % layer] = counted["steps_by_layer"][layer] / ops
        values["%s.self_ms_per_op" % layer] = spans["self_ms"] / traced["ops"]
        values["%s.calls_per_op" % layer] = spans["calls"] / traced["ops"]

    calls = counted["calls"]
    queries = plain["query_stats"]
    published = plain["publish_stats"]
    served = plain["serve_stats"]
    totals = plain["totals"]
    serial = [
        steps
        for steps, phase in zip(counted["op_steps"], counted["op_phases"])
        if phase == "serial"
    ]
    quarter = len(serial) // 4
    churned = published["documents"] + published["withdrawn"]
    values.update(
        {
            "xmldata.iter_elements_calls_per_op": calls["iter_elements"] / ops,
            "xmldata.parse_pysteps_per_kb": ratio(
                counted["inclusive_steps"]["parse"], published["user_bytes"] / 1000.0
            ),
            "index.postings_per_doc": ratio(
                published["postings"], published["documents"]
            ),
            "index.msgs_per_doc": ratio(published["messages"], published["documents"]),
            "index.pysteps_growth": (
                ratio(sum(serial[-quarter:]), sum(serial[:quarter])) if quarter else 0.0
            ),
            "index.dpp_blocks_fetched_share": ratio(
                queries["blocks_fetched"],
                queries["blocks_fetched"] + queries["blocks_skipped"],
            ),
            "dht.hops_per_locate": ratio(traced["hops"], traced["locates"]),
            "dht.distance_calls_per_op": calls["distance"] / ops,
            "storage.bytes_written_per_user_byte": ratio(
                totals["store_written"], published["user_bytes"]
            ),
            "storage.bytes_read_per_op": totals["store_read"] / ops,
            "storage.stored_bytes_per_user_byte": ratio(
                traced["stored_bytes"], traced["live_user_bytes"]
            ),
            "storage.lsm_compactions": totals["lsm_compactions"],
            "postings.encoded_size_calls_per_op": calls["encoded_size"] / ops,
            "postings.kernel_calls_per_op": calls["kernel"] / ops,
            "postings.kernel_elems_p50": traced["kernel_elems_p50"],
            "bloom.filtered_query_share": ratio(queries["filtered"], queries["queries"]),
            "query.matcher.inits_per_op": calls["match_document"] / ops,
            "query.candidate_docs_per_query": ratio(
                queries["candidate_docs"], queries["queries"]
            ),
            "query.doc_precision": ratio(
                queries["answer_docs"], queries["candidate_docs"]
            ),
            "query.postings_fetched_per_query": ratio(
                queries["postings_fetched"], queries["queries"]
            ),
            "sim.try_start_calls_per_op": calls["try_start"] / ops,
            "sim.tasks_per_op": calls["add_task"] / ops,
            "kadop.serving.queue_wait_sim_s_mean": ratio(
                served["queue_wait_s"], served["served"]
            ),
            "kadop.serving.coalesced_hit_share": ratio(
                served["coalesced_hits"], served["served"]
            ),
            "views.hit_share": ratio(queries["view_hits"], queries["queries"]),
            "views.maintenance_pysteps_per_publish": ratio(
                counted["inclusive_steps"]["views"], churned
            ),
            "balance.fanout_reads_per_op": totals["fanout_reads"] / ops,
            "balance.migrations": totals["migrations"],
            "kadop.query_sim_p50_s": median_of(plain, "sim_s", "query"),
            "kadop.publish_sim_p50_s": median_of(plain, "sim_s", "publish"),
            "kadop.setup_pysteps": counted["setup_pysteps"],
            "kadop.failed_ops_share": ratio(plain["failed"], plain["attempted"]),
            "obs.tracer_on_pysteps_share": tracer_slice["steps_on"]
            / tracer_slice["steps_off"]
            - 1.0,
            "obs.bench_trace_overhead_share": traced["cpu_s"] / plain["cpu_s"] - 1.0,
        }
    )
    values.update(host_trend(plain))
    return values


def layer_checks(workload, values, steps_per_op):
    """Problems with the per-layer numbers of one workload; empty if sound."""
    problems = []
    total = sum(values["%s.pysteps_per_op" % layer] for layer in LAYERS)
    if abs(total - steps_per_op) > 1e-6 * max(1.0, steps_per_op):
        problems.append(
            "per-layer steps sum to %r, end to end is %r" % (total, steps_per_op)
        )
    for layer in ZERO_STEP_LAYERS[workload]:
        if values["%s.pysteps_per_op" % layer] != 0:
            problems.append(
                "%s runs %r steps/op on %s, expected none"
                % (layer, values["%s.pysteps_per_op" % layer], workload)
            )
    if workload in BYPASS_WORKLOADS:
        for layer, share in BYPASS_SHARE.items():
            if values["%s.pysteps_per_op" % layer] > share * steps_per_op:
                problems.append(
                    "%s exceeds %.0f%% of steps on %s" % (layer, share * 100, workload)
                )
    return problems


# -- comparing two result files ------------------------------------------------


def verdict(name, base, new, spread=0.0):
    """``improved`` / ``unchanged`` / ``worse`` / ``unresolved`` for one
    (metric, workload) pair, with the relative change (positive = worse)."""
    better = END_TO_END[name][1]
    if base == 0:
        return ("unchanged" if new == 0 else "unresolved"), 0.0
    change = (new - base) / base if better == "lower" else (base - new) / base
    bound = same_seed_bound(name)
    if change > bound:
        return "worse", change
    if spread > bound:
        # the run-to-run spread hides anything smaller than itself
        return ("improved" if -change > spread else "unresolved"), change
    if change < 0 and (name in EXACT_METRICS or -change > bound):
        return "improved", change
    return "unchanged", change
