"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro list                     # available experiments
    python -m repro run table1 fig7          # run selected experiments
    python -m repro run --all --json         # run everything, JSON output
    python -m repro run --all --check        # ... and gate the BENCH_*.json
    python -m repro run blocks --write       # refresh BENCH_blocks.json
    python -m repro demo                     # tiny end-to-end demo
    python -m repro trace demo               # Perfetto trace of demo queries
    python -m repro trace "//article//author" -o q.json
    python -m repro profile views            # top spans + utilization
    python -m repro stats --json             # machine-readable load stats
    python -m repro top                      # telemetry view of a serve run
    python -m repro explain "//article//author"   # per-query EXPLAIN ANALYZE
    python -m repro run serve skew --telemetry    # experiments + diagnostics
    python -m repro fuzz --iterations 200    # fault-injection fuzzing
    python -m repro fuzz --seed 5076 --iterations 1 --write-quorum majority

Each experiment prints the paper-style rows and verifies its qualitative
shape; the table of experiments is ``repro.experiments.EXPERIMENTS``.
``trace`` writes Chrome trace-event JSON openable in Perfetto or
``chrome://tracing``; ``profile`` prints where the simulated time went.
"""

import argparse
import json
import sys
import time


def cmd_list(_args):
    from repro.experiments import EXPERIMENTS

    width = max(len(name) for name in EXPERIMENTS)
    for name, experiment in EXPERIMENTS.items():
        print("%-*s  %s" % (width, name, experiment.description))
    return 0


def _jsonable(value):
    """Best-effort conversion of experiment results to JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def cmd_run(args):
    from repro.experiments import EXPERIMENTS

    names = list(EXPERIMENTS) if args.all else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print("unknown experiments: %s" % ", ".join(unknown), file=sys.stderr)
        return 2
    if not names:
        print("nothing to run; use --all or name experiments", file=sys.stderr)
        return 2
    if args.telemetry and (args.check or args.write):
        # telemetry adds slo/findings keys to the rows a baseline holds
        print("--telemetry cannot be combined with --check/--write", file=sys.stderr)
        return 2
    failed = []
    records = []
    for name in names:
        experiment = EXPERIMENTS[name]
        if not args.json:
            print("== %s ==" % experiment.description)
        started = time.time()
        if args.telemetry and "telemetry" in experiment.run_options:
            result = experiment.run(telemetry=True)
        else:
            if args.telemetry:
                print(
                    "note: %s does not support --telemetry; running plain"
                    % name,
                    file=sys.stderr,
                )
            result = experiment.run()
        shape_error = None
        try:
            experiment.check(result)
        except AssertionError as exc:
            shape_error = str(exc)
        seconds = time.time() - started
        diffs = None  # not compared
        if experiment.baseline and shape_error is None:
            if args.write:
                with open(experiment.baseline, "w") as handle:
                    handle.write(experiment.baseline_text(result))
                print("wrote %s" % experiment.baseline, file=sys.stderr)
            if args.check:
                diffs = experiment.baseline_diffs(result)
        if shape_error is not None or diffs:
            failed.append(name)
        if args.json:
            records.append(
                {
                    "experiment": name,
                    "description": experiment.description,
                    "result": _jsonable(result),
                    "shape_ok": shape_error is None,
                    "shape_error": shape_error,
                    "seconds": seconds,
                }
            )
        else:
            print(experiment.format(result))
            if args.chart and experiment.chart:
                print(experiment.chart(result))
            if shape_error is None:
                print("shape: OK")
            else:
                print("shape: FAILED (%s)" % shape_error)
            if diffs is not None:
                print(
                    "baseline %s: %s"
                    % (experiment.baseline, "FAILED" if diffs else "OK")
                )
            print("(%.1fs)\n" % seconds)
        for diff in diffs or ():
            print("%s: %s: %s" % (name, experiment.baseline, diff), file=sys.stderr)
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
    if failed:
        print("failed: %s" % ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def _demo_system():
    """The small shared corpus behind ``stats``/``trace``/``profile``."""
    from repro.experiments.harness import dblp_network
    from repro.kadop.config import KadopConfig

    config = KadopConfig(
        replication=1, use_views=True, view_auto_materialize_after=2
    )
    return dblp_network(config, 12, 10, 8_000, gen_seed=1)


def _demo_queries(net):
    """The demo query mix: a hot repeated query (crosses the view
    materialization threshold, so traces show consult/serve spans) plus a
    keyword query for a plain multi-term index phase."""
    for i in range(4):
        net.query("//article//author", peer=net.peers[i % 12])
    net.query(
        '//article[. contains "the"]//title',
        keyword_steps=("the",),
        peer=net.peers[5],
    )


def cmd_stats(args):
    """Publish a small corpus, run a repeated query, print load stats."""
    from repro.kadop.stats import format_stats, network_stats

    net = _demo_system()
    # the span tree is where the served reads are read back from
    net.enable_tracing()
    # a hot query: the repeats cross the threshold, materialize a view, and
    # the remaining runs hit it — so the view counters below are non-zero
    for i in range(4):
        net.query("//article//author", peer=net.peers[i % 12])
    stats = network_stats(net)
    if getattr(args, "json", False):
        from repro.obs import STATS_SCHEMA_VERSION

        payload = {"schema_version": STATS_SCHEMA_VERSION, "network": stats}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_stats(stats))
    return 0


def cmd_top(args):
    """Serve a skewed open-loop stream traced; render its telemetry view."""
    from repro.experiments import skew_balance
    from repro.obs import render_top, serving_view, write_json
    from repro.workloads.profiles import open_loop_workload, skewed_profile

    net = skew_balance.network(args.peers, args.docs, args.seed, {})
    profile = skewed_profile(args.skew, num_queries=args.queries)
    arrivals = open_loop_workload(
        profile, args.rate, seed=args.seed, num_sources=3
    )
    net.enable_tracing()
    result = net.serve(arrivals)
    payload = serving_view(net, result, args.interval, objective_s=args.slo)
    if args.out:
        write_json(payload, args.out)
        print("wrote %s" % args.out, file=sys.stderr)
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif not args.out:
        print(render_top(payload))
    return 0


def cmd_explain(args):
    """EXPLAIN ANALYZE one query against the demo corpus."""
    from repro.obs.explain import explain_query

    net = _demo_system()
    if args.warm:
        # repeats cross the view threshold, so the explained run can show
        # a view:serve phase instead of a plain index phase
        for i in range(args.warm):
            net.query(args.query, peer=net.peers[i % len(net.peers)])
    _answers, explain = explain_query(
        net,
        args.query,
        keyword_steps=tuple(args.keyword or ()),
        peer=net.peers[args.peer % len(net.peers)],
    )
    if getattr(args, "json", False):
        print(json.dumps(explain.to_dict(), indent=2, sort_keys=True))
    else:
        print(explain.format(max_rows=args.rows))
    # a report that does not reconcile is a bug worth a red exit code
    return 0 if explain.reconcile()["ok"] else 1


def _traced_run(target):
    """Run ``target`` with tracing on; returns the tracer.

    ``target`` is ``"demo"`` (the shared demo corpus and query mix), an
    experiment whose ``run`` takes a tracer, or an XPath query string (run
    once against the demo corpus)."""
    from repro.experiments import EXPERIMENTS
    from repro.obs import Tracer

    tracer = Tracer()
    experiment = EXPERIMENTS.get(target)
    if experiment is not None and "tracer" in experiment.run_options:
        experiment.run(tracer=tracer)
        return tracer
    net = _demo_system()
    net.enable_tracing(tracer)
    if target == "demo":
        _demo_queries(net)
    else:
        net.query(target, peer=net.peers[0])
    return tracer


def cmd_trace(args):
    """Record a Perfetto-compatible trace of a query or experiment."""
    from repro.obs import validate_trace_file, write_chrome_trace

    tracer = _traced_run(args.target)
    events = write_chrome_trace(tracer, args.out)
    validate_trace_file(args.out)  # what CI asserts, asserted here too
    print(
        "wrote %s: %d events (%d queries, %d spans); open in Perfetto or "
        "chrome://tracing" % (args.out, events, tracer.queries, len(tracer.spans))
    )
    return 0


def cmd_profile(args):
    """Print top spans by simulated self-time and resource utilization."""
    from repro.obs import format_profile

    tracer = _traced_run(args.target)
    print(format_profile(tracer, top=args.top))
    return 0


def cmd_fuzz(args):
    """Run the seed-reproducible scenario fuzzer (repro.sim.fuzz)."""
    from repro.sim.fuzz import FuzzFailure, config_from_args, run_fuzz

    config = config_from_args(args)
    progress = None
    if not args.json:
        def progress(seed, result):
            if result.iterations % 50 == 0:
                print(
                    "  ...%d iteration(s) done (last seed %d)"
                    % (result.iterations, seed)
                )
    started = time.time()
    try:
        result = run_fuzz(seed=args.seed, config=config, progress=progress)
    except FuzzFailure as failure:
        # the one-line repro lands in CI job output via stderr
        print(str(failure), file=sys.stderr)
        return 1
    seconds = time.time() - started
    if args.json:
        payload = result.to_dict()
        payload["seconds"] = seconds
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        "fuzz: %d iteration(s) x %d steps passed in %.1fs "
        "(seeds %d..%d, %d queries checked)"
        % (
            result.iterations,
            config.steps,
            seconds,
            args.seed,
            args.seed + config.iterations - 1,
            result.queries_checked,
        )
    )
    print(
        "  actions: %s"
        % ", ".join("%s=%d" % kv for kv in sorted(result.actions.items()))
    )
    print(
        "  faults:  %s"
        % ", ".join("%s=%d" % kv for kv in sorted(result.faults.items()))
    )
    return 0


def cmd_demo(_args):
    from repro.kadop.config import KadopConfig
    from repro.kadop.system import KadopNetwork

    net = KadopNetwork.create(num_peers=6, config=KadopConfig(replication=2))
    net.peers[0].publish(
        "<bib><article><title>XML in DHTs</title>"
        "<author>Abiteboul</author></article></bib>",
        uri="demo:1",
    )
    answers, report = net.query_with_report("//article//author")
    print("published 1 document on a 6-peer ring")
    print("query //article//author -> %d answer(s)" % len(answers))
    print(
        "simulated response %.1f ms, %d bytes on the wire"
        % (report.response_time_s * 1e3, report.total_bytes)
    )
    return 0


def _taking(option):
    """Names of the experiments whose ``run`` accepts ``option``."""
    from repro.experiments import EXPERIMENTS

    return [n for n, e in EXPERIMENTS.items() if option in e.run_options]


def build_parser():
    """The ``repro`` argument parser, one subcommand per ``cmd_*``."""
    from repro.sim.fuzz import add_arguments as add_fuzz_arguments

    traceable = _taking("tracer")
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'XML processing in DHT networks' (ICDE 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments").set_defaults(
        func=cmd_list
    )
    run_parser = sub.add_parser("run", help="run experiments")
    run_parser.add_argument("experiments", nargs="*", help="experiment names")
    run_parser.add_argument("--all", action="store_true", help="run everything")
    run_parser.add_argument(
        "--chart", action="store_true", help="render figures as ASCII charts"
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON results instead of formatted rows",
    )
    run_parser.add_argument(
        "--telemetry",
        action="store_true",
        help="add the SLO block and diagnostics of each serve's telemetry "
        "view to the serving experiments (%s)" % ", ".join(_taking("telemetry")),
    )
    run_parser.add_argument(
        "--check",
        action="store_true",
        help="regression gate: also compare every number of a result with "
        "the experiment's committed BENCH_*.json (read from the working "
        "directory); a leaf outside the tolerance exits 1",
    )
    run_parser.add_argument(
        "--write",
        action="store_true",
        help="refresh the committed BENCH_*.json of each experiment run "
        "that has one (written to the working directory)",
    )
    run_parser.set_defaults(func=cmd_run)
    sub.add_parser("demo", help="tiny end-to-end demo").set_defaults(func=cmd_demo)
    stats_parser = sub.add_parser(
        "stats", help="index load-balance statistics on a demo corpus"
    )
    stats_parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    stats_parser.set_defaults(func=cmd_stats)
    top_parser = sub.add_parser(
        "top",
        help="serving-clock telemetry of a skewed serve run: series, "
        "SLO burn, diagnostics",
    )
    top_parser.add_argument("--peers", type=int, default=10)
    top_parser.add_argument("--docs", type=int, default=12)
    top_parser.add_argument("--seed", type=int, default=0)
    top_parser.add_argument(
        "--skew", type=float, default=1.4, help="Zipf exponent of the query mix"
    )
    top_parser.add_argument(
        "--rate", type=float, default=24.0, help="arrival rate (queries/s sim)"
    )
    top_parser.add_argument("--queries", type=int, default=48)
    top_parser.add_argument(
        "--slo", type=float, default=0.8, help="latency objective (simulated s)"
    )
    top_parser.add_argument(
        "--interval", type=float, default=0.1, help="sampling interval (sim s)"
    )
    top_parser.add_argument(
        "--json", action="store_true", help="print the telemetry JSON payload"
    )
    top_parser.add_argument(
        "-o", "--out", help="write the telemetry JSON payload to this file"
    )
    top_parser.set_defaults(func=cmd_top)
    explain_parser = sub.add_parser(
        "explain",
        help="EXPLAIN ANALYZE one query: simulated time by phase, wire "
        "bytes by category/peer/key, reconciled against the meter",
    )
    explain_parser.add_argument("query", help="XPath query text")
    explain_parser.add_argument(
        "--keyword", action="append",
        help="keyword step for contains-queries (repeatable)",
    )
    explain_parser.add_argument(
        "--peer", type=int, default=0, help="originating peer index"
    )
    explain_parser.add_argument(
        "--warm", type=int, default=0,
        help="run the query this many times first (crosses the view "
        "materialization threshold at 2+)",
    )
    explain_parser.add_argument(
        "--rows", type=int, default=8, help="per-category attribution rows"
    )
    explain_parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON report"
    )
    explain_parser.set_defaults(func=cmd_explain)
    trace_parser = sub.add_parser(
        "trace",
        help="record a Perfetto-compatible trace (demo, a query, or an "
        "experiment: %s)" % ", ".join(traceable),
    )
    trace_parser.add_argument(
        "target", nargs="?", default="demo", help="demo | <xpath query> | %s"
        % " | ".join(traceable),
    )
    trace_parser.add_argument(
        "-o", "--out", default="trace.json", help="output path (trace.json)"
    )
    trace_parser.set_defaults(func=cmd_trace)
    profile_parser = sub.add_parser(
        "profile", help="top spans by simulated self-time + resource utilization"
    )
    profile_parser.add_argument(
        "target", nargs="?", default="demo", help="demo | <xpath query> | %s"
        % " | ".join(traceable),
    )
    profile_parser.add_argument(
        "--top", type=int, default=12, help="rows in the top-span table"
    )
    profile_parser.set_defaults(func=cmd_profile)
    fuzz_parser = sub.add_parser(
        "fuzz",
        help="seed-reproducible scenario fuzzer for the fault layer",
        description="A step weight of 0 disables that step and replays "
        "campaigns from before it existed.",
    )
    fuzz_parser.add_argument("--seed", type=int, default=0)
    add_fuzz_arguments(fuzz_parser)
    fuzz_parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON summary"
    )
    fuzz_parser.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
