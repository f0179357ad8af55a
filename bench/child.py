"""One measured process: one workload under one kind of run.

``plain``      no instrumentation: simulated costs, traffic, host seconds,
               peak RSS, failures, and the oracle check after the window;
``counted``    interpreter steps counted inside the timed window only
               (and, with ``--count-setup``, during set-up as a separate
               number);
``traced``     boundary spans on, written as a Chrome trace at exit;
``setup``      set-up only, for one more ``setup_s`` sample from a fresh
               process;
``tracer_on``  the cost of the program's own tracer on a fixed 20-query
               slice of ``query_docphase``.

The last line of standard output is one JSON object.  ``bench.run`` starts
these processes one at a time with ``PYTHONHASHSEED=0``.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import repro  # noqa: E402
from repro.kadop.verify import oracle_answers  # noqa: E402
from repro.obs import validate_trace_file  # noqa: E402
from repro.postings import kernels  # noqa: E402

from bench.metrics import percentile  # noqa: E402
from bench.spans import SpanRecorder, patch  # noqa: E402
from bench.steps import StepCounter  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
TRACER_SLICE = 20
MAX_ERRORS_KEPT = 5


def step_counter():
    backend_file = os.path.abspath(kernels.active().__file__)
    return StepCounter(PACKAGE_DIR, os.path.relpath(backend_file, PACKAGE_DIR))


def kernel_input_size(name, args, result):
    """Elements one kernel call works on."""
    if name == "merge":
        return len(args[0][0]) + len(args[1][0])
    if name == "concat_sorted":
        return sum(len(chunk[0]) for chunk in args[0])
    if name == "batch_bisect":
        return len(args[1])
    if name == "seek_end_ge":
        return args[4] - args[3]
    if name == "decode":
        return len(result[0][0])
    if name.startswith("bloom_"):
        return len(args[5])
    first = args[0]
    return len(first[0]) if isinstance(first, (tuple, list)) and first else len(first)


class Driver:
    """Executes a workload's ops and owns every measurement around them."""

    def __init__(self, counter=None, recorder=None):
        self.system = None  # the KadopNetwork, once set-up has built it
        self.counter = counter
        self.recorder = recorder
        self.ops = []  # one dict per op
        self.totals = {}  # window deltas of the gauges below
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_kb = 0
        self.errors = []
        self.attempted = 0
        self.failed = 0
        # query bookkeeping for the oracle check
        self.snapshots = []
        self._corpus_changed = True
        self.checks = {}  # (text, keywords, state) -> [(op index | None, answers)]
        self.query_stats = dict.fromkeys(
            (
                "queries", "postings_fetched", "blocks_fetched", "blocks_skipped",
                "candidate_docs", "answer_docs", "filtered", "view_hits",
            ),
            0,
        )
        self.publish_stats = dict.fromkeys(
            ("documents", "postings", "messages", "user_bytes", "withdrawn"), 0
        )
        self.serve_stats = dict.fromkeys(
            ("served", "queue_wait_s", "coalesced_hits"), 0
        )
        # step accounting that needs function boundaries
        self.serve_marks = None
        self._executor_depth = 0
        self.inclusive = {"parse": 0, "views": 0}

    # -- the timed window: may be entered several times ----------------------

    def _gauges(self):
        system = self.system
        stores = [node.store for node in system.net.nodes]
        balance = system.balance.summary()
        return {
            "wire_bytes": system.meter.bytes(),
            "msgs": system.meter.messages(),
            "store_read": sum(s.stats.bytes_read for s in stores),
            "store_written": sum(s.stats.bytes_written for s in stores),
            "lsm_compactions": sum(getattr(s, "compactions", 0) for s in stores),
            "fanout_reads": balance["fanout_reads"],
            "migrations": balance["migrations"],
        }

    def start(self):
        self._gauges0 = self._gauges()
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        if self.recorder is not None:
            self.recorder.enabled = True

    def stop(self):
        if self.recorder is not None:
            self.recorder.enabled = False
        self.wall_s += time.perf_counter() - self._wall0
        self.cpu_s += time.process_time() - self._cpu0
        for key, value in self._gauges().items():
            self.totals[key] = self.totals.get(key, 0) + value - self._gauges0[key]
        self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # -- one op --------------------------------------------------------------

    def _begin(self, kind):
        if self.recorder is not None:
            self.recorder.begin_op(kind, len(self.ops))
        self._op_cpu0 = time.process_time()
        if self.counter is not None:
            # steps are counted inside ops only, so that they sum to the total
            self._steps0 = self.counter.total()
            self.counter.start()

    def _end(self, kind, count, sims, failed, phase=None):
        steps = 0
        if self.counter is not None:
            self.counter.stop()
            steps = self.counter.total() - self._steps0
        cpu_ms = (time.process_time() - self._op_cpu0) * 1000.0
        if self.recorder is not None:
            self.recorder.end_op()
        for i in range(count):
            self.ops.append(
                {
                    "kind": kind,
                    "phase": phase,
                    "sim_s": sims[i] if i < len(sims) else None,
                    "steps": steps / count,
                    "cpu_ms": cpu_ms / count,
                    "failed": failed,
                }
            )
        self.attempted += count
        if failed:
            self.failed += count

    def _attempt(self, function, *args, **kwargs):
        try:
            return True, function(*args, **kwargs)
        except Exception:
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(traceback.format_exc(limit=6))
            return False, None

    def publish(self, peer, xml, uri, phase=None):
        self._begin("publish")
        ok, receipt = self._attempt(peer.publish, xml, uri=uri)
        self._end(
            "publish", 1, [receipt.duration_s] if ok else [], not ok, phase=phase
        )
        self._published(receipt, len(xml) if ok else 0)

    def publish_batch(self, peer, xmls, uris):
        self._begin("publish")
        ok, receipt = self._attempt(peer.publish_batch, xmls, uris=uris)
        sims = [receipt.duration_s / len(xmls)] * len(xmls) if ok else []
        self._end("publish", len(xmls), sims, not ok, phase="bulk")
        self._published(receipt, sum(len(x) for x in xmls) if ok else 0)

    def _published(self, receipt, user_bytes):
        self._corpus_changed = True
        if receipt is not None:
            self.publish_stats["documents"] += receipt.documents
            self.publish_stats["postings"] += receipt.postings
            self.publish_stats["messages"] += receipt.messages
            self.publish_stats["user_bytes"] += user_bytes

    def unpublish(self, peer, doc_index):
        self._begin("unpublish")
        ok, _ = self._attempt(peer.unpublish, doc_index)
        self._end("unpublish", 1, [], not ok)
        self._corpus_changed = True
        self.publish_stats["withdrawn"] += ok

    def query(self, peer, text, keywords):
        self._begin("query")
        ok, outcome = self._attempt(
            self.system.query_with_report, text, keyword_steps=keywords, peer=peer
        )
        answers, report = outcome if ok else (None, None)
        failed = not ok or not report.complete
        self._end("query", 1, [report.response_time_s] if ok else [], failed)
        if ok:
            self._answered(len(self.ops) - 1, text, keywords, answers, report)

    def serve(self, arrivals):
        """One ``serve`` call is one op per arrival.  Steps from the call's
        start to the second query's executor entry belong to the first
        query; each later query starts where the executor is entered for it."""
        self._begin("serve")
        self.serve_marks = []
        ok, result = self._attempt(self.system.serve, arrivals)
        marks, self.serve_marks = self.serve_marks, None
        served = result.queries if ok else []
        first = len(self.ops)
        self._end("query", len(served), [q.latency_s for q in served], False)
        if self.counter is not None and served and len(marks) == len(served):
            edges = [self._steps0] + marks[1:] + [self.counter.total()]
            for i in range(len(served)):
                self.ops[first + i]["steps"] = edges[i + 1] - edges[i]
        # arrivals the engine raised on, or dropped at admission, are
        # attempted ops that failed
        lost = len(arrivals) - len(served)
        self.attempted += lost
        self.failed += lost
        for i, served_query in enumerate(served):
            if not served_query.report.complete:
                self.ops[first + i]["failed"] = True
                self.failed += 1
            self._answered(
                first + i,
                served_query.query_text,
                tuple(served_query.keyword_steps),
                served_query.answers,
                served_query.report,
            )
        if ok:
            self.serve_stats["served"] += len(served)
            self.serve_stats["queue_wait_s"] += sum(q.queue_wait_s for q in served)
            self.serve_stats["coalesced_hits"] += result.coalesced_hits

    def probe(self, queries):
        """Outside the window: check the index against the corpus as it is
        now.  Probe queries are not ops and nothing about them is measured."""
        self.stop()
        for text, keywords in queries:
            ok, outcome = self._attempt(
                self.system.query_with_report, text, keyword_steps=keywords
            )
            if ok:
                self._answered(None, text, keywords, outcome[0], None)
            else:
                self.attempted += 1
                self.failed += 1
        self.start()

    def _answered(self, op_index, text, keywords, answers, report):
        if self._corpus_changed:
            self.snapshots.append(corpus_snapshot(self.system))
            self._corpus_changed = False
        key = (text, tuple(keywords), len(self.snapshots) - 1)
        self.checks.setdefault(key, []).append(
            (op_index, frozenset(a.bindings for a in answers))
        )
        if report is None:
            return
        stats = self.query_stats
        stats["queries"] += 1
        stats["postings_fetched"] += report.postings_fetched
        stats["blocks_fetched"] += report.blocks_fetched
        stats["blocks_skipped"] += report.blocks_skipped
        stats["candidate_docs"] += report.candidate_docs
        stats["answer_docs"] += len({(a.peer, a.doc) for a in answers})
        stats["filtered"] += report.chosen_strategy not in (None, "baseline")
        stats["view_hits"] += bool(report.view_hit)

    # -- wrappers that only observe -------------------------------------------

    def install_boundaries(self):
        """Mark where the executor is entered for each served query (so a
        serve call splits into per-query ops) and measure inclusive steps
        of document parsing and view maintenance.  The wrappers live in
        this file, so the step counter does not see them."""
        driver = self

        def executor_run(function):
            def wrapper(*args, **kwargs):
                marks = driver.serve_marks
                if driver._executor_depth == 0 and marks is not None:
                    if driver.recorder is not None:
                        driver.recorder.op_id = len(driver.ops) + len(marks)
                    marks.append(
                        driver.counter.total() if driver.counter is not None else 0
                    )
                driver._executor_depth += 1
                try:
                    return function(*args, **kwargs)
                finally:
                    driver._executor_depth -= 1

            wrapper.__wrapped__ = function
            return wrapper

        def inclusive(bucket):
            def factory(function):
                def wrapper(*args, **kwargs):
                    before = driver.counter.total()
                    try:
                        return function(*args, **kwargs)
                    finally:
                        driver.inclusive[bucket] += driver.counter.total() - before

                wrapper.__wrapped__ = function
                return wrapper

            return factory

        patch("repro.kadop.execution:QueryExecutor.run", executor_run)
        if self.counter is not None:
            patch("repro.xmldata.parser:parse_document", inclusive("parse"))
            patch("repro.views.manager:ViewManager.on_publish", inclusive("views"))
            patch("repro.views.manager:ViewManager.on_unpublish", inclusive("views"))

    # -- after the window -------------------------------------------------------

    def verify(self):
        """Check every distinct (query, corpus state) once against the
        oracle; every op that returned another answer set has failed."""
        mismatches = []
        for (text, keywords, state), observed in sorted(
            self.checks.items(), key=lambda item: (item[0][2], item[0][0])
        ):
            pattern = self.system.parse(text, keyword_steps=keywords)
            expected = oracle_answers(self.snapshots[state], pattern)
            for op_index, answers in observed:
                if answers == expected:
                    continue
                mismatches.append(
                    {
                        "query": text,
                        "state": state,
                        "op": op_index,
                        "got": len(answers),
                        "expected": len(expected),
                    }
                )
                if op_index is None:
                    self.attempted += 1
                    self.failed += 1
                elif not self.ops[op_index]["failed"]:
                    self.ops[op_index]["failed"] = True
                    self.failed += 1
        return mismatches

    def digest(self):
        """Hash of every answer and every simulated per-op cost: equal
        digests mean two runs computed the same thing."""
        sha = hashlib.sha256()
        for key in sorted(self.checks):
            sha.update(repr(key).encode())
            for op_index, answers in self.checks[key]:
                sha.update(repr((op_index, sorted(answers))).encode())
        sha.update(repr([op["sim_s"] for op in self.ops]).encode())
        sha.update(repr(sorted(self.totals.items())).encode())
        return sha.hexdigest()


def corpus_snapshot(system):
    """What ``oracle_answers`` reads of a network, frozen at this moment."""
    return types.SimpleNamespace(
        peers=[
            types.SimpleNamespace(
                index=peer.index,
                node=types.SimpleNamespace(alive=peer.node.alive),
                documents=dict(peer.documents),
                functional_docs=set(peer.functional_docs),
            )
            for peer in system.peers
        ]
    )


def stored_bytes(system):
    """Encoded bytes of every posting list held on every peer."""
    from repro.postings.encoder import encoded_size

    return sum(
        encoded_size(node.store.get(term))
        for node in system.net.nodes
        for term in list(node.store.terms())
    )


def live_user_bytes(system):
    return sum(
        doc.source_bytes for peer in system.peers for doc in peer.documents.values()
    )


def run_workload(args):
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    report = {
        "mode": args.mode,
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "kernel_backend": kernels.backend_name(),
    }
    counter = step_counter() if args.mode == "counted" else None
    recorder = SpanRecorder(PACKAGE_DIR) if args.mode == "traced" else None
    driver = Driver(counter=counter, recorder=recorder)
    kernel_sizes = []
    hops = []
    # wrappers go in before set-up builds anything, so that no object can
    # hold an unwrapped reference; they stay inert outside the window
    if recorder is not None:
        recorder.install()
        install_observers(recorder, kernel_sizes, hops)
    driver.install_boundaries()

    setup_counter = None
    if args.mode == "counted" and args.count_setup:
        setup_counter = step_counter()
        setup_counter.start()
    wall0 = time.perf_counter()
    workload.setup()
    report["setup_s"] = time.perf_counter() - wall0
    if setup_counter is not None:
        setup_counter.stop()
        report["setup_pysteps"] = setup_counter.total()
    if args.mode == "setup":
        return report
    driver.system = workload.net

    driver.start()
    workload.run(driver)
    driver.stop()

    report["digest"] = driver.digest()
    mismatches = driver.verify() if args.mode == "plain" else []
    report.update(
        {
            "ops": len(driver.ops),
            "attempted": driver.attempted,
            "failed": driver.failed,
            "errors": driver.errors,
            "mismatches": mismatches[:MAX_ERRORS_KEPT],
            "wall_s": driver.wall_s,
            "cpu_s": driver.cpu_s,
            "peak_rss_mb": driver.peak_rss_kb / 1024.0,
            "totals": driver.totals,
            "op_kinds": [op["kind"] for op in driver.ops],
            "op_phases": [op["phase"] for op in driver.ops],
            "sim_s": [op["sim_s"] for op in driver.ops],
            "cpu_ms": [op["cpu_ms"] for op in driver.ops],
            "query_stats": driver.query_stats,
            "publish_stats": driver.publish_stats,
            "serve_stats": driver.serve_stats,
        }
    )
    if counter is not None:
        report.update(
            {
                "steps_by_layer": counter.by_layer(),
                "steps_total": counter.total(),
                "op_steps": [op["steps"] for op in driver.ops],
                "calls": counter.calls,
                "inclusive_steps": driver.inclusive,
            }
        )
    if recorder is not None:
        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        events = recorder.write_chrome_trace(args.trace_out)
        try:
            validate_trace_file(args.trace_out)
            trace_error = None
        except ValueError as error:
            trace_error = str(error)
        report.update(
            {
                "trace_events": events,
                "trace_error": trace_error,
                "layers": {
                    layer: {"self_ms": self_ns / 1e6, "calls": calls}
                    for layer, (self_ns, calls) in recorder.by_layer().items()
                },
                "spans_missing": recorder.missing,
                "kernel_elems_p50": percentile(kernel_sizes, 0.5) if kernel_sizes else 0,
                "locates": len(hops),
                "hops": sum(hops),
                "stored_bytes": stored_bytes(workload.net),
                "live_user_bytes": live_user_bytes(workload.net),
            }
        )
    return report


def install_observers(recorder, kernel_sizes, hops):
    """Traced run only, inside the window only: input sizes of kernel
    calls, hops of each locate."""
    backend = kernels.active()

    def kernel(name, function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            if recorder.enabled:
                kernel_sizes.append(kernel_input_size(name, args, result))
            return result

        wrapper.__wrapped__ = function
        return wrapper

    for name, function in list(vars(backend).items()):
        if (
            not name.startswith("_")
            and isinstance(function, types.FunctionType)
            and function.__module__ == backend.__name__
        ):
            setattr(backend, name, kernel(name, function))

    def locate(function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            if recorder.enabled:
                hops.append(result[1].hops)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    patch("repro.dht.network:DhtNetwork.locate", locate)


def run_tracer_slice(args):
    """Steps of the first queries of ``query_docphase`` with the program's
    own tracer off and on; answers and simulated fields must not differ."""
    workload = WORKLOADS["query_docphase"](args.seed, args.scale)
    workload.setup()
    system = workload.net
    queries = workload.queries[:TRACER_SLICE]
    outcomes = []
    for tracing in (False, True):
        if tracing:
            system.enable_tracing()
        counter = step_counter()
        seen = []
        counter.start()
        for i, (text, keywords) in enumerate(queries):
            answers, report = system.query_with_report(
                text, keyword_steps=keywords, peer=system.peers[i % len(system.peers)]
            )
            seen.append((answers, report))
        counter.stop()
        if tracing:
            system.disable_tracing()
        outcomes.append(
            {
                "steps": counter.total(),
                "obs_steps": counter.by_layer()["obs"],
                "signature": repr(
                    [
                        (
                            sorted(a.bindings for a in answers),
                            report.response_time_s,
                            report.index_time_s,
                            report.doc_time_s,
                            sorted(report.traffic.items()),
                            report.postings_fetched,
                        )
                        for answers, report in seen
                    ]
                ),
            }
        )
    off, on = outcomes
    return {
        "mode": "tracer_on",
        "seed": args.seed,
        "scale": args.scale,
        "queries": len(queries),
        "steps_off": off["steps"],
        "steps_on": on["steps"],
        "obs_steps_off": off["obs_steps"],
        "identical": off["signature"] == on["signature"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--mode", required=True,
        choices=("plain", "counted", "traced", "setup", "tracer_on"),
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="query_docphase")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--count-setup", action="store_true")
    parser.add_argument("--trace-out", default=os.path.join(ROOT, ".bench_out", "trace.json"))
    args = parser.parse_args(argv)
    report = run_tracer_slice(args) if args.mode == "tracer_on" else run_workload(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
