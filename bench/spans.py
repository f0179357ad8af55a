"""Boundary spans recorded from outside the program.

In the traced run only, the public entry points of each layer are replaced
at run time by wrappers that record a span ``{name, layer, start, end,
parent, op_id}``.  Spans are held in memory and written when the run ends
as a Chrome trace-event file that ``repro.obs.validate_trace_file``
accepts.  A span's self time is its duration minus the part its child
spans cover; on one thread children never overlap, so that is the sum of
their durations.
"""

import importlib
import inspect
import json
import sys
import time

from bench.layers import OTHER, layer_of

#: ``module:function`` or ``module:Class.method``; a span's layer is the
#: layer of the file that defines the target
ENTRY_POINTS = (
    "repro.xmldata.parser:parse_document",
    "repro.index.publisher:extract_postings",
    "repro.index.publisher:Publisher.publish",
    "repro.index.publisher:Publisher.publish_many",
    "repro.index.dpp:DppIndex.append",
    "repro.index.dpp:DppIndex.delete",
    "repro.index.dpp:DppIndex.fetch_block",
    "repro.dht.network:DhtNetwork.locate",
    "repro.dht.network:DhtNetwork.append",
    "repro.dht.network:DhtNetwork.append_batch",
    "repro.dht.network:DhtNetwork.get",
    "repro.dht.network:DhtNetwork.pipelined_get",
    "repro.dht.network:DhtNetwork.block_get",
    "repro.dht.network:DhtNetwork.delete",
    "repro.storage.clustered:ClusteredIndexStore.append",
    "repro.storage.clustered:ClusteredIndexStore.get",
    "repro.storage.clustered:ClusteredIndexStore.get_range",
    "repro.storage.clustered:ClusteredIndexStore.delete",
    "repro.storage.lsm:LsmStore.append",
    "repro.storage.lsm:LsmStore.get",
    "repro.storage.lsm:LsmStore.get_range",
    "repro.storage.lsm:LsmStore.delete",
    "repro.storage.lsm:LsmStore.maybe_compact",
    "repro.postings.encoder:encode_postings",
    "repro.postings.encoder:decode_postings",
    "repro.postings.encoder:encoded_size",
    "repro.bloom.reducers:BloomReducers.fetch_reduced",
    "repro.kadop.optimizer:StrategyOptimizer.choose",
    "repro.query.xpath:parse_query",
    "repro.query.twigjoin:twig_join",
    "repro.query.block_join:demand_driven_block_join",
    "repro.query.matcher:match_document",
    "repro.kadop.peer:KadopPeer.evaluate",
    "repro.sim.tasks:Scheduler.run",
    "repro.views.manager:ViewManager.pre_query",
    "repro.views.manager:ViewManager.on_publish",
    "repro.views.manager:ViewManager.on_unpublish",
    "repro.balance.balancer:LoadBalancer.maybe_tick",
    "repro.kadop.serving:ServingEngine.run",
    "repro.kadop.execution:QueryExecutor.run",
)


def resolve(spec):
    """``(owner, attribute name, function)`` for an entry-point spec, or
    None when a refactor has removed the target."""
    module_name, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = vars(owner).get(parts[-1])
    if not callable(target):
        return None
    return owner, parts[-1], target


def replace_function(owner, name, original, replacement):
    """Rebind ``owner.name`` and, for a module-level function, every
    ``from module import name`` copy held by an imported ``repro`` module."""
    setattr(owner, name, replacement)
    if isinstance(owner, type):
        return
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def patch(spec, factory):
    """Replace the entry point ``spec`` by ``factory(current function)``;
    False when the target no longer exists."""
    resolved = resolve(spec)
    if resolved is None:
        return False
    owner, name, function = resolved
    replace_function(owner, name, function, factory(function))
    return True


class SpanRecorder:
    """In-memory spans in start order, with the open-span stack."""

    def __init__(self, package_dir):
        self._package_dir = package_dir
        self.names = []  # span name id -> (name, layer)
        self.spans = []  # (name id, start ns, end ns, parent index, op id)
        self.stack = []
        self.op_id = -1
        self.enabled = False  # spans are recorded inside the window only
        self.missing = []  # entry points that no longer resolve
        self._root_names = {}  # op kind -> span name id
        self._clock = time.perf_counter_ns

    def install(self, specs=ENTRY_POINTS):
        for spec in specs:
            name = spec.partition(":")[2]
            if not patch(spec, lambda function: self.wrap(function, name)):
                self.missing.append(spec)

    def wrap(self, function, name):
        """A wrapper of ``function`` that records one span per call."""
        code = inspect.unwrap(function).__code__
        layer = layer_of(code.co_filename, self._package_dir) or OTHER
        name_id = len(self.names)
        self.names.append((name, layer))
        spans, stack, clock = self.spans, self.stack, self._clock

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op_id = self.op_id
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, op_id)

        wrapper.__wrapped__ = function
        return wrapper

    # -- op roots: one span per op (or per serve call), layer ``other`` -----

    def begin_op(self, kind, op_id):
        self.op_id = op_id
        name_id = self._root_names.get(kind)
        if name_id is None:
            name_id = self._root_names[kind] = len(self.names)
            self.names.append(("op:" + kind, OTHER))
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        self._open_root = (index, name_id, self._clock(), op_id)

    def end_op(self):
        end = self._clock()
        index, name_id, start, op_id = self._open_root
        self.stack.pop()
        self.spans[index] = (name_id, start, end, -1, op_id)

    # -- results -------------------------------------------------------------

    def by_layer(self):
        """``{layer: (self ns, calls)}``; op roots add self time only."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {}
        for index, (name_id, start, end, parent, _) in enumerate(self.spans):
            name, layer = self.names[name_id]
            self_ns, calls = totals.get(layer, (0, 0))
            totals[layer] = (
                self_ns + max(0, end - start - child_ns[index]),
                calls + (0 if name.startswith("op:") else 1),
            )
        return totals

    def write_chrome_trace(self, path):
        """Write the spans as complete events; returns the event count."""
        origin = self.spans[0][1] if self.spans else 0
        events = []
        for index, (name_id, start, end, parent, op_id) in enumerate(self.spans):
            name, layer = self.names[name_id]
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (start - origin) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": index, "parent": parent, "op_id": op_id},
                }
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)
