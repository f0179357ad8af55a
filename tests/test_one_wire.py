"""One wire: every message between peers is sent, priced, scheduled and
faulted by ``DhtNetwork`` (DESIGN.md "Fault model").

A layer above the DHT sends a message with ``DhtNetwork.ship`` and
schedules parallel transfers with ``DhtNetwork.transfers``; neither prices
bytes with ``CostModel.transfer_time`` nor builds a ``Scheduler`` of its
own.  These tests walk the syntax tree of ``src/repro``, so a new second
path fails here rather than running unfaulted.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: the packages that own pricing: the DHT and the simulator
PRICING = ("dht/", "sim/")

#: latency-only estimates that put nothing on the meter, each with a
#: comment saying why; ``(path, enclosing function)``
ESTIMATES = (
    ("bloom/reducers.py", "BloomReducers._ship_to_query_peer"),
    ("fundex/index.py", "FundexIndex._matching_fids"),
    ("fundex/index.py", "FundexIndex._rev_occurrences"),
)

#: the one timeline besides the builder: concurrent serving
SCHEDULERS = (("kadop/serving.py", "ServingEngine.run"),)


class _Names(ast.NodeVisitor):
    """Every identifier of one module with the function it sits in."""

    def __init__(self, path):
        self.path = path
        self.scope = []
        self.calls = []  # (called name, path, enclosing qualname)
        self.names = set()

    def _scoped(self, node):
        self.names.add(node.name)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Call(self, node):
        func = node.func
        called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        self.calls.append((called, self.path, ".".join(self.scope)))
        self.generic_visit(node)


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        visitor = _Names(path.relative_to(SRC).as_posix())
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        yield visitor


def _calls_of(name):
    return [site for module in _modules() for site in module.calls if site[0] == name]


def test_only_the_dht_the_simulator_and_three_estimates_price_bytes():
    sites = [
        (path, scope)
        for _, path, scope in _calls_of("transfer_time")
        if not path.startswith(PRICING)
    ]
    assert sorted(sites) == sorted(ESTIMATES)


def test_only_the_builder_and_the_serving_engine_build_schedulers():
    sites = [(path, scope) for _, path, scope in _calls_of("Scheduler")]
    assert sites == list(SCHEDULERS)
    builders = [m for m in _modules() if "Transfers" in m.names and "Scheduler" in m.names]
    assert [m.path for m in builders] == ["dht/network.py"]


def test_charge_route_is_gone():
    assert [m.path for m in _modules() if "charge_route" in m.names] == []
