"""Which layer a piece of code belongs to.

Layers are the ``src/repro`` subpackages; ``query`` and ``kadop`` are split
by module because the modules inside them do unrelated work.  Everything
else the interpreter executes on the program's behalf (``repro.faults``,
``repro.workloads``, the standard library, numpy's Python shims) is
``other``.  The benchmark's own files belong to no layer and are never
counted.
"""

import os

PACKAGE_LAYERS = (
    "xmldata",
    "index",
    "dht",
    "storage",
    "postings",
    "bloom",
    "sim",
    "views",
    "balance",
    "obs",
    "util",
)
MODULE_LAYERS = (
    "query.twigjoin",
    "query.block_join",
    "query.matcher",
    "query.xpath",
    "kadop.execution",
    "kadop.serving",
    "kadop.optimizer",
)
OTHER = "other"
LAYERS = PACKAGE_LAYERS + MODULE_LAYERS + (OTHER,)
LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def repro_relpath(filename, package_dir):
    """``filename`` relative to the ``repro`` package, or None outside it."""
    if filename.startswith(package_dir + os.sep):
        return filename[len(package_dir) + 1 :].replace(os.sep, "/")
    return None


def layer_of(filename, package_dir):
    """Layer name for a source file; None for the benchmark's own files."""
    if filename.startswith(BENCH_DIR + os.sep):
        return None
    rel = repro_relpath(filename, package_dir)
    if rel is None or "/" not in rel:
        return OTHER
    package, rest = rel.split("/", 1)
    if package in PACKAGE_LAYERS:
        return package
    dotted = "%s.%s" % (package, rest[:-3] if rest.endswith(".py") else rest)
    return dotted if dotted in MODULE_LAYERS else OTHER
