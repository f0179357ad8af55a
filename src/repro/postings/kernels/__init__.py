"""Pluggable kernel backends for the columnar posting hot paths.

The struct-of-arrays rewrite (PR 1) left every hot kernel — the
ordered union, the delta-varint codec, batch bisect probes, the twig join's
semi-join and expansion, and the Structural Bloom Filter bit operations —
as a Python-level loop over ``array('q')`` columns.  This package moves those
loops behind one small backend interface with two implementations:

* :mod:`repro.postings.kernels.pure` — the original loop kernels,
  dependency-free and always available;
* :mod:`repro.postings.kernels.numpy_backend` — the same kernels as
  numpy batch operations, byte-identical by construction (every edge the
  vector code cannot reproduce exactly falls back to the pure kernel).

Backends operate on raw column tuples and byte strings, never on
``PostingList`` objects, so posting lists keep their API and exact wire
bytes regardless of the backend — the existing differential suites double
as backend-equivalence oracles.

Selection is per process: the ``REPRO_KERNELS`` environment variable
(``pure`` / ``numpy`` / ``auto``, the default: numpy when importable, else
pure) picks the backend on first use, and :func:`use_backend` switches it.
Building a network never changes it.
"""

import os

from repro.postings.kernels import pure as _pure

_BACKENDS = {"pure": _pure}
_NUMPY_ERROR = None
try:
    from repro.postings.kernels import numpy_backend as _numpy_backend

    _BACKENDS["numpy"] = _numpy_backend
except ImportError as exc:  # pragma: no cover - depends on environment
    _NUMPY_ERROR = exc

_active = None


def numpy_available():
    """True when the numpy backend imported successfully."""
    return "numpy" in _BACKENDS


def resolve(name):
    """The backend module for ``name`` (``auto``/``pure``/``numpy``)."""
    if name in (None, "auto"):
        return _BACKENDS.get("numpy", _pure)
    backend = _BACKENDS.get(name)
    if backend is not None:
        return backend
    if name == "numpy":
        raise RuntimeError(
            "kernel backend 'numpy' requested but numpy is not importable"
            " (%s)" % (_NUMPY_ERROR,)
        )
    raise ValueError(
        "unknown kernel backend %r (expected 'auto', 'pure', or 'numpy')"
        % (name,)
    )


def use_backend(name):
    """Activate a backend by name; returns the previous backend's name."""
    global _active
    previous = backend_name()
    _active = resolve(name)
    return previous


def active():
    """The active backend module (resolving ``auto`` on first use)."""
    global _active
    if _active is None:
        _active = resolve(os.environ.get("REPRO_KERNELS") or "auto")
    return _active


def backend_name():
    """Name of the active backend: ``"pure"`` or ``"numpy"``."""
    return active().NAME
