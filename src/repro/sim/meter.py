"""Byte-accurate traffic accounting.

Section 4.3 of the paper reports total traffic for a query workload and
Section 5.4 reports per-strategy *normalized data volume*; both require the
system to know exactly how many bytes every operation put on the wire.
Every message sent through :mod:`repro.net` records its payload here.

The meter is one of the two primary run-time sources (the other is the
span tree of :class:`repro.obs.Tracer`): traffic figures in reports,
experiments and EXPLAIN are read from it or from deltas of its snapshots,
never from a mirrored copy.
"""

from collections import Counter
from itertools import repeat
from operator import sub


def _negative(nbytes):
    """Reject a negative count: :meth:`TrafficMeter.record` tests the sign
    on the line that adds, before anything is stored."""
    raise ValueError("cannot record negative byte count %r" % (nbytes,))


class TrafficMeter:
    """Accumulates bytes sent over the (simulated) network, by category.

    Categories used by the system:

    ``postings``   posting-list payloads (index construction and retrieval)
    ``filters``    Structural Bloom Filters (Section 5)
    ``control``    DHT control traffic: routing envelopes, DPP root blocks,
                   condition lists, acknowledgements
    ``documents``  final query answers shipped from document peers
    ``views``      materialized-view answer blocks (query-time fetches and
                   incremental maintenance deltas; :mod:`repro.views`)
    """

    def __init__(self):
        self._by_category = Counter()
        self._messages = Counter()

    def record(self, category, nbytes):
        """Record a message of ``nbytes`` payload in ``category``."""
        self._by_category[category] += nbytes if nbytes >= 0 else _negative(nbytes)
        self._messages[category] += 1

    def bytes(self, category=None):
        """Total bytes recorded, overall or for one category."""
        if category is None:
            return sum(self._by_category.values())
        return self._by_category[category]

    def messages(self, category=None):
        """Number of messages recorded, overall or for one category."""
        if category is None:
            return sum(self._messages.values())
        return self._messages[category]

    def snapshot(self):
        """A dict copy of per-category byte counts."""
        return dict(self._by_category)

    def delta_since(self, snapshot):
        """Per-category bytes recorded since ``snapshot`` was taken."""
        current = dict(self._by_category)
        keys = set(current) | set(snapshot)
        now, then = map(current.get, keys, repeat(0)), map(snapshot.get, keys, repeat(0))
        return dict(zip(keys, map(sub, now, then)))

    def __repr__(self):
        parts = ", ".join(
            "%s=%d" % (cat, n) for cat, n in sorted(self._by_category.items())
        )
        return "TrafficMeter(%s)" % parts
