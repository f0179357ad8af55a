"""The local store interface and its I/O accounting.

A store maps string *terms* to ordered posting lists.  Implementations
track their (simulated) disk I/O in a :class:`StoreStats` so the publishing
and query cost models can charge realistic times: the naive store's
read-modify-write pattern shows up directly as quadratic ``bytes_read``.

Each store also answers a :meth:`Store.summary` of a term's list, the
``(count, digest)`` pair replica repair compares before it reads a copy
(:func:`repro.dht.replicas.reconcile`).  Summaries are host-side
bookkeeping, like the DHT's write stamps: no :class:`StoreStats` charge,
no wire bytes.
"""

import abc

_MASK64 = (1 << 64) - 1

#: the summary of a term the store does not hold
EMPTY_SUMMARY = (0, 0)


def digest(rows):
    """The order-independent 64-bit digest of ``(peer, doc, start, end,
    level)`` rows: the sum mod 2^64 of each row's ``hash()``.  The hash of
    a tuple of ints depends on the ints alone (``PYTHONHASHSEED`` seeds
    only str and bytes hashes), so every process digests a set alike."""
    return sum(map(hash, rows)) & _MASK64


def summarise(plist):
    """The ``(count, digest)`` summary of a :class:`PostingList`."""
    return len(plist), digest(zip(*plist.arrays()))


class StoreStats:
    """Cumulative I/O counters for one store instance."""

    __slots__ = ("bytes_read", "bytes_written", "num_ops")

    def __init__(self):
        self.bytes_read = 0
        self.bytes_written = 0
        self.num_ops = 0

    def snapshot(self):
        return (self.bytes_read, self.bytes_written, self.num_ops)

    def delta_since(self, snap):
        return StoreStatsDelta(
            self.bytes_read - snap[0],
            self.bytes_written - snap[1],
            self.num_ops - snap[2],
        )

    def __repr__(self):
        return "StoreStats(read=%d, written=%d, ops=%d)" % (
            self.bytes_read,
            self.bytes_written,
            self.num_ops,
        )


class StoreStatsDelta:
    """Difference between two :class:`StoreStats` snapshots."""

    __slots__ = ("bytes_read", "bytes_written", "num_ops")

    def __init__(self, bytes_read, bytes_written, num_ops):
        self.bytes_read = bytes_read
        self.bytes_written = bytes_written
        self.num_ops = num_ops

    def cost_seconds(self, cost_model):
        """Convert this I/O delta to simulated seconds."""
        return cost_model.store_time(self.bytes_read, self.bytes_written, self.num_ops)


class Store(abc.ABC):
    """Abstract term → posting-list store."""

    def __init__(self):
        self.stats = StoreStats()
        # term -> (count, digest) of its list, for the terms asked about
        # once; every write to such a term keeps its entry exact
        self._summaries = {}

    def summary(self, term):
        """``(count, digest)`` of ``term``'s list (:func:`summarise`):
        two lists with equal summaries hold the same postings, barring a
        64-bit digest collision.

        The first ask counts it (:meth:`_summarise`); from then on every
        write to ``term`` keeps the entry current, so a later ask reads
        nothing.  A write to a term never asked about pays one dict
        membership test."""
        summary = self._summaries.get(term)
        if summary is None:
            summary = self._summaries[term] = self._summarise(term)
        return summary

    def _summarise(self, term):
        """``term``'s summary counted afresh, with no :class:`StoreStats`
        charge: here by :meth:`get`, its charge taken back.  A store that
        can digest its layout directly overrides this."""
        stats = self.stats
        charged = stats.snapshot()
        summary = summarise(self.get(term))
        stats.bytes_read, stats.bytes_written, stats.num_ops = charged
        return summary

    def _check_summaries(self):
        """Every summary kept equals its recount (for ``check_invariants``)."""
        for term, summary in self._summaries.items():
            assert summary == self._summarise(term), "stale summary of %r" % (term,)

    def _fold_summary(self, term, count, rows, sign):
        """Add (``sign`` 1) or take away (-1) the ``count`` distinct
        ``rows`` in ``term``'s summary, which the caller found held."""
        held, total = self._summaries[term]
        self._summaries[term] = (held + sign * count, (total + sign * digest(rows)) & _MASK64)

    @abc.abstractmethod
    def append(self, term, postings):
        """Make ``term``'s list the union of its postings and ``postings``:
        the one write.  What it costs is the backend's: the clustered and
        LSM stores add the postings without reading the list (the paper's
        ``append``), the PAST-style store reads, reconciles and rewrites
        it (the paper's ``put``)."""

    @abc.abstractmethod
    def get(self, term):
        """Return the :class:`~repro.postings.PostingList` of ``term``
        (empty list if absent): sorted, duplicate-free columns, read off
        the layout without building a :class:`Posting` per entry."""

    def get_range(self, term, lo, hi):
        """The postings of ``term`` within ``[lo, hi]`` (inclusive), under
        the contract of :meth:`get`.  A store that can read just that
        range off its layout overrides this."""
        return self.get(term).range(lo, hi)

    @abc.abstractmethod
    def delete(self, term, postings=None):
        """Remove the run ``postings`` from ``term``, or the whole term if
        ``postings`` is None.

        The run is anything :meth:`PostingList.of
        <repro.postings.plist.PostingList.of>` takes, so one posting is a
        one-element run.  Postings the term does not hold are skipped, and
        a term left empty leaves :meth:`terms`.  Returns the number of
        postings removed (for a whole term: whether it was there).  The
        :class:`StoreStats` charge is exactly that of deleting the run's
        postings one at a time, in order."""

    @abc.abstractmethod
    def terms(self):
        """Iterate the stored terms in lexicographic order."""

    @abc.abstractmethod
    def count(self, term):
        """Number of postings stored for ``term`` (0 if absent)."""

    def __contains__(self, term):
        return self.count(term) > 0
