"""A log-structured per-peer store: memtable + sorted immutable runs.

The third storage backend next to the clustered B+-tree and the PAST-style
gzip store, modelled on the write path of LSM engines (and of the
WebContent XML Store's batched repository): an ``append`` lands in an
in-memory *memtable* and is charged only a sequential log write of the
batch's encoded bytes — no page reads, no in-place rewrites.  When the
memtable exceeds its capacity it is *flushed*: every term's buffered
postings are frozen into a sorted immutable *run* on the standard
delta-varint posting codec.  Reads reconstruct a term by merging its
fragments across the memtable and every run, newest layer winning —
which is the classic LSM trade: the cheapest possible ingest against
read amplification proportional to the number of runs.

The memtable keeps each term's buffered postings as a ``set`` of
``(peer, doc, start, end, level)`` tuples, like the live key sets: an
append is a handful of C set operations over the batch, so is a delete of
a run, and a term's rows are sorted when a flush freezes them or
a read merges them, the sorted list kept until the term's next write.

Deletes are *tombstones*: a deleted posting records its key, a
whole-term delete records a drop marker; both are cheap blind writes.
Background *compaction* folds adjacent runs together (oldest first),
re-merging fragments and garbage-collecting tombstones once they reach
the bottom of the tree — after which a term's postings are contiguous
again and reads touch few runs.  Compaction ticks ride the serving clock
(:meth:`maybe_compact`), exactly like the load balancer's rebalance
passes, and is also applied inline when a flush leaves too many runs
(the stall real engines apply for the same reason).

Logical content is layer-order independent of physical layout: ``get``
returns the identical sorted duplicate-free :class:`PostingList` the
other backends return, so query answers are byte-identical across
backends (the differential suite in ``tests/test_write_path.py``).
"""

from repro.postings.encoder import decode_postings, encode_postings, encoded_size
from repro.postings.plist import PostingList
from repro.storage.api import EMPTY_SUMMARY, Store, digest

#: log-record bytes charged per tombstone (posting key or drop marker)
TOMBSTONE_BYTES = 16

#: memtable capacity, in buffered postings, before an automatic flush
DEFAULT_MEMTABLE_POSTINGS = 4096

#: flush-time bound on the number of runs before inline compaction
DEFAULT_MAX_RUNS = 8

#: simulated seconds between background compaction ticks on the serving
#: clock (one fold per tick, so serving pays small, bounded stalls)
DEFAULT_COMPACT_INTERVAL_S = 0.05


class _Run:
    """One sorted immutable run: per-term encoded postings + tombstones."""

    __slots__ = ("data", "counts", "dead", "dropped", "nbytes")

    def __init__(self, data, counts, dead, dropped):
        self.data = data  # term -> encoded postings blob
        self.counts = counts  # term -> postings in the blob
        self.dead = dead  # term -> set of posting keys to kill below
        self.dropped = dropped  # terms whose older fragments are dead
        self.nbytes = sum(len(blob) for blob in data.values()) + (
            TOMBSTONE_BYTES
            * (sum(len(keys) for keys in dead.values()) + len(dropped))
        )

    def terms(self):
        seen = set(self.data)
        seen.update(self.dead)
        seen.update(self.dropped)
        return seen


class LsmStore(Store):
    """Log-structured term → posting-list store (memtable + runs)."""

    def __init__(
        self,
        memtable_postings=DEFAULT_MEMTABLE_POSTINGS,
        max_runs=DEFAULT_MAX_RUNS,
        compact_interval_s=DEFAULT_COMPACT_INTERVAL_S,
    ):
        super().__init__()
        if memtable_postings < 1:
            raise ValueError("memtable_postings must be >= 1")
        if max_runs < 1:
            raise ValueError("max_runs must be >= 1")
        self._memtable_postings = memtable_postings
        self._max_runs = max_runs
        self._compact_interval_s = compact_interval_s
        self._mem = {}  # term -> set of posting tuples (this epoch's additions)
        self._mem_sorted = {}  # term -> _mem[term] as a list, until its next write
        self._mem_dead = {}  # term -> set of posting keys deleted this epoch
        self._mem_dropped = set()  # whole-term deletes this epoch
        self._mem_entries = 0  # buffered postings (flush trigger)
        self._runs = []  # _Run, oldest first
        # authoritative live key set / counts (simulation metadata, like
        # the other backends' _counts; the physical layers must reconstruct
        # exactly this — check_invariants and the property suite assert it)
        self._keys = {}  # term -> set of posting tuples
        self._last_compact_s = None
        self.compactions = 0  # folds performed (stats surface)

    # -- write path ------------------------------------------------------------

    def append(self, term, postings):
        """Memtable insert: one sequential log write of the batch.

        Set algebra on the batch's rows: a re-added key cancels this
        epoch's tombstone, and only keys not already live enter the
        memtable.  An empty batch registers no term."""
        plist = PostingList.of(postings)
        rows = set(zip(*plist.arrays()))
        dead = self._mem_dead.get(term)
        if dead:
            dead -= rows
        live = self._keys.get(term)
        if live:
            rows -= live
        if rows:
            self._keys.setdefault(term, set()).update(rows)
            self._mem.setdefault(term, set()).update(rows)
            self._mem_sorted.pop(term, None)
            self._mem_entries += len(rows)
            if term in self._summaries:
                self._fold_summary(term, len(rows), rows, 1)
        self.stats.num_ops += 1
        self.stats.bytes_written += encoded_size(plist)
        if self._mem_entries >= self._memtable_postings:
            self.flush()
        return len(rows)

    def delete(self, term, postings=None):
        """Blind tombstone write (plus the metadata presence check): one
        tombstone per live posting of the run, found by one set
        difference."""
        live = self._keys.get(term)
        if postings is None:
            if not live:
                return False
            self._keys.pop(term, None)
            buffered = self._mem.pop(term, None)
            self._mem_sorted.pop(term, None)
            if buffered is not None:
                self._mem_entries -= len(buffered)
            self._mem_dead.pop(term, None)
            self._mem_dropped.add(term)
            if term in self._summaries:
                self._summaries[term] = EMPTY_SUMMARY
            self.stats.num_ops += 1
            self.stats.bytes_written += TOMBSTONE_BYTES
            return True
        if not live:
            return 0
        gone = live.intersection(zip(*PostingList.of(postings).arrays()))
        if not gone:
            return 0
        live -= gone
        if not live:
            del self._keys[term]
        mem = self._mem.get(term)
        if mem is not None and not mem.isdisjoint(gone):
            buffered = len(mem)
            mem -= gone
            self._mem_sorted.pop(term, None)
            self._mem_entries -= buffered - len(mem)
            if not mem:
                del self._mem[term]
        self._mem_dead.setdefault(term, set()).update(gone)
        if term in self._summaries:
            self._fold_summary(term, len(gone), gone, -1)
        self.stats.num_ops += len(gone)
        self.stats.bytes_written += TOMBSTONE_BYTES * len(gone)
        return len(gone)

    def flush(self):
        """Freeze the memtable into a new immutable run."""
        if not self._mem and not self._mem_dead and not self._mem_dropped:
            return False
        data = {}
        counts = {}
        for term in self._mem:
            plist = self._mem_list(term)
            blob = encode_postings(plist)
            data[term] = blob
            counts[term] = len(plist)
            self.stats.bytes_written += len(blob)
        dead = {
            term: set(keys) for term, keys in self._mem_dead.items() if keys
        }
        dropped = set(self._mem_dropped)
        self.stats.bytes_written += TOMBSTONE_BYTES * (
            sum(len(keys) for keys in dead.values()) + len(dropped)
        )
        self.stats.num_ops += 1
        self._runs.append(_Run(data, counts, dead, dropped))
        self._mem = {}
        self._mem_sorted = {}
        self._mem_dead = {}
        self._mem_dropped = set()
        self._mem_entries = 0
        while len(self._runs) > self._max_runs:
            self._compact_once()
        return True

    def _mem_list(self, term):
        """A term's memtable rows as a :class:`PostingList`: sorted once,
        then kept until the term's next write."""
        plist = self._mem_sorted.get(term)
        if plist is None:
            plist = self._mem_sorted[term] = PostingList.from_sorted(sorted(self._mem[term]))
        return plist

    # -- compaction ------------------------------------------------------------

    def _compact_once(self):
        """Fold the two oldest runs into one (tombstones GC at the bottom)."""
        if len(self._runs) < 2:
            return False
        older, newer = self._runs[0], self._runs[1]
        self.stats.bytes_read += older.nbytes + newer.nbytes
        merged_data = {}
        merged_counts = {}
        merged_dead = {}
        merged_dropped = set()
        for term in older.terms() | newer.terms():
            base = PostingList()
            if term in older.data:
                base, _ = decode_postings(older.data[term])
            if term in newer.dropped:
                base = PostingList()
            else:
                kill = newer.dead.get(term)
                if kill:
                    base = base.without(kill)
            if term in newer.data:
                addition, _ = decode_postings(newer.data[term])
                base = PostingList.concat((base, addition))
            if len(base):
                merged_data[term] = encode_postings(base)
                merged_counts[term] = len(base)
            # tombstones survive the fold only while older runs remain
            # below them; at the bottom of the tree they are garbage
            if term in older.dropped or term in newer.dropped:
                merged_dropped.add(term)
            keep_dead = older.dead.get(term, set()) | newer.dead.get(
                term, set()
            )
            if keep_dead:
                merged_dead[term] = set(keep_dead)
        bottom = self._runs[0] is older and len(self._runs) >= 2
        if bottom:
            merged_dead = {}
            merged_dropped = set()
        run = _Run(merged_data, merged_counts, merged_dead, merged_dropped)
        self.stats.bytes_written += run.nbytes
        self.stats.num_ops += 1
        self._runs[0:2] = [run]
        self.compactions += 1
        return True

    def compact_tick(self):
        """One background compaction step; returns True if a fold ran."""
        if len(self._runs) < 2:
            return False
        return self._compact_once()

    def maybe_compact(self, now_s):
        """Serving-clock hook: fold at most one pair per interval."""
        if self._compact_interval_s is None:
            return False
        if (
            self._last_compact_s is not None
            and now_s - self._last_compact_s < self._compact_interval_s
        ):
            return False
        self._last_compact_s = now_s
        return self.compact_tick()

    # -- read path -------------------------------------------------------------

    def _reconstruct(self, term, charge=True):
        """Merge a term's fragments across runs + memtable, oldest first."""
        acc = PostingList()
        probed = 0
        for run in self._runs:
            touched = False
            if term in run.dropped:
                acc = PostingList()
                touched = True
            else:
                kill = run.dead.get(term)
                if kill:
                    acc = acc.without(kill)
                    touched = True
            blob = run.data.get(term)
            if blob is not None:
                fragment, _ = decode_postings(blob)
                acc = PostingList.concat((acc, fragment))
                if charge:
                    self.stats.bytes_read += len(blob)
                touched = True
            probed += touched
        if term in self._mem_dropped:
            acc = PostingList()
        kill = self._mem_dead.get(term)
        if kill:
            acc = acc.without(kill)
        if term in self._mem:
            acc = PostingList.concat((acc, self._mem_list(term)))
        if charge:
            self.stats.num_ops += 1 + probed
        return acc

    def get(self, term):
        return self._reconstruct(term)

    def _summarise(self, term):
        keys = self._keys.get(term, ())
        return len(keys), digest(keys)

    def get_range(self, term, lo, hi):
        """Range read: the runs hold whole-term blobs, so the fragments are
        read in full and the range is cut after the merge (the honest LSM
        read-amplification story, vs. the B+-tree's page-ranged scan)."""
        return self._reconstruct(term).range(lo, hi)

    def terms(self):
        return iter(sorted(self._keys))

    def count(self, term):
        return len(self._keys.get(term, ()))

    def total_postings(self):
        return sum(len(keys) for keys in self._keys.values())

    # -- introspection ---------------------------------------------------------

    @property
    def num_runs(self):
        return len(self._runs)

    @property
    def memtable_entries(self):
        return self._mem_entries

    def stored_bytes(self):
        """Encoded bytes currently frozen in runs (store footprint)."""
        return sum(run.nbytes for run in self._runs)

    def check_invariants(self):
        """Physical layers must reconstruct the authoritative key sets."""
        for term in set(self._keys) | set(self._mem) | {
            t for run in self._runs for t in run.terms()
        }:
            rebuilt = {tuple(p) for p in self._reconstruct(term, charge=False)}
            assert rebuilt == self._keys.get(term, set()), (
                "LSM layers disagree with live keys for %r: %d rebuilt vs"
                " %d live" % (term, len(rebuilt), len(self._keys.get(term, ())))
            )
        for term, rows in self._mem.items():
            assert rows, "empty memtable entry for %r" % (term,)
            assert rows <= self._keys.get(term, set()), (
                "memtable rows of %r are not live keys" % (term,)
            )
            assert not rows & self._mem_dead.get(term, set()), (
                "memtable rows of %r are tombstoned this epoch" % (term,)
            )
        for term, plist in self._mem_sorted.items():
            assert list(zip(*plist.arrays())) == sorted(self._mem[term]), (
                "stale sorted memtable of %r" % (term,)
            )
        assert all(self._keys.values()), "a term is listed with no postings"
        assert self._mem_entries == sum(len(m) for m in self._mem.values())
        self._check_summaries()
