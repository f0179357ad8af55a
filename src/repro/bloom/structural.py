"""Ancestor and Descendant Structural Bloom Filters (Sections 5.1, 5.2).

Both filters encode *traces* of one posting list so that another peer can
discard postings of a different list that cannot join structurally.  Both
are one-sided: a posting that does join always passes; a posting that does
not may pass with small probability.

**Ancestor filter** ``ABF(a)``: encodes the dyadic covers ``D(L_a)``.  A
``b`` posting passes if every interval of its own cover ``D(e_b)`` has a
dyadic container present in the filter (Theorem 1).  Intervals at level
``j`` are inserted with ``ψ(j) = ceil(1 + j/c)`` replica *traces* and a
look-up at level ``j`` is the conjunction of the ``ψ(j)`` trace look-ups —
wide (high-level) intervals are the damaging ones, so they get more traces.

**Descendant filter** ``DBF(b)``: the paper's Theorem 2 states
``e_a ∈ a[//b]  iff  D(e_a) ∩ Dc(L_b) ≠ ∅``, but with ``Dc`` taken over the
full interval ``[start_b, end_b]`` this direction admits false *negatives*
(a descendant's smallest dyadic container can overrun an ancestor's cover
pieces, e.g. e_b = [4,5] inside e_a = [2,7]).  We therefore realize the
filter with the start-point formulation the paper itself introduces for
the AB filter ("the condition start_a < start_b < end_a is sufficient"):
``DBF(b)`` stores the container chains ``Dc[start_b, start_b]`` of the
``b`` start points, and ``e_a`` passes iff some interval of the cover of
its interior ``D[start_a + 1, end_a - 1]`` is present.  This is exact up
to hash collisions and keeps the one-sidedness the system's recall
guarantee needs; insertion counts stay Θ(l) per posting, matching the
paper's space comparison between DB and AB filters.
"""

import math

from repro.bloom.dyadic import (
    dyadic_containers,
    dyadic_cover,
    interval_level,
    level_for,
)
from repro.bloom.filter import BloomFilter
from repro.postings import kernels


#: the c of ψ(j) = ceil(1 + j/c) the deployed filters use (Section 5.1)
PSI_C = 4


def psi(level, c):
    """The trace function ψ(j) = ceil(1 + j/c) of Section 5.1.

    ``c=None`` selects the baseline the paper compares against: a single
    trace per level."""
    if c is None:
        return 1
    return math.ceil(1 + level / c)


class AncestorBloomFilter:
    """``ABF(a)``: lets another peer select postings with an ``a`` ancestor.

    Built from the ``PostingList`` of ``a``.  Sizing: by default the
    underlying Bloom filter is sized for the target ``fp_rate``; passing
    ``bits`` instead fixes the wire size (the paper's "filter of the same
    size" comparisons), with the hash count re-derived from the actual
    load."""

    def __init__(self, postings, l=None, fp_rate=0.20, psi_c=PSI_C, seed=0, bits=None):
        self.l = l if l is not None else _level_of_postings(postings)
        self._psi = [psi(level, psi_c) for level in range(self.l + 1)]
        # One pass over the raw columns, serializing each trace key once.
        # Keys shared between postings (common cover intervals) are
        # deduped before hashing — the bit vector is the same (insertion
        # is idempotent) — and ``inserted`` counts every trace insertion.
        l = self.l
        psi_table = self._psi
        dclev = 0
        total = 0
        seen = set()
        add_seen = seen.add
        unique = []
        push = unique.append
        for peer, doc, start, end in zip(
            postings.peer, postings.doc, postings.start, postings.end
        ):
            for lo, hi in dyadic_cover(start, end, l):
                level = (hi - lo + 1).bit_length() - 1
                if level > dclev:
                    dclev = level
                traces = psi_table[level]
                total += traces
                for trace in range(traces):
                    item = (peer, doc, lo, hi, trace)
                    if item not in seen:
                        add_seen(item)
                        push(b"(i%d,i%d,i%d,i%d,i%d)" % item)
        if bits is not None:
            hashes = max(1, round(bits / max(1, total) * math.log(2)))
            self.filter = BloomFilter(bits, hashes, seed=seed)
        else:
            self.filter = BloomFilter.for_items(total, fp_rate, seed=seed)
        self.dclev = dclev  # highest level present in D(L_a)
        self.filter.insert_serialized_batch(unique)
        self.filter.inserted = total

    def _interval_present(self, peer, doc, interval):
        lo, hi = interval
        return all(
            self.filter.contains_serialized_batch(
                [
                    b"(i%d,i%d,i%d,i%d,i%d)" % (peer, doc, lo, hi, trace)
                    for trace in range(self._psi[interval_level(interval)])
                ]
            )
        )

    def may_have_ancestor(self, posting):
        """Theorem 1 probe: every cover interval of ``posting`` must have a
        container present.

        The posting counts as its own ancestor (the semantics word
        predicates need): a Bloom filter cannot tell the exact self-cover
        apart, so strictness is left to the final join (one-sided
        filtering)."""
        if posting.end > (1 << self.l):
            # no indexed ancestor interval can contain it
            return False
        for interval in dyadic_cover(posting.start, posting.end, self.l):
            if not self._covered(posting.peer, posting.doc, interval):
                return False
        return True

    def _covered(self, peer, doc, interval):
        for container in dyadic_containers(interval[0], interval[1], self.l):
            if interval_level(container) > self.dclev:
                return False  # no wider interval was ever inserted
            if self._interval_present(peer, doc, container):
                return True
        return False

    def filter_postings(self, postings):
        """The sublist ``F(b, ABF(a))`` of postings that may join.

        A staged batch probe that keeps exactly the postings
        :meth:`may_have_ancestor` keeps: it walks the raw columns (no
        Posting objects), memoizes interval decisions per call — distinct
        postings overwhelmingly share cover intervals and dyadic
        containers — and stages the remaining membership tests in rounds
        (container-chain position × trace index) so each round is one
        batched Bloom probe through the active kernel backend, preserving
        the scalar probe's early-exit economy: deeper containers and later
        traces are only hashed for keys still undecided."""
        l = self.l
        limit = 1 << l
        dclev = self.dclev
        psi_table = self._psi
        contains_batch = self.filter.contains_serialized_batch
        # stage 1: per-row cover intervals (shared spans computed once)
        cover_cache = {}
        rows = []
        push_row = rows.append
        n = len(postings)
        for i, peer, doc, start, end in zip(
            range(n), postings.peer, postings.doc, postings.start, postings.end
        ):
            if end > limit:
                continue
            span = (start, end)
            cover = cover_cache.get(span)
            if cover is None:
                cover = cover_cache[span] = tuple(dyadic_cover(start, end, l))
            push_row((i, peer, doc, cover))
        # stage 2: decide `covered` for every distinct (peer, doc, interval)
        chain_cache = {}
        covered = {}
        pending = []
        for _i, peer, doc, cover in rows:
            for lo, hi in cover:
                ckey = (peer, doc, lo, hi)
                if ckey not in covered:
                    covered[ckey] = False
                    pending.append(ckey)
                span = (lo, hi)
                if span not in chain_cache:
                    chain = []
                    for clo, chi in dyadic_containers(lo, hi, l):
                        level = (chi - clo + 1).bit_length() - 1
                        if level > dclev:
                            break  # no wider interval was ever inserted
                        chain.append((clo, chi, level))
                    chain_cache[span] = chain
        present = {}
        depth = 0
        while pending:
            # memberships this container-chain round needs, then their
            # trace conjunctions evaluated level-synchronously
            probes = []
            for ckey in pending:
                peer, doc, lo, hi = ckey
                chain = chain_cache[(lo, hi)]
                if depth < len(chain):
                    clo, chi, level = chain[depth]
                    pkey = (peer, doc, clo, chi)
                    if pkey not in present:
                        present[pkey] = False
                        probes.append((pkey, level))
            alive = probes
            trace = 0
            while alive:
                batch = []
                for pkey, level in alive:
                    if trace < psi_table[level]:
                        batch.append((pkey, level))
                    else:
                        present[pkey] = True  # every trace passed
                if not batch:
                    break
                hits = contains_batch(
                    [
                        b"(i%d,i%d,i%d,i%d,i%d)"
                        % (pkey[0], pkey[1], pkey[2], pkey[3], trace)
                        for pkey, _level in batch
                    ]
                )
                alive = [item for item, hit in zip(batch, hits) if hit]
                trace += 1
            still = []
            for ckey in pending:
                peer, doc, lo, hi = ckey
                chain = chain_cache[(lo, hi)]
                if depth >= len(chain):
                    continue  # chain exhausted: not covered
                clo, chi, _level = chain[depth]
                if present[(peer, doc, clo, chi)]:
                    covered[ckey] = True
                else:
                    still.append(ckey)
            pending = still
            depth += 1
        # stage 3: a row survives iff every cover interval is covered
        keep = []
        push = keep.append
        for i, peer, doc, cover in rows:
            for lo, hi in cover:
                if not covered[(peer, doc, lo, hi)]:
                    break
            else:
                push(i)
        return postings.select(keep)

    @property
    def size_bytes(self):
        return self.filter.size_bytes


class DescendantBloomFilter:
    """``DBF(b)``: lets another peer select postings with a ``b`` descendant.

    Built from the ``PostingList`` of ``b``."""

    def __init__(self, postings, l=None, fp_rate=0.01, seed=0):
        self.l = l if l is not None else _level_of_postings(postings)
        # the container chains of the start points: l + 1 keys per
        # posting, inserted by the active kernel backend
        f = self.filter = BloomFilter.for_items(len(postings) * (self.l + 1), fp_rate, seed=seed)
        f.inserted = kernels.active().descendant_build(
            postings.arrays(), self.l, f._vector, f.bits, f.hashes, f._salt1, f._salt2
        )

    def may_have_descendant(self, posting, or_self=False):
        """Does some ``b`` posting start inside ``posting``'s interval?

        ``or_self`` widens the probed range to include the posting's own
        start (descendant-or-self semantics for word predicates)."""
        lo = posting.start if or_self else posting.start + 1
        hi = min(posting.end - (0 if or_self else 1), 1 << self.l)
        if lo > hi:
            return False
        return any(
            self.filter.contains_serialized_batch(
                [
                    b"(i%d,i%d,i%d,i%d)" % (posting.peer, posting.doc, ilo, ihi)
                    for ilo, ihi in dyadic_cover(lo, hi, self.l)
                ]
            )
        )

    def filter_postings(self, postings, or_self=False):
        """The sublist ``F(a, DBF(b))`` of postings that may join.

        The active kernel backend's ``descendant_probe`` keeps exactly the
        postings :meth:`may_have_descendant` keeps, the definition both
        kernels are tested against."""
        f = self.filter
        keep = kernels.active().descendant_probe(
            postings.arrays(), 0 if or_self else 1, self.l,
            f._vector, f.bits, f.hashes, f._salt1, f._salt2,
        )
        return postings.select(keep)

    @property
    def size_bytes(self):
        return self.filter.size_bytes


def _level_of_postings(postings):
    """Domain size: enough levels to cover the largest end tag seen."""
    return level_for(max(1, postings.max_end()))
