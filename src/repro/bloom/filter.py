"""The basic Bloom filter [Bloom 1970].

A bit vector of ``m`` bits with ``k`` seeded hash functions.  Sizing uses
the standard optima: for ``n`` expected insertions and target false
positive rate ``p``, ``m = -n ln p / (ln 2)^2`` and ``k = (m/n) ln 2``.

Items are arbitrary tuples of ints/strings; they are serialized to a
canonical byte string before hashing, and the ``k`` functions are derived
from one keyed BLAKE2 hash by double hashing, so filter contents are fully
deterministic across runs.
"""

import math

from hashlib import blake2b

from repro.postings import kernels

_INT_TUPLE_FORMATS = {
    n: b"(" + b",".join([b"i%d"] * n) + b")" for n in range(1, 9)
}


def _canonical_bytes(item):
    if isinstance(item, tuple):
        # fast path: the filters hash small all-int tuples; one bytes
        # %-format produces the identical serialization in one step
        fmt = _INT_TUPLE_FORMATS.get(len(item))
        if fmt is not None and all(type(part) is int for part in item):
            return fmt % item
        return b"(" + b",".join(_canonical_bytes(part) for part in item) + b")"
    if isinstance(item, int):
        return b"i" + str(item).encode("ascii")
    if isinstance(item, str):
        return b"s" + item.encode("utf-8")
    if isinstance(item, bytes):
        return b"b" + item
    raise TypeError("cannot hash item of type %s" % type(item).__name__)


def optimal_params(expected_items, fp_rate):
    """``(m_bits, k)`` minimizing space for the target rate."""
    if expected_items < 1:
        expected_items = 1
    if not 0 < fp_rate < 1:
        raise ValueError("fp_rate must be in (0, 1), got %r" % (fp_rate,))
    m = max(8, int(math.ceil(-expected_items * math.log(fp_rate) / (math.log(2) ** 2))))
    k = max(1, int(round((m / expected_items) * math.log(2))))
    return m, k


class BloomFilter:
    """A deterministic Bloom filter over tuple items."""

    def __init__(self, bits, hashes, seed=0):
        if bits < 8:
            bits = 8
        if hashes < 1:
            raise ValueError("need at least one hash function")
        self.bits = bits
        self.hashes = hashes
        self.seed = seed
        self._vector = bytearray((bits + 7) // 8)
        self.inserted = 0
        # precomputed BLAKE2 salts of the two seeded hash functions
        # (identical values to stable_hash(..., seed=2*seed+1 / 2*seed+2))
        self._salt1 = (seed * 2 + 1).to_bytes(8, "little")
        self._salt2 = (seed * 2 + 2).to_bytes(8, "little")

    @classmethod
    def for_items(cls, expected_items, fp_rate, seed=0):
        """Construct with optimal parameters for the expected load."""
        m, k = optimal_params(expected_items, fp_rate)
        return cls(m, k, seed=seed)

    def insert(self, item):
        self.insert_serialized(_canonical_bytes(item))
        self.inserted += 1

    def insert_serialized(self, data):
        """Insert an already-canonicalized byte string (batch kernels).

        Does NOT bump ``inserted`` — bulk callers that dedupe replicas set
        the true load themselves so sizing math stays honest."""
        h1 = int.from_bytes(
            blake2b(data, digest_size=8, salt=self._salt1).digest(), "little"
        )
        h2 = int.from_bytes(
            blake2b(data, digest_size=8, salt=self._salt2).digest(), "little"
        ) | 1
        vector = self._vector
        bits = self.bits
        for i in range(self.hashes):
            pos = (h1 + i * h2) % bits
            vector[pos >> 3] |= 1 << (pos & 7)

    def insert_serialized_batch(self, datas):
        """Batch :meth:`insert_serialized` through the active kernel backend.

        Identical bit vector, one call: the numpy backend hashes the whole
        batch and applies every position in one vector pass."""
        kernels.active().bloom_set_batch(
            self._vector, self.bits, self.hashes, self._salt1, self._salt2, datas
        )

    def contains_serialized_batch(self, datas):
        """Batch :meth:`contains_serialized`; returns one bool per item."""
        return kernels.active().bloom_test_batch(
            self._vector, self.bits, self.hashes, self._salt1, self._salt2, datas
        )

    def contains_serialized(self, data):
        """Membership test on an already-canonicalized byte string."""
        h1 = int.from_bytes(
            blake2b(data, digest_size=8, salt=self._salt1).digest(), "little"
        )
        h2 = int.from_bytes(
            blake2b(data, digest_size=8, salt=self._salt2).digest(), "little"
        ) | 1
        vector = self._vector
        bits = self.bits
        for i in range(self.hashes):
            pos = (h1 + i * h2) % bits
            if not vector[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def __contains__(self, item):
        return self.contains_serialized(_canonical_bytes(item))

    @property
    def size_bytes(self):
        """Wire size: the vector plus a small parameter header."""
        return len(self._vector) + 16

    @property
    def fill_ratio(self):
        # one big-int popcount instead of a per-byte loop; byte order is
        # irrelevant to the total bit count
        return int.from_bytes(self._vector, "big").bit_count() / self.bits

    def expected_fp_rate(self):
        """``(1 - e^(-kn/m))^k`` with the actual insertion count."""
        if not self.inserted:
            return 0.0
        return (
            1.0 - math.exp(-self.hashes * self.inserted / self.bits)
        ) ** self.hashes

    def __repr__(self):
        return "BloomFilter(m=%d, k=%d, n=%d)" % (self.bits, self.hashes, self.inserted)
