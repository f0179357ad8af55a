"""The basic Bloom filter [Bloom 1970].

A bit vector of ``m`` bits with ``k`` seeded hash functions.  Sizing uses
the standard optima: for ``n`` expected insertions and target false
positive rate ``p``, ``m = -n ln p / (ln 2)^2`` and ``k = (m/n) ln 2``.

Keys are byte strings that the Structural filters format themselves
(``b"(i%d,i%d,...)"`` over a posting's integers).  The active kernel
backend hashes them: the ``k`` positions of a key come from two salted
BLAKE2 digests by double hashing, so filter contents are fully
deterministic across runs and backends.
"""

import math

from repro.postings import kernels


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
    """A deterministic Bloom filter over byte-string keys.

    ``seed`` selects the two BLAKE2 salts the kernels hash with; filters
    of different seeds set independent bits for the same key."""

    def __init__(self, bits, hashes, seed=0):
        if bits < 8:
            bits = 8
        if hashes < 1:
            raise ValueError("need at least one hash function")
        self.bits = bits
        self.hashes = hashes
        self._vector = bytearray((bits + 7) // 8)
        self.inserted = 0
        # the salts of the two seeded hash functions
        # (identical values to stable_hash(..., seed=2*seed+1 / 2*seed+2))
        self._salt1 = (seed * 2 + 1).to_bytes(8, "little")
        self._salt2 = (seed * 2 + 2).to_bytes(8, "little")

    @classmethod
    def for_items(cls, expected_items, fp_rate, seed=0):
        """Construct with optimal parameters for the expected load."""
        m, k = optimal_params(expected_items, fp_rate)
        return cls(m, k, seed=seed)

    def insert_serialized_batch(self, datas):
        """Set the bits of every key in ``datas`` through the active kernel
        backend.

        Does NOT bump ``inserted``: bulk callers that dedupe replicas set
        the true load themselves so sizing math stays honest."""
        kernels.active().bloom_set_batch(
            self._vector, self.bits, self.hashes, self._salt1, self._salt2, datas
        )

    def contains_serialized_batch(self, datas):
        """Membership test for every key in ``datas``; one bool per key."""
        return kernels.active().bloom_test_batch(
            self._vector, self.bits, self.hashes, self._salt1, self._salt2, datas
        )

    @property
    def size_bytes(self):
        """Wire size: the vector plus a small parameter header."""
        return len(self._vector) + 16

    def __repr__(self):
        return "BloomFilter(m=%d, k=%d, n=%d)" % (self.bits, self.hashes, self.inserted)
