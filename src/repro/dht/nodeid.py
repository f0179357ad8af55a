"""128-bit Pastry identifiers.

Node ids are hashes of the peer's URI; keys are hashes of DHT keys (terms,
DPP pseudo-keys, Fundex ``fun:w`` keys).  Both live on the same ring of
size 2**128 and are compared with ring (wrap-around) distance; routing works
on base-16 digits (Pastry's b = 4).  :func:`closest` and :func:`successor`
answer every ownership question on a sorted list of ids.
"""

import bisect
import functools

from repro.util.hashing import stable_hash

ID_BITS = 128
ID_SPACE = 1 << ID_BITS
DIGIT_BITS = 4  # Pastry b parameter
DIGITS = ID_BITS // DIGIT_BITS  # 32 hex digits
DIGIT_BASE = 1 << DIGIT_BITS


class NodeId(int):
    """An integer in [0, 2**128) with Pastry digit helpers."""

    def __new__(cls, value):
        return super().__new__(cls, int(value) % ID_SPACE)

    @classmethod
    def from_uri(cls, uri):
        return cls(stable_hash(uri, seed=0x1D, bits=ID_BITS))

    def digit(self, i):
        """The ``i``-th base-16 digit, most significant first."""
        shift = (DIGITS - 1 - i) * DIGIT_BITS
        return (self >> shift) & (DIGIT_BASE - 1)

    def shared_prefix_len(self, other):
        """Number of leading base-16 digits shared with ``other``."""
        # the highest differing bit decides: every digit above it is shared
        return (ID_BITS - (self ^ (other % ID_SPACE)).bit_length()) // DIGIT_BITS

    def distance(self, other):
        """Ring distance to ``other`` (minimum of the two arc lengths)."""
        diff = (int(self) - int(other)) % ID_SPACE
        return min(diff, ID_SPACE - diff)

    def hex(self):
        return "%032x" % int(self)

    def __repr__(self):
        return "NodeId(%s...)" % self.hex()[:8]


@functools.lru_cache(maxsize=1 << 16)
def key_id(key):
    """Map a string DHT key onto the identifier ring.

    Memoised, bounded like the routing memo: every route and every replica
    set looks its key up, over a few thousand distinct keys, and the id
    depends on the key alone, so membership changes leave it valid."""
    return NodeId(stable_hash(key, seed=0x2B, bits=ID_BITS))


def closest(ids, key, k=1):
    """Positions in the sorted ring ``ids`` of the ``k`` ids nearest
    ``key`` by ring distance, nearest first, a tie to the smaller id: a
    walk outward from the bisect point, taking the shorter next arc."""
    n = len(ids)
    right = bisect.bisect_left(ids, key)
    left = right - 1
    picked = []
    for _ in range(min(k, n)):
        cw, ccw = ids[right % n], ids[left % n]
        cw_arc, ccw_arc = (cw - key) % ID_SPACE, (key - ccw) % ID_SPACE
        if cw_arc < ccw_arc or (cw_arc == ccw_arc and cw < ccw):
            picked.append(right % n)
            right += 1
        else:
            picked.append(left % n)
            left -= 1
    return picked


def successor(ids, point):
    """Position in the sorted ring ``ids`` of the first id clockwise from
    ``point``, ``point`` itself included (Chord's ``successor``)."""
    return bisect.bisect_left(ids, point) % len(ids)
