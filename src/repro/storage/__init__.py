"""Per-peer local index stores (Section 3 of the paper).

KadoP originally used PAST's local storage, where every DHT ``put`` on an
existing key reads the old value, reconciles and rewrites it — quadratic in
the posting count.  The paper replaces it with a BerkeleyDB B+-tree holding
the ``Term`` relation as a clustered index and extends the DHT API with
``append`` for linear-cost indexing.  Both stores are implemented here, each
with ``append`` as its one write (the PAST-style one's is that ``put``), so
the 2–3 orders-of-magnitude publishing speedup of Section 3 can be
reproduced as an ablation:

* :class:`NaiveGzipStore` — the PAST-style read-modify-write store;
* :class:`BPlusTree` — a real paged B+-tree;
* :class:`ClusteredIndexStore` — the BerkeleyDB replacement, a clustered
  (term → ordered postings) index over the B+-tree with ``append``.
"""

from repro.storage.api import Store, StoreStats
from repro.storage.naive_store import NaiveGzipStore
from repro.storage.bptree import BPlusTree
from repro.storage.clustered import ClusteredIndexStore

__all__ = [
    "Store",
    "StoreStats",
    "NaiveGzipStore",
    "BPlusTree",
    "ClusteredIndexStore",
]
