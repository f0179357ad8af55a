"""Section 3 ablation: PAST-style store vs. B+-tree vs. LSM with append.

"Enhancing the API, buffer tuning and replacing the index storage has sped
publishing by two to three orders of magnitude."  The dominant term at
scale is store I/O: the PAST store re-reads and rewrites a term's whole
value on every insert (quadratic in list length), the clustered B+-tree
appends with O(log n) page I/O, and the log-structured store absorbs
appends in a memtable and pays only sequential log/flush/compaction
writes — the cheapest ingest of the three, bought with read
amplification across its runs.

The experiment inserts a growing posting list in publisher-sized batches
into all three stores and reports the simulated insert time; the
naive/btree ratio widens with list length (orders of magnitude at
realistic sizes), and the LSM ingest stays at or below the B+-tree's.
"""

import random

from repro.postings.posting import Posting
from repro.sim.cost import CostModel
from repro.storage.clustered import ClusteredIndexStore
from repro.storage.lsm import LsmStore
from repro.storage.naive_store import NaiveGzipStore

DESCRIPTION = "Section 3 ablation: PAST store vs. B+-tree vs. LSM"

LIST_SIZES = (5_000, 20_000, 80_000)


def _insert(store, total_postings, batch_size, cost, seed=0):
    rng = random.Random(seed)
    start = 0
    inserted = 0
    before = store.stats.snapshot()
    while inserted < total_postings:
        batch = []
        for _ in range(min(batch_size, total_postings - inserted)):
            start += rng.randint(1, 40)
            batch.append(Posting(0, inserted // 600, start, start + 1, 1))
        store.append("author", batch)
        inserted += len(batch)
    return store.stats.delta_since(before).cost_seconds(cost)


def run(list_sizes=LIST_SIZES, batch_size=200, seed=0):
    """``[(postings, naive_s, btree_s, naive/btree speedup, lsm_s)]``.

    The speedup stays at index 3 (the historical two-way column); the
    LSM ingest time rides along at index 4."""
    cost = CostModel()
    rows = []
    for size in list_sizes:
        naive = _insert(NaiveGzipStore(), size, batch_size, cost, seed)
        btree = _insert(ClusteredIndexStore(), size, batch_size, cost, seed)
        lsm = _insert(LsmStore(), size, batch_size, cost, seed)
        rows.append(
            (size, naive, btree, naive / btree if btree else float("inf"), lsm)
        )
    return rows


def format_rows(rows):
    lines = [
        "%12s %16s %16s %10s %12s"
        % ("postings", "PAST-style (s)", "B+-tree (s)", "speedup", "LSM (s)")
    ]
    for row in rows:
        size, naive, btree, speedup = row[:4]
        lsm = row[4] if len(row) > 4 else float("nan")
        lines.append(
            "%12d %16.3f %16.3f %9.1fx %12.3f"
            % (size, naive, btree, speedup, lsm)
        )
    return "\n".join(lines)


def check_shape(rows, min_final_speedup=30.0):
    """Quadratic vs. linear vs. log-structured: the naive/btree speedup
    must widen with list size and be large at the biggest size, and the
    LSM ingest must not exceed the B+-tree's at any size."""
    speedups = [r[3] for r in rows]
    assert speedups == sorted(speedups), "speedup should grow with size"
    assert speedups[-1] > min_final_speedup
    # Section 3's claim over the last size step (r times the postings):
    # the PAST-style store's cost grows like r^2, the B+-tree's like r
    (size0, naive0, btree0), (size1, naive1, btree1) = rows[-2][:3], rows[-1][:3]
    r = size1 / size0
    assert naive1 / naive0 > 0.6 * r * r, (
        "naive cost grew %.1fx for %.1fx the data: not quadratic"
        % (naive1 / naive0, r)
    )
    assert btree1 / btree0 < 1.5 * r, (
        "B+-tree cost grew %.1fx for %.1fx the data: not linear"
        % (btree1 / btree0, r)
    )
    for row in rows:
        assert row[4] <= row[2], (
            "LSM ingest (%.3fs) should not exceed B+-tree (%.3fs) at %d"
            % (row[4], row[2], row[0])
        )
