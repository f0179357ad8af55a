"""Per-key / per-peer load accounting in simulated time.

The ledger is fed by the DHT read and write paths (``get`` /
``pipelined_get`` / ``block_get`` / ``get_object`` and the write ops)
via the :attr:`DhtNetwork.balancer` hook.  Two views of the same
traffic:

* **cumulative totals** — every read ever recorded, per key and per
  peer, every written byte per peer, plus grand totals.  The breakdowns
  are partitions of one event stream, so each must sum to the grand
  totals exactly (:meth:`check_conservation`, a fuzzer invariant).
* **decayed rates** — recent read bytes per key and read+write bytes
  per peer, halved (by default) at every :meth:`tick`.  Promotion,
  ``least_loaded`` holder selection, and the rebalancer's overload test
  all read the rates, so a key that cools down sheds its hot status
  within a few ticks.

Ticks are driven explicitly — by the serving engine's rebalance clock
or by tests — never by wall time, so every rate is deterministic.

The tallies are :class:`collections.Counter` tables: recording runs once
per copy written or read, so each one is a single ``+=``, and looking up
a key or peer that was never metered reads 0 without creating an entry.
"""

from collections import Counter


class LoadLedger:
    """Meters key- and peer-level DHT traffic; see the module docstring."""

    def __init__(self, decay=0.5):
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        self.decay = decay
        # cumulative totals (never decayed)
        self.key_reads = Counter()
        self.key_read_bytes = Counter()
        self.peer_reads = Counter()
        self.peer_read_bytes = Counter()
        self.peer_write_bytes = Counter()
        self.total_reads = 0
        self.total_read_bytes = 0
        self.total_writes = 0
        self.total_write_bytes = 0
        # decayed-rate state: folded window + bytes since the last tick
        self._key_rate = {}
        self._peer_rate = {}
        self._key_window = Counter()
        self._peer_window = Counter()
        self.ticks = 0

    # -- recording ---------------------------------------------------------

    def record_read(self, key, peer_index, nbytes):
        """One read of ``key`` served by peer ``peer_index``."""
        self.key_reads[key] += 1
        self.key_read_bytes[key] += nbytes
        self.peer_reads[peer_index] += 1
        self.peer_read_bytes[peer_index] += nbytes
        self.total_reads += 1
        self.total_read_bytes += nbytes
        self._key_window[key] += nbytes
        self._peer_window[peer_index] += nbytes

    def record_write(self, key, peer_index, nbytes):
        """One write of ``key`` applied at peer ``peer_index`` (the owner
        apply, each replica push, and each hot-copy/migration copy are
        separate events — utilization counts every copy landed)."""
        self.peer_write_bytes[peer_index] += nbytes
        self.total_writes += 1
        self.total_write_bytes += nbytes
        # writes count toward peer utilization but not key *read* heat
        self._peer_window[peer_index] += nbytes

    # -- decayed rates -----------------------------------------------------

    def tick(self):
        """Fold the current window into the decayed rates.

        ``rate' = decay * rate + window`` — an exponentially weighted sum
        of per-tick byte counts, so sustained traffic converges toward
        ``window / (1 - decay)`` and silence halves the rate per tick."""
        for table, window in (
            (self._key_rate, self._key_window),
            (self._peer_rate, self._peer_window),
        ):
            for ident in list(table):
                decayed = table[ident] * self.decay
                if decayed < 1e-9 and ident not in window:
                    del table[ident]
                else:
                    table[ident] = decayed
            for ident, nbytes in window.items():
                table[ident] = table.get(ident, 0.0) + nbytes
            window.clear()
        self.ticks += 1

    def key_rate(self, key):
        """Decayed read-byte heat of ``key``, including the open window."""
        return self._key_rate.get(key, 0.0) + self._key_window.get(key, 0)

    def peer_load(self, peer_index):
        """Decayed read+write byte load on ``peer_index``, incl. window."""
        return self._peer_rate.get(peer_index, 0.0) + self._peer_window.get(
            peer_index, 0
        )

    # -- summaries ---------------------------------------------------------

    def hottest_keys(self, n=None):
        """``[(read_bytes, key)]`` by cumulative read bytes, descending."""
        ranked = sorted(
            ((nbytes, key) for key, nbytes in self.key_read_bytes.items()),
            key=lambda item: (-item[0], item[1]),
        )
        return ranked if n is None else ranked[:n]

    def hottest_peers(self, n=None):
        """``[(read_bytes, peer_index)]`` by cumulative read bytes."""
        ranked = sorted(
            (
                (nbytes, peer)
                for peer, nbytes in self.peer_read_bytes.items()
            ),
            key=lambda item: (-item[0], item[1]),
        )
        return ranked if n is None else ranked[:n]

    def check_conservation(self):
        """The breakdowns each sum to the grand totals.

        A read touches one key entry, one peer entry and the totals, and a
        write one peer entry and the totals, so any drift between the
        views is an accounting bug; the fuzzer asserts this after balance
        steps."""
        return (
            sum(self.key_reads.values()) == self.total_reads
            and sum(self.peer_reads.values()) == self.total_reads
            and sum(self.key_read_bytes.values()) == self.total_read_bytes
            and sum(self.peer_read_bytes.values()) == self.total_read_bytes
            and sum(self.peer_write_bytes.values()) == self.total_write_bytes
        )

    def to_dict(self, top=8):
        """JSON-ready summary used by ``repro stats --json``."""
        return {
            "ticks": self.ticks,
            "total_reads": self.total_reads,
            "total_read_bytes": self.total_read_bytes,
            "total_writes": self.total_writes,
            "total_write_bytes": self.total_write_bytes,
            "hottest_keys": [
                {"read_bytes": nbytes, "key": key}
                for nbytes, key in self.hottest_keys(top)
            ],
            "hottest_peers": [
                {"read_bytes": nbytes, "peer": peer}
                for nbytes, peer in self.hottest_peers(top)
            ],
        }
