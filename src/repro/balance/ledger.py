"""Per-key / per-peer load rates in simulated time.

The ledger is fed by the DHT read and write paths (``get`` /
``pipelined_get`` / ``block_get`` / ``get_object`` and the write ops)
via the :attr:`DhtNetwork.balancer` hook.  It keeps **decayed rates**
only: recent read bytes per key and read+write bytes per peer, halved
(by default) at every :meth:`tick`.  Promotion, ``least_loaded`` holder
selection, and the rebalancer's overload test all read the rates, so a
key that cools down sheds its hot status within a few ticks.

Ticks are driven explicitly — by the serving engine's rebalance clock
or by tests — never by wall time, so every rate is deterministic.

Cumulative counts of the reads served are not kept here: ``repro stats``
derives them after the run from the span tree
(:func:`repro.obs.served_reads`).

The open windows are :class:`collections.Counter` tables: recording runs
once per copy written or read, so each one is a single ``+=``, and
looking up a key or peer that was never metered reads 0 without creating
an entry.
"""

from collections import Counter


class LoadLedger:
    """Meters key- and peer-level DHT traffic; see the module docstring."""

    def __init__(self, decay=0.5):
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        self.decay = decay
        # decayed-rate state: folded window + bytes since the last tick
        self._key_rate = {}
        self._peer_rate = {}
        self._key_window = Counter()
        self._peer_window = Counter()

    # -- recording ---------------------------------------------------------

    def record_read(self, key, peer_index, nbytes):
        """One read of ``key`` served by peer ``peer_index``."""
        self._key_window[key] += nbytes
        self._peer_window[peer_index] += nbytes

    def record_write(self, peer_index, nbytes):
        """One write applied at peer ``peer_index`` (the owner apply, each
        replica push, and each hot-copy/migration copy are separate events —
        utilization counts every copy landed).  Writes count toward peer
        utilization but not key *read* heat."""
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

    def key_rate(self, key):
        """Decayed read-byte heat of ``key``, including the open window."""
        return self._key_rate.get(key, 0.0) + self._key_window.get(key, 0)

    def peer_load(self, peer_index):
        """Decayed read+write byte load on ``peer_index``, incl. window."""
        return self._peer_rate.get(peer_index, 0.0) + self._peer_window.get(
            peer_index, 0
        )
