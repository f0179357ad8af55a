"""The network/CPU/disk cost model.

The paper measured wall-clock behaviour of a real deployment; this
reproduction computes simulated durations from a small set of rates.  The
rates are calibrated once (see ``DESIGN.md``) so that absolute magnitudes are
plausible — publishing hundreds of MB takes simulated minutes-to-hours,
index queries take simulated fractions of a second to seconds — and are then
held fixed across *all* experiments so that every comparison in the paper
(DPP vs. no DPP, filter strategies, store ablation, ...) is apples-to-apples.
"""

import functools
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CostParams:
    """Calibrated rates; all bandwidths in bytes/second.

    ``hop_latency_s``
        one-way latency of a single overlay hop, including per-message
        processing.  DHT routing multiplies this by the hop count.
    ``egress_bw``
        rate at which one peer can push data onto the network (this is the
        producer-side bottleneck of Section 3: a posting-list producer reads
        from disk and streams onto its uplink).
    ``ingress_bw``
        rate at which one peer can absorb data.  ``ingress_bw > egress_bw``
        is what makes the DPP's parallel transfers pay off: a consumer can
        drain several producers at once.
    ``disk_read_bw`` / ``disk_write_bw``
        local store sequential throughput.
    ``store_op_s``
        fixed CPU cost of one local store operation (B+-tree descent,
        buffer handling).
    ``join_rate``
        holistic-twig-join consumption rate, postings/second.
    ``parse_rate``
        XML parsing + posting extraction rate, bytes/second.
    ``msg_overhead_bytes``
        envelope bytes added to every message.
    """

    hop_latency_s: float = 0.010
    egress_bw: float = 2_000_000.0
    ingress_bw: float = 12_000_000.0
    disk_read_bw: float = 40_000_000.0
    disk_write_bw: float = 25_000_000.0
    store_op_s: float = 0.000_02
    join_rate: float = 4_000_000.0
    parse_rate: float = 8_000_000.0
    msg_overhead_bytes: int = 48

    def __post_init__(self):
        for field in (
            "hop_latency_s",
            "egress_bw",
            "ingress_bw",
            "disk_read_bw",
            "disk_write_bw",
            "join_rate",
            "parse_rate",
        ):
            if getattr(self, field) <= 0:
                raise ValueError("%s must be positive" % field)


@functools.lru_cache(maxsize=64)
def _route_length(num_peers):
    """``ceil(log_{2^b} N)`` hops with b=4, at least 1 beyond a single
    peer; a query asks for it once per document phase, for the same few
    ``N``."""
    if num_peers <= 1:
        return 0
    return max(1, math.ceil(math.log(num_peers, 2**4)))


class CostModel:
    """Turns operation descriptions into simulated durations (seconds)."""

    def __init__(self, params=None):
        self.params = p = params or CostParams()
        # what every message between peers is priced with, read once
        self._hop_s, self._envelope, self._egress_bw = (
            p.hop_latency_s, p.msg_overhead_bytes, p.egress_bw
        )

    # -- network ---------------------------------------------------------

    def transfer_time(self, nbytes, hops=1):
        """Time for one peer to ship ``nbytes`` to another over ``hops`` hops.

        The payload is bandwidth-bound on the sender's egress link; routing
        contributes per-hop latency.  (Contention between concurrent
        transfers is modelled by the :class:`repro.sim.tasks.Scheduler`, not
        here.)
        """
        return hops * self._hop_s + (nbytes + self._envelope) / self._egress_bw

    def expected_hops(self, num_peers):
        """Expected Pastry route length: ``ceil(log_{2^b} N)`` with b=4."""
        return _route_length(num_peers)

    # -- local work ------------------------------------------------------

    def disk_read_time(self, nbytes):
        return nbytes / self.params.disk_read_bw

    def disk_write_time(self, nbytes):
        return nbytes / self.params.disk_write_bw

    def store_op_time(self, nops=1):
        return nops * self.params.store_op_s

    def store_time(self, read_bytes, written_bytes, ops):
        """Disk read, disk write and store-op time of one store operation,
        summed in that order (the floats of adding the three methods
        above)."""
        p = self.params
        return read_bytes / p.disk_read_bw + written_bytes / p.disk_write_bw + ops * p.store_op_s

    def join_time(self, npostings):
        """CPU time for the twig join to consume ``npostings`` inputs."""
        return npostings / self.params.join_rate

    def parse_time(self, nbytes):
        """Time to parse a document and extract its postings."""
        return nbytes / self.params.parse_rate
