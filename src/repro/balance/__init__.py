"""Load balancing: accounting, read fan-out, hot copies, rebalancing.

Section 8 lists load balancing among the future targets, and the DBLP
workload makes the need concrete: term popularity is Zipfian, so the
peers owning the hottest posting lists saturate first (the queue-wait
spans of the concurrent serving engine pile up on their egress links).
This package is the adaptive-redistribution layer:

* :class:`~repro.balance.ledger.LoadLedger` — decayed per-key read and
  per-peer read/write byte rates in simulated time;
* :class:`~repro.balance.balancer.LoadBalancer` — the
  :attr:`DhtNetwork.balancer <repro.dht.network.DhtNetwork>` hook:
  read-policy holder selection over the replica set (``owner`` |
  ``least_loaded``), popularity-driven extra
  replication of hot keys onto cold peers with decay-based demotion,
  and synchronous write propagation that keeps every extra copy fresh;
* :class:`~repro.balance.rebalancer.Rebalancer` — the background pass
  migrating whole keys (their alias group: term, DPP root, first data
  block) off overloaded peers via the network's versioned hand-over.

Everything is deterministic and strictly opt-in: the default policy
(``owner``, no thresholds, no rebalance interval) is byte-identical to
the pre-balancing code path — the ledger observes, nothing else engages.
"""

from repro.balance.balancer import LoadBalancer
from repro.balance.ledger import LoadLedger
from repro.balance.rebalancer import RebalanceReport, Rebalancer

__all__ = ["LoadBalancer", "LoadLedger", "Rebalancer", "RebalanceReport"]
