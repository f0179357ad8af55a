"""A Pastry-style distributed hash table, in-process.

KadoP was built over PAST/Pastry; this package reproduces the parts the
paper depends on:

* 128-bit node identifiers and key hashing (:mod:`repro.dht.nodeid`);
* prefix routing tables and leaf sets with O(log N) multi-hop lookup
  (:mod:`repro.dht.routing`);
* the standard DHT API — ``locate``, ``get``, ``delete`` — plus the
  paper's extensions: ``append`` (linear-cost indexing; the paper's
  ``put`` is ``append`` on the PAST-style store) and ``pipelined_get``
  (streamed posting-list retrieval), with fixed-factor replication
  (:mod:`repro.dht.network`).

Every node's key/value state is held in a real local store
(:mod:`repro.storage`), and every routed message is charged hops and bytes
through the cost model, but message delivery itself is an in-process call —
the substitution documented in DESIGN.md.
"""

from repro.dht.nodeid import NodeId, key_id
from repro.dht.network import DhtNetwork, OpReceipt
from repro.dht.replicas import DhtNode

__all__ = ["NodeId", "key_id", "DhtNetwork", "DhtNode", "OpReceipt"]
