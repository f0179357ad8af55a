"""Deterministic fault injection for the simulated DHT (``repro.faults``).

The paper's KadoP deployment leans on PAST's replication to survive peer
volatility; this module supplies the *fault model* that lets the test
harness actually exercise that claim.  A :class:`FaultPlan` is a seeded,
fully deterministic oracle that the network consults at well-defined
injection points:

* **message fates** — any message between peers (a routed request, a
  bulk response, a pushed copy, a message the layers above the DHT ship)
  can be dropped (the op times out and retries with capped exponential
  backoff, charged in simulated time and metered bytes), delayed (extra
  latency), or
  duplicated (a second copy arrives; delivery is idempotent and the
  duplicate is metered as real wire traffic but *not* double-counted in
  the op's :class:`~repro.dht.network.OpReceipt`);
* **crashes** — a peer can fail mid-operation: the next hop of a route,
  the owner about to apply a write, or the holder of a pipelined stream
  between two chunks.  Crashed peers keep their disk state and restart
  after a configurable number of further operations, exactly as a PAST
  node that rejoins;
* **scheduler jitter** — bulk-transfer tasks in the
  :class:`~repro.sim.tasks.Scheduler` can be stretched by a deterministic
  delay, modelling a congested link.

Every decision is a pure function of ``(seed, operation index, attempt,
injection point)`` via a stable BLAKE2 hash — no process-global RNG, no
wall clock — so a failing scenario replays *exactly* from its seed.  A
plan with all rates at zero is byte-identical to running without a plan
installed (asserted by the differential test in ``tests/test_faults.py``).
"""

from dataclasses import dataclass
from hashlib import blake2b

from repro.errors import DhtError


class FaultError(DhtError):
    """Base class for failures surfaced by the fault-injection layer."""


class OpTimeoutError(FaultError):
    """A DHT operation exhausted its retries.

    Carries the ``key`` the op targeted (the query executor reports it in
    ``QueryReport.unreachable_keys``), the op name, the attempt count, and
    the partial :class:`~repro.dht.network.OpReceipt` charged so far.
    """

    def __init__(self, key, op, attempts, receipt):
        super().__init__(
            "%s(%r) timed out after %d attempt(s)" % (op, key, attempts)
        )
        self.key = key
        self.op = op
        self.attempts = attempts
        self.receipt = receipt


@dataclass
class RetryPolicy:
    """Per-op timeout plus capped exponential backoff.

    ``timeout_s`` is charged once per lost request/response (the sender
    waits that long before concluding the message is gone); the ``attempt``-th
    retry then waits ``min(backoff_cap_s, backoff_s * 2**attempt)`` before
    resending.  ``max_retries`` bounds the resends, after which the op
    raises :class:`OpTimeoutError`.
    """

    timeout_s: float = 0.25
    max_retries: int = 6
    backoff_s: float = 0.05
    backoff_cap_s: float = 1.0

    def backoff(self, attempt):
        return min(self.backoff_cap_s, self.backoff_s * (2.0 ** attempt))


@dataclass
class FaultStats:
    """What a plan actually injected (and what the system did about it)."""

    ops: int = 0
    drops: int = 0
    delays: int = 0
    duplicates: int = 0
    crashes: int = 0
    restarts: int = 0
    retries: int = 0
    timeouts: int = 0

    def to_dict(self):
        return {
            "ops": self.ops,
            "drops": self.drops,
            "delays": self.delays,
            "duplicates": self.duplicates,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "retries": self.retries,
            "timeouts": self.timeouts,
        }


def _unit(seed, *parts):
    """A stable float in [0, 1) from ``(seed, *parts)``.

    Uses BLAKE2 (not the built-in ``hash``) so decisions are identical
    across processes and ``PYTHONHASHSEED`` values — the property the
    one-line repro command depends on.
    """
    payload = repr((seed,) + parts).encode("utf-8")
    digest = blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class FaultPlan:
    """A seeded, deterministic schedule of message faults and crashes.

    Stochastic faults fire when the stable hash of the decision point
    falls under the configured rate; scripted faults (``script`` maps a
    global operation index to an action) fire unconditionally at exactly
    that operation — the regression corpus uses them to pin scenarios
    like "crash the stream holder after the first pipelined chunk".

    Script actions: ``"drop"``, ``"delay"``, ``"duplicate"`` (request fate
    of that op), ``"crash-hop"`` (kill the next routing hop),
    ``"crash-owner"`` (kill the owner before it applies the op), and
    ``"crash-chunk:<i>"`` (kill the stream holder after chunk ``i``).

    Crash safety envelope: a crash is only injected while fewer than
    ``max_crashed`` peers are simultaneously down and at least
    ``min_alive`` peers would remain — with ``max_crashed`` at
    ``replication - 1`` the DHT's replication invariant ("acknowledged
    writes survive up to replication-1 crashes") stays testable rather
    than vacuously violated.  Crashed peers restart automatically after
    ``restart_after_ops`` further operations (None disables restarts).
    """

    def __init__(
        self,
        seed=0,
        drop_rate=0.0,
        delay_rate=0.0,
        delay_s=0.05,
        duplicate_rate=0.0,
        crash_rate=0.0,
        max_crashed=1,
        min_alive=2,
        restart_after_ops=20,
        task_jitter_rate=0.0,
        task_jitter_s=0.02,
        script=None,
    ):
        for name, rate in (
            ("drop_rate", drop_rate),
            ("delay_rate", delay_rate),
            ("duplicate_rate", duplicate_rate),
            ("crash_rate", crash_rate),
            ("task_jitter_rate", task_jitter_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("%s must be in [0, 1], got %r" % (name, rate))
        if drop_rate + delay_rate + duplicate_rate > 1.0:
            raise ValueError("message fault rates must sum to <= 1")
        self.seed = seed
        self.drop_rate = drop_rate
        self.delay_rate = delay_rate
        self.delay_s = delay_s
        self.duplicate_rate = duplicate_rate
        self.crash_rate = crash_rate
        self.max_crashed = max_crashed
        self.min_alive = min_alive
        self.restart_after_ops = restart_after_ops
        self.task_jitter_rate = task_jitter_rate
        self.task_jitter_s = task_jitter_s
        self.script = dict(script or {})
        self.stats = FaultStats()
        self.events = []  # (op_index, event, detail) — replay/debug log
        self.crashed = []  # nodes currently down, oldest first
        self._restart_at = {}  # node -> op index at which it comes back
        self._op = 0
        self._message = 0

    @property
    def op_count(self):
        """Operations registered so far — the index the *next* op gets.

        Scripts are keyed by these indices; reading the count between a
        setup phase and the op under test is how a scripted scenario pins
        its action to exactly the right operation.
        """
        return self._op

    # -- bookkeeping -----------------------------------------------------------

    def begin_op(self, net, op, key):
        """Register one top-level DHT operation; returns its index.

        Also the plan's clock: crashed peers whose restart is due rejoin
        here, *between* operations, never mid-op.
        """
        idx = self._op
        self._op += 1
        self.stats.ops += 1
        if self._restart_at:
            due = [n for n, at in self._restart_at.items() if at <= idx]
            # oldest crash restarts first, deterministically
            for node in sorted(due, key=lambda n: n.peer_index):
                self.restart(net, node)
        return idx

    def begin_message(self):
        """Index ``("msg", n)`` of a message sent outside any DHT op: apart
        from the ops, so it neither advances the plan's clock nor renumbers
        an op that a script or a regression seed pins."""
        self._message += 1
        return ("msg", self._message - 1)

    def _record(self, idx, event, detail):
        self.events.append((idx, event, detail))

    # -- message fates ---------------------------------------------------------

    def _fate(self, idx, attempt, point):
        scripted = self.script.get(idx)
        if (
            attempt == 0
            and point[0] == "request"
            and scripted in ("drop", "delay", "duplicate")
        ):
            fate = scripted
        else:
            r = _unit(self.seed, idx, attempt, point)
            if r < self.drop_rate:
                fate = "drop"
            elif r < self.drop_rate + self.delay_rate:
                fate = "delay"
            elif r < self.drop_rate + self.delay_rate + self.duplicate_rate:
                fate = "duplicate"
            else:
                return "deliver"
        if fate == "drop":
            self.stats.drops += 1
            self.stats.retries += 1
        elif fate == "delay":
            self.stats.delays += 1
        else:
            self.stats.duplicates += 1
        self._record(idx, fate, point)
        return fate

    def message_fate(self, idx, attempt, point):
        """Fate of attempt ``attempt`` of op ``idx``'s message at ``point``:
        its routed ``"request"`` (a shipped message's only one) or its bulk
        ``"response"``."""
        return self._fate(idx, attempt, (point,))

    def replica_fate(self, idx, attempt, replica_index):
        """Fate of the pushed copy to the ``replica_index``-th member of the
        replica set (a hot extra copy's index follows the set's)."""
        return self._fate(idx, attempt, ("replica", replica_index))

    # -- crashes and restarts ---------------------------------------------------

    def may_crash(self, net, node, protect=None):
        """Would crashing ``node`` stay inside the safety envelope?"""
        if node is None or not node.alive or node is protect:
            return False
        if len(self.crashed) >= self.max_crashed:
            return False
        return len(net.alive_nodes()) - 1 >= self.min_alive

    def crash(self, net, node, op_index=None):
        """Crash ``node`` now (store intact) and schedule its restart."""
        idx = self._op if op_index is None else op_index
        net.crash_node(node)
        self.crashed.append(node)
        if self.restart_after_ops is not None:
            self._restart_at[node] = idx + self.restart_after_ops
        self.stats.crashes += 1
        self._record(idx, "crash", node.peer_index)

    def restart(self, net, node):
        """Bring a crashed ``node`` back (its keyspace re-synced on rejoin)."""
        net.restart_node(node)
        self.crashed.remove(node)
        self._restart_at.pop(node, None)
        self.stats.restarts += 1
        self._record(self._op, "restart", node.peer_index)

    def _crash_draw(self, idx, attempt, point):
        return _unit(self.seed, idx, attempt, point) < self.crash_rate

    def maybe_crash_hop(self, net, idx, hop, node, protect=None):
        """Crash the next routing hop of op ``idx`` (hop number ``hop``)."""
        scripted = self.script.get(idx) == "crash-hop" and hop == 0
        if not scripted and not self._crash_draw(idx, hop, ("crash-hop",)):
            return False
        if not self.may_crash(net, node, protect=protect):
            return False
        self.crash(net, node, op_index=idx)
        return True

    def maybe_crash_owner(self, net, idx, attempt, node, protect=None):
        """Crash the owner of op ``idx`` before it applies the operation."""
        scripted = self.script.get(idx) == "crash-owner" and attempt == 0
        if not scripted and not self._crash_draw(idx, attempt, ("crash-owner",)):
            return False
        if not self.may_crash(net, node, protect=protect):
            return False
        self.crash(net, node, op_index=idx)
        return True

    def crash_chunk_index(self, net, idx, attempt, num_chunks, node, protect=None):
        """Chunk index after which the stream holder of op ``idx`` dies.

        Returns None for an undisturbed stream.  Only streams of at least
        two chunks can be interrupted — a single-chunk response is
        indistinguishable from a blocking get.
        """
        if num_chunks < 2:
            return None
        scripted = self.script.get(idx)
        if attempt == 0 and isinstance(scripted, str) and scripted.startswith(
            "crash-chunk:"
        ):
            chunk = int(scripted.split(":", 1)[1])
        elif self._crash_draw(idx, attempt, ("crash-chunk",)):
            chunk = int(
                _unit(self.seed, idx, attempt, ("crash-chunk-pick",))
                * (num_chunks - 1)
            )
        else:
            return None
        if not self.may_crash(net, node, protect=protect):
            return None
        chunk = max(0, min(chunk, num_chunks - 2))
        self.crash(net, node, op_index=idx)
        self._record(idx, "crash-chunk", chunk)
        return chunk

    # -- scheduler jitter --------------------------------------------------------

    def task_delay(self, name, seq):
        """Deterministic extra seconds for scheduler task ``(name, seq)``."""
        if self.task_jitter_rate <= 0.0:
            return 0.0
        if _unit(self.seed, "task", name, seq) >= self.task_jitter_rate:
            return 0.0
        return self.task_jitter_s * _unit(self.seed, "task-len", name, seq)

    def __repr__(self):
        return (
            "FaultPlan(seed=%d, drop=%g, delay=%g, dup=%g, crash=%g, "
            "crashed=%d)"
            % (
                self.seed,
                self.drop_rate,
                self.delay_rate,
                self.duplicate_rate,
                self.crash_rate,
                len(self.crashed),
            )
        )


@dataclass
class RepairReport:
    """Outcome of one anti-entropy pass over the whole ring."""

    keys_checked: int = 0
    copies_made: int = 0
    bytes_copied: int = 0
    duration_s: float = 0.0
    lost_keys: tuple = ()

    def to_dict(self):
        return {
            "keys_checked": self.keys_checked,
            "copies_made": self.copies_made,
            "bytes_copied": self.bytes_copied,
            "duration_s": self.duration_s,
            "lost_keys": list(self.lost_keys),
        }
