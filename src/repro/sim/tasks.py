"""A deterministic task-graph scheduler with capacity-slot resources.

Parallel behaviour — the heart of the DPP experiments — is modelled as a
directed acyclic graph of tasks with fixed durations, competing for named
resources.  A resource has an integer ``capacity``: the number of tasks that
may hold it concurrently (e.g. a consumer peer's ingress link with capacity
``K`` models the paper's "maximum degree of parallelism K" for DPP block
transfers; a producer's egress link with capacity 1 serializes its
transfers).

The schedule is computed by discrete-event list scheduling: at every event
time, ready tasks are started greedily in ``(priority, submission)`` order
if *all* their resources have a free slot.  Every task defaults to priority
0, so plain graphs schedule purely by submission order; the serving engine
(:mod:`repro.kadop.serving`) sets per-query progress ordinals as priorities
so concurrent queries share contended resources round-robin instead of
strictly by admission order.  Ties are broken by submission order, so the
result is fully deterministic either way.

Most schedules are parallel transfers into one peer: no dependencies, one
release and one priority, each task gated by its sender's link.  Those are
computed in closed form (:meth:`Scheduler._run_gated`), with a result
identical to the event loop's; every other graph runs the event loop.
"""

import heapq
from bisect import bisect_right, insort
from itertools import chain, compress
from operator import add, attrgetter, itemgetter, not_

_DEPS = attrgetter("deps")
_DURATION = attrgetter("duration")
_FINISH = attrgetter("finish")
_NAME = attrgetter("name")
_RANK = attrgetter("priority", "seq")
_RELEASE = attrgetter("release")
_WHEN = attrgetter("release", "priority")
_RESOURCES = attrgetter("resources")
_SEQ = attrgetter("seq")
_GATE = itemgetter(0)  # of a resource tuple
_TAIL = itemgetter(slice(1, None))  # of a resource tuple
_TASK = itemgetter(2)  # of a (release, seq, task) or (finish, seq, task) entry
_LAST = float("inf")  # sorts after every seq


class Task:
    """One unit of simulated work.

    ``duration``   simulated seconds of work once started.
    ``deps``       tasks that must finish before this one may start.
    ``resources``  names of resources a slot of which is held while running
                   (distinct names: a task holds one slot of each).
    ``release``    earliest simulated instant the task may start, even when
                   all dependencies are done (models work submitted to an
                   already-running schedule, e.g. a lazy DPP block fetch
                   demanded mid-join).
    ``tag``        opaque owner label (e.g. the serving engine's query seq)
                   so a shared schedule can be sliced back per submitter.
    ``priority``   list-scheduling rank: among ready tasks, lower priority
                   starts first (ties by submission order).  Defaults to 0
                   everywhere, which reproduces pure submission order.

    After :meth:`Scheduler.run`, ``start``/``finish`` hold the schedule,
    ``ready`` the instant the task became startable (dependencies done and
    release time reached, so ``start - ready`` is the queue wait), and
    ``blocked_on`` the resource that last had no free slot when the task
    was passed over (None if it started at once).
    """

    __slots__ = (
        "name",
        "duration",
        "deps",
        "resources",
        "release",
        "tag",
        "priority",
        "seq",
        "start",
        "finish",
        "ready",
        "blocked_on",
    )

    def __init__(
        self, name, duration, deps=(), resources=(), release=0.0, tag=None, priority=0, seq=None
    ):
        if duration < 0 or release < 0:  # one test on the per-task path
            if duration < 0:
                raise ValueError("task %r has negative duration %r" % (name, duration))
            raise ValueError("task %r has negative release %r" % (name, release))
        self.name, self.tag, self.priority, self.seq = name, tag, priority, seq
        self.deps, self.resources = list(deps), tuple(resources)
        self.duration, self.release = float(duration), float(release)
        self.start = self.finish = self.ready = self.blocked_on = None  # set by Scheduler.run

    def __repr__(self):
        return "Task(%r, %.6gs)" % (self.name, self.duration)


class Scheduler:
    """Builds and runs a task graph; see module docstring."""

    def __init__(self):
        # _tasks in submission order (``_tasks[t.seq] is t``); _faults an
        # optional repro.faults.FaultPlan (link jitter); _gates each task's
        # gate, set by a subclass that knows its tasks gated (_run_gated)
        self._tasks, self._capacity, self._faults, self._gates = [], {}, None, None

    def install_faults(self, plan):
        """Attach a :class:`~repro.faults.FaultPlan`; started tasks are
        stretched by its deterministic link jitter (``task_delay``).  A
        plan with ``task_jitter_rate`` 0 leaves every schedule
        byte-identical to running without one."""
        self._faults = plan
        return plan

    def add_resource(self, name, capacity):
        """Declare resource ``name`` with integer slot ``capacity``."""
        if capacity < 1:
            raise ValueError("resource %r needs capacity >= 1" % (name,))
        self._capacity[name] = int(capacity)
        return name

    def capacities(self):
        """``{resource: capacity}`` of every declared resource."""
        return dict(self._capacity)

    def add_task(
        self, name, duration, deps=(), resources=(), release=0.0, tag=None, priority=0
    ):
        """Create, register, and return a :class:`Task`."""
        task = Task(name, duration, deps, resources, release, tag, priority, len(self._tasks))
        if not self._capacity.keys() >= set(task.resources):
            res = next(r for r in task.resources if r not in self._capacity)
            raise KeyError("unknown resource %r for task %r" % (res, name))
        self._tasks += (task,)
        return task

    def run(self):
        """Execute the graph; returns the makespan in simulated seconds.

        Start/finish times are stored on each task.
        """
        tasks = self._tasks
        if not tasks:
            return 0.0
        if (makespan := self._run_gated(tasks, self._gates)) is not None:
            return makespan

        remaining_deps = list(map(len, map(_DEPS, tasks)))  # by seq
        dependents = {}  # seq -> tasks waiting on it, in submission order
        for task in filter(_DEPS, tasks):
            for dep in task.deps:
                seq = dep.seq
                if seq is None or seq >= len(tasks) or tasks[seq] is not dep:
                    raise ValueError(
                        "task %r depends on unregistered task %r" % (task.name, dep.name)
                    )
                dependents.setdefault(seq, []).append(task)

        for task in tasks:  # a fresh run owes no state to a prior one
            task.start = task.finish = task.ready = task.blocked_on = None
        free = dict(self._capacity)
        slots = free.__getitem__
        faults = self._faults
        # Tasks whose dependencies are done wait in ``pending``, sorted by
        # ``(release, seq)``, until simulated time reaches their release
        # (seq is unique, so the task riding along is never compared), then
        # in ``ready`` until every resource they name has a free slot.
        roots = list(compress(tasks, map(not_, remaining_deps)))
        pending = sorted(zip(map(_RELEASE, roots), map(_SEQ, roots), roots))
        ready = []
        running = []  # heap of (finish_time, seq, task)
        now = 0.0

        def try_start():
            """Start, in ``(priority, seq)`` order, every ready task whose
            resources allow it; the others stay ready."""
            nonlocal ready
            ready.sort(key=_RANK)
            blocked = []
            for task in ready:
                # slot counts never go below 0: a resource with no free
                # slot reads exactly 0
                if 0 in map(slots, task.resources):
                    task.blocked_on = task.resources[list(map(slots, task.resources)).index(0)]
                    blocked.append(task)
                else:
                    for r in task.resources:
                        free[r] -= 1
                    task.start = now
                    if faults is None:
                        task.finish = now + task.duration
                    else:
                        # deterministic congestion jitter: a keyed hash of
                        # (name, seq) decides whether — and by how much —
                        # this transfer is stretched, so schedules replay
                        # exactly from the plan's seed
                        task.finish = now + (
                            task.duration + faults.task_delay(task.name, task.seq)
                        )
                    heapq.heappush(running, (task.finish, task.seq, task))
            ready = blocked

        while running or pending:
            if running and (not pending or running[0][0] <= pending[0][0]):
                now, _, task = heapq.heappop(running)
                for r in task.resources:
                    free[r] += 1
                if dependents:
                    for child in dependents.get(task.seq, ()):
                        remaining_deps[child.seq] -= 1
                        if not remaining_deps[child.seq]:
                            if child.release > now:
                                insort(pending, (child.release, child.seq, child))
                            else:
                                child.ready = now
                                ready.append(child)
                if running and running[0][0] == now:
                    continue  # everything that ends at this instant ends before anything starts
            else:
                now = pending[0][0]
            if pending and pending[0][0] <= now:
                released = bisect_right(pending, (now, _LAST))
                admitted = list(map(_TASK, pending[:released]))
                del pending[:released]
                for task in admitted:
                    task.ready = now
                ready += admitted
            if ready:
                try_start()

        if None in map(_FINISH, tasks):
            stuck = [t.name for t in tasks if t.finish is None]
            # a failed run leaves no schedule: wipe the partial times so no
            # caller can mistake them for a completed run's accounting
            for task in tasks:
                task.start = task.finish = task.ready = task.blocked_on = None
            raise RuntimeError(
                "schedule did not complete; cyclic dependencies among %r" % (stuck,)
            )
        return now

    def _run_gated(self, tasks, gates=None):
        """The schedule in closed form when the tasks are gated; None (run
        the event loop) when they are not.

        Gated means: no dependencies; one release and one priority for all
        tasks; every task names a resource of capacity 1 first (its *gate*);
        and every other resource has at least as many slots as there are
        distinct gates.  Tasks that run at once hold different gates, so
        such a resource is full only while every gate is held, including
        the gate of the task waiting for it, which that task names first.
        It never keeps a task from starting and is never the resource a task
        is blocked on.  Each gate is then a queue served in submission
        order: the first task of a gate starts at the release, unblocked,
        and every later one when the previous task of its gate finishes,
        blocked on the gate.  That is where the event loop starts them.

        ``gates``, each task's gate, comes from a subclass that knows its
        tasks gated (:class:`~repro.dht.network.Transfers` sets
        ``_gates``); the conditions are then not checked again.
        """
        if gates is None:
            resources = list(map(_RESOURCES, tasks))
            if any(map(_DEPS, tasks)) or len(set(map(_WHEN, tasks))) > 1 or not all(resources):
                return None
            gates = list(map(_GATE, resources))
            capacity = self._capacity.__getitem__
            others = map(capacity, chain(*map(_TAIL, resources)))
            if max(map(capacity, gates)) > 1 or min(others, default=1) < len(set(gates)):
                return None
        spans = map(_DURATION, tasks) if self._faults is None else self._jittered(tasks)
        release = tasks[0].release
        # gate -> (when it is next free, what a task waiting for it is blocked
        # on, when that task became ready); the second assignment also
        # stores the first field as the task's finish
        busy = dict.fromkeys(gates, (release, None, release))
        for task, gate, span in zip(tasks, gates, spans):
            task.start, task.blocked_on, task.ready = busy[gate]
            busy[gate] = (task.finish, _, _) = (task.start + span, gate, release)
        return max(map(_FINISH, tasks))

    def _jittered(self, tasks):
        """Each task's duration plus its link jitter, summed as the event
        loop sums them (``now + (duration + delay)``)."""
        delays = map(self._faults.task_delay, map(_NAME, tasks), map(_SEQ, tasks))
        return map(add, map(_DURATION, tasks), delays)

    @property
    def tasks(self):
        return list(self._tasks)

    def makespan_of(self, tasks):
        """Max finish time over ``tasks`` (after :meth:`run`)."""
        return max(t.finish for t in tasks)


def serial_time(durations):
    """Helper: total time of strictly sequential work."""
    return float(sum(durations))


def parallel_time(durations, degree):
    """Helper: makespan of independent tasks on ``degree`` parallel workers.

    Deterministic longest-processing-time-first list scheduling.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    loads = sorted(durations, reverse=True)
    if not loads:
        return 0.0
    heap = [0.0] * min(degree, len(loads))
    for d in loads:
        soonest = heapq.heappop(heap)
        heapq.heappush(heap, soonest + d)
    return max(heap)
