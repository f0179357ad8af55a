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
"""

import heapq
from bisect import bisect_right, insort
from itertools import compress
from operator import attrgetter, itemgetter, not_

_DEPS = attrgetter("deps")
_FINISH = attrgetter("finish")
_RANK = attrgetter("priority", "seq")
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
        self, name, duration, deps=(), resources=(), release=0.0, tag=None, priority=0
    ):
        if duration < 0 or release < 0:  # one test on the per-task path
            if duration < 0:
                raise ValueError("task %r has negative duration %r" % (name, duration))
            raise ValueError("task %r has negative release %r" % (name, release))
        self.name, self.tag, self.priority = name, tag, priority
        self.duration, self.release = float(duration), float(release)
        self.deps, self.resources = list(deps), tuple(resources)
        # seq is assigned by the scheduler, the rest by Scheduler.run
        self.seq = self.start = self.finish = self.ready = self.blocked_on = None

    def __repr__(self):
        return "Task(%r, %.6gs)" % (self.name, self.duration)


class Scheduler:
    """Builds and runs a task graph; see module docstring."""

    def __init__(self):
        self._tasks = []  # in submission order: ``_tasks[t.seq] is t``
        self._capacity = {}
        self._faults = None  # optional repro.faults.FaultPlan (link jitter)
        self._ran = False  # tasks may carry a previous run's schedule

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

    def has_resource(self, name):
        return name in self._capacity

    def capacities(self):
        """``{resource: capacity}`` of every declared resource."""
        return dict(self._capacity)

    def add_task(
        self, name, duration, deps=(), resources=(), release=0.0, tag=None, priority=0
    ):
        """Create, register, and return a :class:`Task`."""
        task = Task(name, duration, deps, resources, release, tag, priority)
        if not all(map(self._capacity.__contains__, task.resources)):
            res = next(r for r in task.resources if r not in self._capacity)
            raise KeyError("unknown resource %r for task %r" % (res, name))
        task.seq = len(self._tasks)
        self._tasks.append(task)
        return task

    def run(self):
        """Execute the graph; returns the makespan in simulated seconds.

        Start/finish times are stored on each task.
        """
        tasks = self._tasks
        if not tasks:
            return 0.0

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

        if self._ran:  # a fresh run owes no state to a prior one
            for task in tasks:
                task.start = task.finish = task.ready = task.blocked_on = None
        self._ran = True
        free = dict(self._capacity)
        slots = free.__getitem__
        faults = self._faults
        # Tasks whose dependencies are done wait in ``pending``, sorted by
        # ``(release, seq)``, until simulated time reaches their release
        # (seq is unique, so the task riding along is never compared), then
        # in ``ready`` until every resource they name has a free slot.
        pending = sorted((t.release, t.seq, t) for t in compress(tasks, map(not_, remaining_deps)))
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

    @property
    def tasks(self):
        return list(self._tasks)

    def makespan_of(self, tasks):
        """Max finish time over ``tasks`` (after :meth:`run`)."""
        return max(t.finish for t in tasks)

    def running_at(self, instant_s, tag=None):
        """Tasks executing at ``instant_s`` (after :meth:`run`).

        A task runs over ``[start, finish)`` — half-open, so a task
        counts at its start instant but not at its finish, and abutting
        tasks never double-count.  ``tag`` restricts to one submitter's
        tasks (e.g. a serving query's seq).  Read-only: telemetry
        samples shared-timeline concurrency through this without being
        able to perturb the schedule.
        """
        return [
            t
            for t in self._tasks
            if t.start is not None
            and t.finish is not None
            and t.start <= instant_s < t.finish
            and (tag is None or t.tag == tag)
        ]


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
