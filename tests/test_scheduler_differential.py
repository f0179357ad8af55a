"""Differential test of the scheduler against the event loop it replaced.

``ReferenceScheduler`` below is ``Scheduler`` (and ``Task``) as they were
before gated schedules got a closed form: every graph ran the event loop.
Random graphs (dependencies with duplicates, releases, priorities,
zero-length tasks, equal finish times, link jitter, re-runs after adding
tasks, cycles, and every error) and transfer-shaped graphs (a sender link
and a shared ingress per task, no dependencies, one lazy release) must give
identical task fields, makespans and errors.  So must the schedules
:class:`Transfers` builds, which register their tasks without the
scheduler's checks and hand it the gated shape they know.
"""

import heapq
from bisect import bisect_right, insort
from itertools import compress
from operator import attrgetter, itemgetter, not_

from hypothesis import given, settings, strategies as st

from repro.dht.network import DhtNetwork
from repro.faults import FaultPlan
from repro.sim.tasks import Scheduler

_DEPS = attrgetter("deps")
_FINISH = attrgetter("finish")
_RANK = attrgetter("priority", "seq")
_RELEASE = attrgetter("release")
_SEQ = attrgetter("seq")
_TASK = itemgetter(2)  # of a (release, seq, task) or (finish, seq, task) entry
_LAST = float("inf")  # sorts after every seq


class RefTask:
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


class ReferenceScheduler:
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
        task = RefTask(name, duration, deps, resources, release, tag, priority)
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


# -- driving both schedulers with one script ----------------------------------

_TIMES = st.sampled_from([0, 0.0, 0.5, 1.0, 1.5, 2.0, 3]) | st.floats(0.0, 4.0)


def _fields(task, seq_of):
    """Every field of ``task``, by ``repr`` so that 1 and 1.0 differ."""
    return repr(
        (
            task.name, task.duration, task.release, task.tag, task.priority, task.seq,
            task.resources, type(task.deps), [seq_of(dep) for dep in task.deps],
            task.start, task.finish, task.ready, task.blocked_on,
        )
    )


def _outcome(call):
    try:
        return ("ok", repr(call()))
    except (KeyError, ValueError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc))


class _Pair:
    """The reference and the scheduler under test, fed the same calls."""

    def __init__(self, capacities, plan=None):
        self.ref, self.new = ReferenceScheduler(), Scheduler()
        self.ref_tasks, self.new_tasks = [], []
        self.foreign = (ReferenceScheduler().add_task("x", 1.0), Scheduler().add_task("x", 1.0))
        for name, capacity in capacities:
            assert _outcome(lambda: self.ref.add_resource(name, capacity)) == _outcome(
                lambda: self.new.add_resource(name, capacity)
            )
        if plan is not None:
            self.ref.install_faults(plan)
            self.new.install_faults(plan)

    def add(self, name, duration, deps, resources, release, priority, tag=None, foreign=False):
        for sched, made, other in (
            (self.ref, self.ref_tasks, self.foreign[0]),
            (self.new, self.new_tasks, self.foreign[1]),
        ):
            task_deps = [made[i] for i in deps] + ([other] if foreign else [])
            yield _outcome(
                lambda: made.append(
                    sched.add_task(name, duration, task_deps, resources, release, tag, priority)
                )
            )

    def check(self, outcomes):
        ref, new = outcomes
        assert ref == new
        seq = lambda dep: dep.seq  # noqa: E731
        assert list(map(_fields, self.ref_tasks, [seq] * len(self.ref_tasks))) == list(
            map(_fields, self.new_tasks, [seq] * len(self.new_tasks))
        )

    def run(self):
        self.check((_outcome(self.ref.run), _outcome(self.new.run)))


@st.composite
def _scripts(draw):
    capacities = draw(
        st.lists(st.tuples(st.sampled_from("abcde"), st.integers(1, 3)), max_size=5)
    )
    names = sorted({name for name, _ in capacities})
    steps = []
    size = 0
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["task"] * 6 + ["run", "cycle", "error"]))
        if kind == "task" or (kind == "cycle" and size < 2):
            deps = draw(st.lists(st.integers(0, size - 1), max_size=3)) if size else []
            resources = tuple(draw(st.permutations(names))[: draw(st.integers(0, 3))])
            duration, release, priority = draw(_TIMES), draw(_TIMES), draw(st.integers(0, 2))
            steps.append(("task", duration, deps, resources, release, priority))
            size += 1
        elif kind == "cycle":
            early, late = sorted(draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2)))
            steps.append(("cycle", early, late))
        else:
            steps.append((kind,))
    return capacities, steps


def _replay(capacities, steps, plan):
    pair = _Pair(capacities, plan)
    size = 0
    for step in steps:
        if step[0] == "task":
            _, duration, deps, resources, release, priority = step
            pair.check(list(pair.add("t%d" % size, duration, deps, resources, release, priority)))
            size += 1
        elif step[0] == "cycle":  # an earlier task now waits on a later one
            pair.ref_tasks[step[1]].deps.append(pair.ref_tasks[step[2]])
            pair.new_tasks[step[1]].deps.append(pair.new_tasks[step[2]])
        elif step[0] == "error":  # rejected tasks are not registered
            good = dict(name="bad", duration=1.0, deps=[], resources=(), release=0.0, priority=0)
            for bad in (dict(duration=-1.0), dict(release=-0.5), dict(resources=("nope",))):
                pair.check(list(pair.add(**{**good, **bad})))
            # a dependency on another scheduler's task fails the run
            broken = _Pair(capacities, plan)
            broken.check(list(broken.add("bad", 1.0, [], (), 0.0, 0, foreign=True)))
            broken.run()
        pair.run()
    pair.run()  # and once more: a re-run owes nothing to the last one


_PLANS = st.none() | st.builds(
    FaultPlan, seed=st.integers(0, 50), task_jitter_rate=st.sampled_from([0.0, 0.5, 1.0])
)


class TestAgainstTheEventLoop:
    @settings(max_examples=200, deadline=None)
    @given(_scripts(), _PLANS)
    def test_random_graphs(self, script, plan):
        capacities, steps = script
        _replay(capacities, steps, plan)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(
            st.tuples(st.integers(0, 4), st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 2)),
            min_size=1,
            max_size=14,
        ),
        st.sampled_from([0.0, 0.0, 0.75]),
        st.booleans(),
        _PLANS,
    )
    def test_transfer_shaped_schedules(self, slots, transfers, release, stagger, plan):
        """A sender link and the shared ingress per task, no dependencies,
        one lazy release (or, with ``stagger``, one per task)."""
        senders = sorted({sender for sender, _ in transfers})
        pair = _Pair([("ingress", slots)] + [("egress:%d" % s, 1) for s in senders], plan)
        for i, (sender, seconds) in enumerate(transfers):
            when = release + (0.25 * (i % 3) if stagger else 0.0)
            links = ("egress:%d" % sender, "ingress")
            pair.check(list(pair.add("blk:%d" % i, seconds, [], links, when, 0)))
        pair.run()
        first = ("egress:%d" % senders[0], "ingress")
        pair.check(list(pair.add("late", 0.5, [], first, release, 0)))  # a re-run
        pair.run()

    @settings(max_examples=200, deadline=None)
    @given(st.data(), _PLANS)
    def test_near_gated_graphs(self, data, plan):
        """No dependencies, and everything else on either side of the closed
        form's conditions: gates of capacity 1 or 2, other resources with
        about as many slots as there are gates, one or two releases and
        priorities."""
        draw = data.draw
        gates = ["g%d" % i for i in range(draw(st.integers(1, 4)))]
        others = ["r%d" % i for i in range(draw(st.integers(0, 2)))]
        capacities = [(g, draw(st.sampled_from([1, 1, 1, 2]))) for g in gates]
        capacities += [(r, draw(st.integers(1, len(gates) + 1))) for r in others]
        pair = _Pair(capacities, plan)
        releases = draw(st.sampled_from([[0.0], [0.5], [0.0, 0.5]]))
        priorities = draw(st.sampled_from([[0], [0], [0, 1]]))
        for i in range(draw(st.integers(1, 10))):
            tail = draw(st.permutations(others))[: draw(st.integers(0, 2))]
            resources = (draw(st.sampled_from(gates)),) + tuple(tail)
            if draw(st.integers(0, 9)) == 0:  # a gate named second, or no resource at all
                resources = resources[::-1] if tail else ()
            duration = draw(st.sampled_from([0.0, 0.5, 1.0]))
            release, priority = draw(st.sampled_from(releases)), draw(st.sampled_from(priorities))
            pair.check(list(pair.add("t%d" % i, duration, [], resources, release, priority)))
        pair.run()

    def test_transfer_schedules_take_the_closed_form(self):
        sched = Scheduler()
        sched.add_resource("ingress", 2)
        for sender in (1, 2, 1):
            sched.add_resource("egress:%d" % sender, 1)
            sched.add_task("t", 1.0, resources=("egress:%d" % sender, "ingress"), release=0.5)
        assert sched._run_gated(sched.tasks) == sched.run() == 2.5
        sched.add_task("t", 1.0, resources=("ingress",), release=0.0)
        assert sched._run_gated(sched.tasks) is None  # two releases: the event loop


def _transfer_batches():
    """One or two batches of ``(sender, seconds, release)`` transfers:
    one release for all or mixed ones, up to six senders."""
    seconds = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 2)
    batch = st.lists(
        st.tuples(st.integers(0, 5), seconds, st.sampled_from([0.0, 0.0, 0.25, 0.75])),
        min_size=1,
        max_size=12,
    )
    return st.tuples(st.booleans(), batch, st.lists(batch, max_size=1))


class TestTransfersAgainstTheEventLoop:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), _transfer_batches(), _PLANS)
    def test_transfers_equal_the_event_loop(self, slots, batches, plan):
        """Every task field and the makespan, with ``ingress`` often
        narrower than the distinct senders, one or mixed releases, a jitter
        plan, a second ``run`` with nothing new, and a third after a second
        batch of transfers."""
        one_release, first, more = batches
        net = DhtNetwork()
        net.faults = plan
        built = net.transfers(slots)
        ref = ReferenceScheduler()
        ref.add_resource("ingress", slots)
        if plan is not None:
            ref.install_faults(plan)
        seq = lambda task: task.seq  # noqa: E731
        for batch in [first] + more:
            for sender, seconds, release in batch:
                name = "blk:%d" % len(ref._tasks)
                release = first[0][2] if one_release else release
                built.transfer(name, seconds, sender, release)
                ref.add_resource("egress:%d" % sender, 1)
                ref.add_task(name, seconds, [], ("egress:%d" % sender, "ingress"), release)
            for _ in range(2):  # and a re-run with nothing new
                assert _outcome(built.run) == _outcome(ref.run)
                assert built.capacities() == ref.capacities()
                assert [_fields(t, seq) for t in built.tasks] == [
                    _fields(t, seq) for t in ref._tasks
                ]

    def test_transfers_hand_over_only_a_gated_shape(self):
        net = DhtNetwork()
        one = net.transfers(2)
        for sender in (1, 2, 1):
            one.transfer("t", 1.0, sender, release=0.5)
        assert one.run() == 2.5
        assert one._gates == ["egress:1", "egress:2", "egress:1"]
        assert one.run() == 2.5 and one._gates is None  # a re-run checks again
        narrow = net.transfers(1)
        for sender in (1, 2):
            narrow.transfer("t", 1.0, sender)
        assert narrow.run() == 2.0 and narrow._gates is None
        mixed = net.transfers(2)
        mixed.transfer("t", 1.0, 1)
        mixed.transfer("t", 1.0, 2, release=0.5)
        assert mixed.run() == 1.5 and mixed._gates is None

    def test_a_bad_duration_registers_no_transfer(self):
        built = DhtNetwork().transfers(2)
        built.transfer("ok", 1.0, 1)
        built.transfer("bad", -1.0, 2)
        try:
            built.run()
        except ValueError as exc:
            assert "negative duration" in str(exc)
        else:
            raise AssertionError("a negative duration was scheduled")
        assert built.tasks == [] and built.run() == 0.0
