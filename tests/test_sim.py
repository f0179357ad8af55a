"""Tests for the simulation substrate: meter, cost model, scheduler."""

import pytest

from repro.sim.cost import CostModel, CostParams
from repro.sim.meter import TrafficMeter
from repro.sim.tasks import Scheduler


class TestTrafficMeter:
    def test_records_by_category(self):
        m = TrafficMeter()
        m.record("postings", 100)
        m.record("postings", 50)
        m.record("filters", 10)
        assert m.bytes("postings") == 150
        assert m.bytes("filters") == 10
        assert m.bytes() == 160
        assert m.messages() == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrafficMeter().record("x", -1)

    def test_snapshot_delta(self):
        m = TrafficMeter()
        m.record("a", 5)
        snap = m.snapshot()
        m.record("a", 7)
        m.record("b", 3)
        delta = m.delta_since(snap)
        assert delta == {"a": 7, "b": 3}


class TestCostModel:
    def test_transfer_scales_with_bytes(self):
        cm = CostModel()
        assert cm.transfer_time(2_000_000) > cm.transfer_time(1_000)

    def test_transfer_scales_with_hops(self):
        cm = CostModel()
        assert cm.transfer_time(100, hops=4) > cm.transfer_time(100, hops=1)

    def test_expected_hops_log(self):
        cm = CostModel()
        assert cm.expected_hops(1) == 0
        assert cm.expected_hops(16) == 1
        assert cm.expected_hops(17) == 2
        assert cm.expected_hops(500) == 3

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CostParams(egress_bw=0)
        with pytest.raises(ValueError):
            CostParams(join_rate=-1)

    def test_store_time_is_the_sum_of_the_three_parts(self):
        """Bit for bit: the same three terms, added in the same order."""
        cm = CostModel()
        for read, written, ops in [(0, 0, 0), (4096, 8192, 1), (12_288, 4096, 37), (7, 3, 5)]:
            assert cm.store_time(read, written, ops) == (
                cm.disk_read_time(read) + cm.disk_write_time(written) + cm.store_op_time(ops)
            )

    def test_ingress_faster_than_egress_default(self):
        # the DPP parallel-transfer gain depends on this
        p = CostParams()
        assert p.ingress_bw > p.egress_bw


class TestScheduler:
    def test_empty(self):
        assert Scheduler().run() == 0.0

    def test_serial_dependency_chain(self):
        s = Scheduler()
        a = s.add_task("a", 1.0)
        b = s.add_task("b", 2.0, deps=[a])
        c = s.add_task("c", 3.0, deps=[b])
        assert s.run() == pytest.approx(6.0)
        assert c.start == pytest.approx(3.0)

    def test_parallel_without_contention(self):
        s = Scheduler()
        for i in range(5):
            s.add_task("t%d" % i, 2.0)
        assert s.run() == pytest.approx(2.0)

    def test_resource_capacity_one_serializes(self):
        s = Scheduler()
        s.add_resource("link", 1)
        for i in range(4):
            s.add_task("t%d" % i, 1.0, resources=("link",))
        assert s.run() == pytest.approx(4.0)

    def test_resource_capacity_k(self):
        s = Scheduler()
        s.add_resource("link", 2)
        for i in range(4):
            s.add_task("t%d" % i, 1.0, resources=("link",))
        assert s.run() == pytest.approx(2.0)

    def test_two_resources_both_required(self):
        s = Scheduler()
        s.add_resource("eg", 1)
        s.add_resource("in", 2)
        # two tasks share the same egress: serialized despite free ingress
        s.add_task("a", 1.0, resources=("eg", "in"))
        s.add_task("b", 1.0, resources=("eg", "in"))
        assert s.run() == pytest.approx(2.0)

    def test_dpp_shape_parallel_producers(self):
        """K producers into one consumer with capacity K finish together."""
        s = Scheduler()
        s.add_resource("ingress", 4)
        for i in range(4):
            s.add_resource("eg%d" % i, 1)
            s.add_task("t%d" % i, 3.0, resources=("eg%d" % i, "ingress"))
        assert s.run() == pytest.approx(3.0)

    def test_unknown_resource_rejected(self):
        s = Scheduler()
        with pytest.raises(KeyError):
            s.add_task("a", 1.0, resources=("nope",))

    def test_negative_duration_rejected(self):
        s = Scheduler()
        with pytest.raises(ValueError):
            s.add_task("a", -1.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Scheduler().add_resource("r", 0)

    def test_unregistered_dependency_rejected(self):
        s1, s2 = Scheduler(), Scheduler()
        foreign = s2.add_task("x", 1.0)
        s1.add_task("y", 1.0, deps=[foreign])
        with pytest.raises(ValueError):
            s1.run()

    def test_determinism(self):
        def build():
            s = Scheduler()
            s.add_resource("r", 2)
            tasks = [s.add_task("t%d" % i, (i % 3) + 0.5, resources=("r",)) for i in range(9)]
            makespan = s.run()
            return makespan, [(t.start, t.finish) for t in tasks]

        assert build() == build()

    def test_diamond_dependencies(self):
        s = Scheduler()
        a = s.add_task("a", 1.0)
        b = s.add_task("b", 2.0, deps=[a])
        c = s.add_task("c", 3.0, deps=[a])
        d = s.add_task("d", 1.0, deps=[b, c])
        assert s.run() == pytest.approx(5.0)
        assert d.start == pytest.approx(4.0)

    def test_queue_wait_attribution(self):
        """Tasks record when they became ready and what blocked them."""
        s = Scheduler()
        s.add_resource("link", 1)
        a = s.add_task("a", 2.0, resources=("link",))
        b = s.add_task("b", 1.0, resources=("link",))
        s.run()
        first, second = (a, b) if a.start == 0.0 else (b, a)
        assert first.ready == 0.0 and first.start == 0.0
        assert second.ready == 0.0
        assert second.start - second.ready == pytest.approx(first.duration)
        assert second.blocked_on == "link"
        assert first.blocked_on is None

    def test_dependent_ready_time(self):
        s = Scheduler()
        a = s.add_task("a", 1.5)
        b = s.add_task("b", 1.0, deps=[a])
        s.run()
        assert b.ready == pytest.approx(1.5)
        assert b.start == pytest.approx(1.5)  # no contention: starts when ready

    def test_cycle_error_lists_stuck_tasks_and_clears_state(self):
        """Regression: a failed run must not leave stale start/finish
        times on Task objects (they used to survive the RuntimeError)."""
        s = Scheduler()
        a = s.add_task("a", 1.0)
        b = s.add_task("b", 1.0, deps=[a])
        c = s.add_task("c", 1.0, deps=[b])
        done = s.add_task("done", 1.0)
        a.deps.append(c)  # a -> b -> c -> a
        with pytest.raises(RuntimeError) as err:
            s.run()
        for name in ("a", "b", "c"):
            assert name in str(err.value)
        assert "done" not in str(err.value)
        for task in (a, b, c, done):
            assert task.start is None
            assert task.finish is None
            assert task.ready is None
            assert task.blocked_on is None

    def test_release_delays_start(self):
        s = Scheduler()
        t = s.add_task("t", 1.0, release=5.0)
        assert s.run() == pytest.approx(6.0)
        assert t.ready == pytest.approx(5.0)
        assert t.start == pytest.approx(5.0)

    def test_release_interacts_with_deps(self):
        s = Scheduler()
        a = s.add_task("a", 2.0)
        b = s.add_task("b", 1.0, deps=[a], release=0.5)  # deps dominate
        c = s.add_task("c", 1.0, deps=[a], release=4.0)  # release dominates
        assert s.run() == pytest.approx(5.0)
        assert b.start == pytest.approx(2.0)
        assert c.ready == pytest.approx(4.0)
        assert c.start == pytest.approx(4.0)

    def test_release_waits_for_contended_resource(self):
        s = Scheduler()
        s.add_resource("link", 1)
        a = s.add_task("a", 3.0, resources=["link"])
        b = s.add_task("b", 1.0, resources=["link"], release=1.0)
        assert s.run() == pytest.approx(4.0)
        assert b.ready == pytest.approx(1.0)
        assert b.start == pytest.approx(3.0)

    def test_zero_release_schedule_unchanged(self):
        def build(**extra):
            s = Scheduler()
            s.add_resource("link", 2)
            a = s.add_task("a", 1.0, resources=["link"])
            b = s.add_task("b", 2.0, resources=["link"], **extra)
            c = s.add_task("c", 0.5, deps=[a, b])
            s.run()
            return [(t.ready, t.start, t.finish) for t in (a, b, c)]

        assert build() == build(release=0.0)

    def test_negative_release_rejected(self):
        s = Scheduler()
        with pytest.raises(ValueError):
            s.add_task("t", 1.0, release=-0.1)

    def test_rerun_after_cycle_fix(self):
        s = Scheduler()
        a = s.add_task("a", 1.0)
        b = s.add_task("b", 1.0, deps=[a])
        a.deps.append(b)
        with pytest.raises(RuntimeError):
            s.run()
        a.deps.remove(b)
        assert s.run() == pytest.approx(2.0)
        assert b.finish == pytest.approx(2.0)

    def test_capacities(self):
        s = Scheduler()
        s.add_resource("eg", 1)
        s.add_resource("in", 4)
        assert s.capacities() == {"eg": 1, "in": 4}
