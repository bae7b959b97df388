"""Backend conformance: every registered kernel backend, one contract.

The simulator drives a backend through six methods plus counters
(``src/repro/kernel/backend.py``'s table).  This suite runs the same
operation sequences against every name in ``KERNEL_BACKENDS`` and
asserts identical observable behaviour — firing order, peek/len/pop
semantics, counter meanings, and the ``pending_entries`` snapshot hook
(kind classification and global firing order), so a future backend
cannot silently diverge from the contract checkpointing now also
depends on.
"""

import pytest

from repro.kernel import Simulator
from repro.kernel.backend import KERNEL_BACKENDS, make_backend
from repro.kernel.errors import SimulationError
from repro.kernel.event import EventQueue, PendingEntry


pytestmark = pytest.mark.parametrize("backend", KERNEL_BACKENDS)


def _fresh_queue(backend):
    return make_backend(backend)


class TestQueuePrimitives:

    def test_make_backend_resolves_names(self, backend):
        queue = _fresh_queue(backend)
        assert hasattr(queue, "push")
        if backend == "classic":
            assert isinstance(queue, EventQueue)

    def test_push_fires_in_time_priority_seq_order(self, backend):
        sim = Simulator(backend=backend)
        fired = []
        sim.schedule_at(5, lambda: fired.append("t5a"))
        sim.schedule_at(3, lambda: fired.append("t3"))
        sim.schedule_at(5, lambda: fired.append("t5b"))
        sim.schedule_at(5, lambda: fired.append("t5pri"), priority=-1)
        sim.run()
        assert fired == ["t3", "t5pri", "t5a", "t5b"]

    def test_push_fn_and_push_resume_interleave_with_push(self, backend):
        sim = Simulator(backend=backend)
        queue = sim._queue
        fired = []
        queue.push(4, 0, lambda: fired.append("push"))
        queue.push_fn(4, lambda: fired.append("push_fn"))

        def proc():
            fired.append("resume")
            yield 0

        process = sim.spawn(proc(), name="p", delay=4)
        assert process is not None
        sim.run()
        # same cycle, all priority 0: seq (insertion) order decides
        assert fired == ["push", "push_fn", "resume"]

    def test_len_counts_live_entries_only(self, backend):
        queue = _fresh_queue(backend)
        events = [queue.push(time, 0, lambda: None)
                  for time in (1, 2, 3)]
        assert len(queue) == 3
        events[1].cancel()
        assert len(queue) == 2
        assert queue.events_cancelled == 1

    def test_peek_time_skips_cancelled(self, backend):
        queue = _fresh_queue(backend)
        first = queue.push(1, 0, lambda: None)
        queue.push(7, 0, lambda: None)
        assert queue.peek_time() == 1
        first.cancel()
        assert queue.peek_time() == 7

    def test_peek_time_empty_is_none(self, backend):
        assert _fresh_queue(backend).peek_time() is None

    def test_pop_entry_returns_time_and_fires(self, backend):
        queue = _fresh_queue(backend)
        fired = []
        queue.push(9, 0, lambda: fired.append("a"))
        queue.push(2, 0, lambda: fired.append("b"))
        entries = []
        while True:
            popped = queue.pop_entry()
            if popped is None:
                break
            time, fire = popped
            fire()
            entries.append(time)
        assert entries == [2, 9]
        assert fired == ["b", "a"]
        assert len(queue) == 0

    def test_drain_dispatches_everything(self, backend):
        sim = Simulator(backend=backend)
        fired = []
        for time in (6, 1, 3):
            sim.schedule_at(time, lambda t=time: fired.append(t))
        sim._queue.drain(sim)
        assert fired == [1, 3, 6]
        assert len(sim._queue) == 0

    @pytest.mark.parametrize("value", [-1, True, "x"])
    def test_drain_rejects_bad_yield(self, backend, value):
        def message(name):
            sim = Simulator(backend=name)

            def proc():
                yield 2
                yield value

            sim.spawn(proc(), name="bad")
            with pytest.raises(SimulationError) as info:
                sim._queue.drain(sim)
            return str(info.value), sim.now

        assert message(backend) == message("classic")

    def test_counter_surface(self, backend):
        queue = _fresh_queue(backend)
        for name in ("tombstones", "events_cancelled", "compactions",
                     "peak_size"):
            assert isinstance(getattr(queue, name), int), name


class TestPendingEntries:
    """The snapshot hook: classification and firing order."""

    def test_firing_order_and_times(self, backend):
        sim = Simulator(backend=backend)
        queue = sim._queue
        queue.push(8, 0, lambda: None)
        queue.push(2, 0, lambda: None)
        queue.push(5, 0, lambda: None)
        assert [entry.time for entry in queue.pending_entries()] \
            == [2, 5, 8]

    def test_process_resume_is_claimable(self, backend):
        sim = Simulator(backend=backend)

        def proc():
            yield 10

        process = sim.spawn(proc(), name="sleeper")
        sim.run(until=0)
        entries = sim._queue.pending_entries()
        assert len(entries) == 1
        entry = entries[0]
        assert isinstance(entry, PendingEntry)
        assert entry.time == 10
        assert entry.process is process
        assert entry.fn is None

    def test_payload_resume_is_opaque(self, backend):
        sim = Simulator(backend=backend)

        def proc():
            yield 1

        process = sim.spawn(proc(), name="p")
        sim._queue.pending_entries()        # spawn resume is claimable
        sim.run(until=0)
        sim._queue.push_resume(5, process, "payload")
        entries = [e for e in sim._queue.pending_entries()
                   if e.time == 5]
        assert len(entries) == 1
        assert entries[0].process is None
        assert entries[0].fn is None

    def test_bare_callback_exposes_fn_identity(self, backend):
        queue = _fresh_queue(backend)

        def callback():
            pass

        queue.push_fn(3, callback)
        entries = queue.pending_entries()
        assert len(entries) == 1
        assert entries[0].process is None
        assert entries[0].fn is callback

    def test_event_callback_exposes_fn_identity(self, backend):
        sim = Simulator(backend=backend)

        def callback():
            pass

        sim.schedule_after(4, callback)
        entries = sim._queue.pending_entries()
        assert len(entries) == 1
        assert entries[0].fn is callback

    def test_cancelled_events_not_listed(self, backend):
        queue = _fresh_queue(backend)
        keep = queue.push(1, 0, lambda: None)
        drop = queue.push(2, 0, lambda: None)
        drop.cancel()
        assert [e.time for e in queue.pending_entries()] == [1]
        assert keep is not None

    def test_read_only(self, backend):
        sim = Simulator(backend=backend)
        fired = []
        sim.schedule_at(1, lambda: fired.append(1))
        sim.schedule_at(2, lambda: fired.append(2))
        before = [e.time for e in sim._queue.pending_entries()]
        after = [e.time for e in sim._queue.pending_entries()]
        assert before == after == [1, 2]
        sim.run()
        assert fired == [1, 2]

    def test_mixed_priority_order_preserved(self, backend):
        sim = Simulator(backend=backend)
        queue = sim._queue
        queue.push(5, 0, lambda: None)
        queue.push(5, -2, lambda: None)     # forces calendar mixed mode
        queue.push(3, 1, lambda: None)
        times = [e.time for e in queue.pending_entries()]
        assert times == [3, 5, 5]


class TestCrossBackendParity:
    """The same schedule produces the same pending view on any backend."""

    def test_pending_parity_after_identical_schedule(self, backend):
        def build(name):
            sim = Simulator(backend=name)

            def proc():
                yield 10
                yield 20

            sim.spawn(proc(), name="tg")
            sim.schedule_after(7, _marker)
            sim.run(until=0)
            return sim

        reference = build("classic")
        candidate = build(backend)
        ref_view = [(e.time, e.process is not None,
                     e.fn is not None)
                    for e in reference._queue.pending_entries()]
        cand_view = [(e.time, e.process is not None,
                      e.fn is not None)
                     for e in candidate._queue.pending_entries()]
        assert cand_view == ref_view

    def test_event_counters_after_identical_run(self, backend):
        def run(name):
            sim = Simulator(backend=name)
            fired = []

            def proc():
                for _ in range(5):
                    yield 3
                fired.append(sim.now)

            sim.spawn(proc(), name="p")
            handle = sim.schedule_at(100, lambda: fired.append(-1))
            handle.cancel()
            sim.run()
            return sim.events_fired, sim.now, fired

        assert run(backend) == run("classic")


def _marker():
    pass
