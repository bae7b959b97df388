"""Unit tests for the event queue ordering guarantees."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.kernel.errors import SimulationError
from repro.kernel.event import _COMPACT_MIN_SIZE, EventQueue, PendingEntry


def drain(queue):
    events = []
    while True:
        event = queue.pop()
        if event is None:
            return events
        events.append(event)


class TestEventQueueBasics:
    def test_empty_queue_pops_none(self):
        assert EventQueue().pop() is None

    def test_empty_queue_peek_none(self):
        assert EventQueue().peek_time() is None

    def test_len_tracks_pushes(self):
        queue = EventQueue()
        for i in range(5):
            queue.push(i, 0, lambda: None)
        assert len(queue) == 5

    def test_pop_orders_by_time(self):
        queue = EventQueue()
        queue.push(30, 0, lambda: None)
        queue.push(10, 0, lambda: None)
        queue.push(20, 0, lambda: None)
        assert [e.time for e in drain(queue)] == [10, 20, 30]

    def test_same_time_orders_by_priority(self):
        queue = EventQueue()
        queue.push(5, 2, lambda: None)
        queue.push(5, 0, lambda: None)
        queue.push(5, 1, lambda: None)
        assert [e.priority for e in drain(queue)] == [0, 1, 2]

    def test_same_time_same_priority_is_fifo(self):
        queue = EventQueue()
        order = []
        for i in range(10):
            queue.push(7, 0, lambda i=i: order.append(i))
        for event in drain(queue):
            event.fn()
        assert order == list(range(10))

    def test_peek_time_returns_earliest(self):
        queue = EventQueue()
        queue.push(9, 0, lambda: None)
        queue.push(4, 0, lambda: None)
        assert queue.peek_time() == 4

    def test_cancelled_event_is_skipped(self):
        queue = EventQueue()
        victim = queue.push(1, 0, lambda: None)
        queue.push(2, 0, lambda: None)
        victim.cancel()
        assert [e.time for e in drain(queue)] == [2]

    def test_peek_skips_cancelled_head(self):
        queue = EventQueue()
        victim = queue.push(1, 0, lambda: None)
        queue.push(2, 0, lambda: None)
        victim.cancel()
        assert queue.peek_time() == 2

    def test_event_repr_mentions_state(self):
        queue = EventQueue()
        event = queue.push(3, 1, lambda: None)
        assert "t=3" in repr(event)
        event.cancel()
        assert "cancelled" in repr(event)

    def test_len_counts_live_events_only(self):
        """Regression: cancelled tombstones used to inflate len(queue)."""
        queue = EventQueue()
        victim = queue.push(10, 0, lambda: None)
        queue.push(20, 0, lambda: None)
        assert len(queue) == 2
        victim.cancel()
        assert len(queue) == 1
        assert queue.tombstones == 1

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        victim = queue.push(10, 0, lambda: None)
        victim.cancel()
        victim.cancel()
        assert len(queue) == 0
        assert queue.events_cancelled == 1

    def test_cancel_after_pop_does_not_corrupt_len(self):
        """A watchdog guard may be cancelled after it already fired."""
        queue = EventQueue()
        guard = queue.push(5, 0, lambda: None)
        queue.push(9, 0, lambda: None)
        assert queue.pop() is guard
        guard.cancel()  # late cancel: event already left the heap
        assert len(queue) == 1
        assert queue.events_cancelled == 0
        assert queue.pop().time == 9


class TestTombstoneCompaction:
    def test_compaction_triggers_and_shrinks_heap(self):
        queue = EventQueue()
        victims = [queue.push(1000 + i, 0, lambda: None)
                   for i in range(_COMPACT_MIN_SIZE)]
        survivors_times = [5, 7]
        for time in survivors_times:
            queue.push(time, 0, lambda: None)
        for victim in victims:
            victim.cancel()
        assert queue.compactions >= 1
        assert queue.tombstones < _COMPACT_MIN_SIZE
        assert [e.time for e in drain(queue)] == survivors_times

    def test_small_heaps_are_not_compacted(self):
        queue = EventQueue()
        victim = queue.push(1, 0, lambda: None)
        queue.push(2, 0, lambda: None)
        victim.cancel()
        assert queue.compactions == 0

    def test_peak_size_counts_tombstones(self):
        queue = EventQueue()
        events = [queue.push(i, 0, lambda: None) for i in range(10)]
        for event in events[:5]:
            event.cancel()
        queue.push(99, 0, lambda: None)
        assert queue.peak_size == 11  # high-water mark of the raw heap


class _ReferenceQueue:
    """The pre-compaction implementation: plain lazy deletion at pop.

    The compacting queue must pop the exact same (time, priority, seq)
    sequence as this one for any interleaving of pushes and cancels —
    that equivalence is what keeps every simulation byte-identical
    (DESIGN.md, E7) no matter when compactions happen to trigger.
    """

    def __init__(self):
        import heapq
        self._heapq = heapq
        self._heap = []
        self._seq = 0
        self._cancelled = set()

    def push(self, time, priority):
        seq = self._seq
        self._seq += 1
        self._heapq.heappush(self._heap, (time, priority, seq))
        return seq

    def cancel(self, seq):
        self._cancelled.add(seq)

    def pop(self):
        while self._heap:
            entry = self._heapq.heappop(self._heap)
            if entry[2] not in self._cancelled:
                return entry
        return None


def _run_op_sequence(ops):
    """Drive the real and reference queues through the same op sequence."""
    queue = EventQueue()
    reference = _ReferenceQueue()
    handles = []
    popped, ref_popped = [], []
    for op in ops:
        if op[0] == "push":
            _, time, priority = op
            handles.append(queue.push(time, priority, lambda: None))
            reference.push(time, priority)
        elif op[0] == "cancel":
            if handles:
                index = op[1] % len(handles)
                handles[index].cancel()
                reference.cancel(handles[index].seq)
        else:  # pop
            event = queue.pop()
            popped.append(None if event is None
                          else (event.time, event.priority, event.seq))
            ref_popped.append(reference.pop())
    while True:
        event = queue.pop()
        entry = reference.pop()
        if event is None and entry is None:
            break
        popped.append(None if event is None
                      else (event.time, event.priority, event.seq))
        ref_popped.append(entry)
    return queue, popped, ref_popped


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 100), st.integers(0, 3)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("pop")),
    ),
    max_size=400,
)


class TestCompactionDeterminism:
    @given(_OPS)
    def test_matches_uncompacted_reference(self, ops):
        _, popped, ref_popped = _run_op_sequence(ops)
        assert popped == ref_popped

    def test_stress_sequence_actually_compacts(self):
        """The hypothesis sizes may stay under the compaction threshold;
        this deterministic interleaving is guaranteed to cross it."""
        ops = []
        for round_no in range(8):
            for i in range(40):
                ops.append(("push", (i * 7 + round_no) % 50, i % 3))
            for i in range(36):
                ops.append(("cancel", round_no * 31 + i * 5))
            for _ in range(4):
                ops.append(("pop",))
        queue, popped, ref_popped = _run_op_sequence(ops)
        assert popped == ref_popped
        assert queue.compactions >= 1


class TestEventQueueProperties:
    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 3)),
                    max_size=200))
    def test_pop_order_is_sorted_by_time_priority(self, entries):
        queue = EventQueue()
        for time, priority in entries:
            queue.push(time, priority, lambda: None)
        popped = [(e.time, e.priority) for e in drain(queue)]
        assert popped == sorted(popped)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
    def test_fifo_within_identical_keys(self, times):
        queue = EventQueue()
        for index, time in enumerate(times):
            queue.push(time, 0, lambda: None)
        popped = drain(queue)
        # sequence numbers must be increasing within each (time, priority) key
        by_key = {}
        for event in popped:
            by_key.setdefault((event.time, event.priority), []).append(event.seq)
        for seqs in by_key.values():
            assert seqs == sorted(seqs)


class _Sim:
    """Just the fields ``EventQueue.drain`` touches."""

    def __init__(self):
        self._now = 0
        self._events_fired = 0


class TestTupleEntries:
    """The classic heap holds ``(time, priority, seq, target, event)``
    tuples; handle-free pushes allocate no :class:`Event`."""

    def test_heap_entries_are_tuples(self):
        from repro.kernel import Simulator
        sim = Simulator()

        def proc():
            yield 3

        process = sim.spawn(proc(), name="p")
        queue = sim._queue
        queue.push_fn(2, _noop)
        queue.push_resume(4, process, "payload")
        handle = queue.push(5, 1, _noop)
        entries = sorted(queue._heap)
        assert [entry[:3] for entry in entries] == [
            (0, 0, 0), (2, 0, 1), (4, 0, 2), (5, 1, 3)]
        assert entries[0][3:] == (process, None)
        assert entries[1][3:] == (_noop, None)
        assert entries[2][3:] == ((process, "payload"), None)
        assert entries[3][3:] == (_noop, handle)

    def test_payload_resume_stays_opaque(self):
        from repro.kernel import Simulator
        sim = Simulator()

        def proc():
            value = yield sim.signal("s")
            yield value

        process = sim.spawn(proc(), name="p")
        sim._queue.push_resume(7, process, 5)
        entry = sim._queue.pending_entries()[-1]
        assert entry == PendingEntry(7, None, None)

    def test_cancel_before_firing(self):
        queue = EventQueue()
        fired = []
        victim = queue.push(3, 0, lambda: fired.append("victim"))
        queue.push_fn(4, lambda: fired.append("kept"))
        victim.cancel()
        assert len(queue) == 1 and queue.tombstones == 1
        assert [e.time for e in queue.pending_entries()] == [4]
        queue.drain(_Sim())
        assert fired == ["kept"]

    def test_cancel_after_compaction(self):
        queue = EventQueue()
        fired = []
        victims = [queue.push(100 + i, 0, _noop)
                   for i in range(_COMPACT_MIN_SIZE)]
        late = queue.push(50, 0, lambda: fired.append("late"))
        queue.push_resume(60, _Marker(), None)
        for victim in victims:
            victim.cancel()
        assert queue.compactions >= 1
        assert queue.tombstones < _COMPACT_MIN_SIZE
        late.cancel()   # the handle survived the rebuild
        assert len(queue) == 1
        assert queue.peek_time() == 60
        assert fired == []

    def test_cancel_after_firing_is_harmless(self):
        queue = EventQueue()
        fired = []
        guard = queue.push(1, 0, lambda: fired.append("guard"))
        queue.push(2, 0, lambda: fired.append("next"))
        sim = _Sim()
        time, fire = queue.pop_entry()
        fire()
        guard.cancel()
        assert len(queue) == 1
        assert queue.events_cancelled == 0
        queue.drain(sim)
        assert fired == ["guard", "next"]
        assert sim._events_fired == 1

    def test_pop_wraps_handle_free_entries(self):
        queue = EventQueue()
        fired = []
        queue.push_fn(2, lambda: fired.append("fn"))
        event = queue.pop()
        assert (event.time, event.priority, event.seq) == (2, 0, 0)
        event.fn()
        assert fired == ["fn"]

    def test_peak_size_sampled_on_every_push_kind(self):
        queue = EventQueue()
        queue.push(1, 0, _noop)
        assert queue.peak_size == 1
        queue.push_fn(1, _noop)
        assert queue.peak_size == 2
        queue.push_resume(1, _Marker(), None)
        assert queue.peak_size == 3
        queue.push_resume(1, _Marker(), "payload")
        assert queue.peak_size == 4
        queue.pop_entry()
        queue.push_fn(9, _noop)
        assert queue.peak_size == 4

    def test_drain_samples_peak_on_inline_resume(self):
        from repro.kernel import Simulator
        sim = Simulator()

        def sleeper():
            yield 5

        for index in range(3):
            sim.spawn(sleeper(), name=f"s{index}")
        sim.run()
        # three spawn resumes queued at once; the inline re-pushes of
        # their sleeps never exceed that
        assert sim.peak_heap_size == 3
        assert sim.events_fired == 6
        assert sim.now == 5


class TestDrainRejectsBadYields:
    """Inline resumes hand anything but a non-negative int to
    ``Process._dispatch`` — the same errors as the plain resume path."""

    @pytest.mark.parametrize("value, message", [
        (-1, "yielded negative delay -1"),
        (True, "yielded unsupported value True (bool)"),
        (1.5, "yielded unsupported value 1.5 (float)"),
        ("x", "yielded unsupported value 'x' (str)"),
    ])
    @pytest.mark.parametrize("bounded", [False, True])
    def test_bad_yield_raises(self, value, message, bounded):
        from repro.kernel import Simulator
        sim = Simulator()

        def proc():
            yield 1
            yield value

        sim.spawn(proc(), name="bad")
        with pytest.raises(SimulationError, match=re.escape(
                f"process 'bad' {message}")):
            if bounded:
                sim.run(until=100)
            else:
                sim.run()
        assert sim.now == 1

    def test_payload_resume_bad_yield_raises(self):
        from repro.kernel import Simulator
        sim = Simulator()
        signal = sim.signal("s")

        def proc():
            yield signal
            yield -3

        sim.spawn(proc(), name="bad")
        sim.schedule_after(2, lambda: signal.notify("payload"))
        with pytest.raises(SimulationError, match="negative delay -3"):
            sim.run()


class _Marker:
    """Stands in for a process in entries that never fire."""


def _noop():
    pass
