"""Event queue with fully deterministic ordering.

Events are ordered by ``(time, priority, sequence)``.  The sequence number is
a monotonically increasing insertion counter, so two events scheduled for the
same cycle at the same priority fire in the order they were scheduled.  This
total order is what makes every simulation in this package reproducible
byte-for-byte — a requirement of the cross-interconnect validation experiment
(DESIGN.md, E7).

Cancellation is lazy: :meth:`Event.cancel` marks the entry and the queue
discards it when it surfaces.  Because the sort key is a *total* order
(``seq`` is unique), the heap's internal layout never affects pop order, so
the queue is free to compact tombstones out of the heap whenever they
outnumber live events — resilient workloads that schedule-and-cancel a
watchdog per transaction (see ``repro.core.tg_master``) would otherwise
carry thousands of dead entries through every heap operation.
"""

import heapq
import sys
from typing import Callable, List, NamedTuple, Optional

from repro.kernel.process import Process

#: Compact only when the heap is at least this large; below it the
#: tombstone overhead is noise and rebuilding would churn.
_COMPACT_MIN_SIZE = 64


class PendingEntry(NamedTuple):
    """One live queue entry, as reported by ``pending_entries()``.

    ``process`` is set when the entry is a plain (payload-free) resume of
    a sleeping :class:`~repro.kernel.process.Process` — the only entry
    kind a snapshot can re-arm, because the wake-up carries no captured
    state beyond the target process and the firing time.  Everything else
    (arbitrary callbacks, payload-carrying resumes) is opaque: ``process``
    is None.  For opaque *callbacks* the raw callable is exposed as
    ``fn`` so a component that scheduled it can recognise its own (e.g. a
    semaphore bank's tracked delayed-release) and claim it after all;
    payload-carrying resumes have both fields None and are never
    claimable.
    """

    time: int
    process: Optional[object]
    fn: Optional[Callable] = None


def _classify_entry(time: int, target) -> PendingEntry:
    """Map what a queue entry fires to a :class:`PendingEntry`.

    A bare :class:`~repro.kernel.process.Process` is a payload-free resume
    and re-armable.  A ``(process, payload)`` pair is opaque and never
    claimable.  A callable is opaque but exposed as ``fn`` for
    identity-based claims.
    """
    cls = target.__class__
    if cls is Process:
        return PendingEntry(time, target)
    if cls is tuple:
        return PendingEntry(time, None)
    return PendingEntry(time, None, target)


def _fire_for(target) -> Callable[[], None]:
    """Wrap what a queue entry fires as the zero-argument callable
    ``step()`` and the guarded ``run()`` loop expect."""
    cls = target.__class__
    if cls is Process:
        return target._resume
    if cls is tuple:
        process, payload = target
        return lambda: process._resume(payload)
    return target


class Event:
    """A scheduled callback.

    Attributes:
        time: Absolute cycle at which the event fires.
        priority: Tie-break within a cycle; lower fires first.
        seq: Insertion sequence number (unique, assigned by the queue).
        fn: Zero-argument callable run when the event fires.
        cancelled: Cancelled events are skipped by the queue.
    """

    __slots__ = ("time", "priority", "seq", "fn", "cancelled", "_queue")

    def __init__(self, time: int, priority: int, seq: int,
                 fn: Callable[[], None], queue: "EventQueue" = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the queue discards it instead of firing it."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            # still sitting in the heap: it is now a tombstone the queue
            # must account for (popped/fired events have no queue backref,
            # so a late cancel() after firing is harmless)
            self._queue = None
            queue._note_cancelled()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} prio={self.priority} seq={self.seq}{state}>"


class EventQueue:
    """Binary-heap priority queue of scheduled callbacks and resumes.

    Heap entries are ``(time, priority, seq, target, event)`` tuples, so
    ``heapq`` orders them with C-level int compares (``seq`` is unique,
    the comparison never reaches ``target``).  ``target`` is what fires:

    * a zero-argument callable (``push``/``push_fn``);
    * a bare :class:`~repro.kernel.process.Process` — a payload-free
      resume (``yield n``, a signal notify without payload, a spawn);
    * a ``(process, payload)`` pair — a payload-carrying resume.

    ``event`` is the cancellable :class:`Event` handle ``push()`` returns,
    or None for the handle-free ``push_fn``/``push_resume`` entries, which
    therefore allocate nothing but the tuple.

    ``len(queue)`` counts *live* (non-cancelled) entries only.  Perf
    counters (:attr:`events_cancelled`, :attr:`compactions`,
    :attr:`peak_size`) are cumulative over the queue's lifetime and feed
    the simulator's ``kernel_counters()``; ``peak_size`` is sampled on
    every push.

    :meth:`push`, :meth:`push_fn`, :meth:`push_resume`,
    :meth:`pop_entry`, :meth:`peek_time` and :meth:`drain` form the
    narrow interface the simulator drives.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0
        self._live = 0
        self.events_cancelled = 0
        self.compactions = 0
        self.peak_size = 0

    def __len__(self) -> int:
        return self._live

    @property
    def tombstones(self) -> int:
        """Cancelled events still occupying heap slots."""
        return len(self._heap) - self._live

    def push(self, time: int, priority: int, fn: Callable[[], None]) -> Event:
        """Insert a callback at an absolute time; returns a cancellable handle."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, fn, self)
        heap = self._heap
        heapq.heappush(heap, (time, priority, seq, fn, event))
        self._live += 1
        if len(heap) > self.peak_size:
            self.peak_size = len(heap)
        return event

    def push_fn(self, time: int, fn: Callable[[], None]) -> None:
        """Schedule an uncancellable priority-0 callback."""
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heapq.heappush(heap, (time, 0, seq, fn, None))
        self._live += 1
        if len(heap) > self.peak_size:
            self.peak_size = len(heap)

    def push_resume(self, time: int, process, payload) -> None:
        """Schedule a process resume at an absolute time."""
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heapq.heappush(heap, (time, 0, seq,
                              process if payload is None
                              else (process, payload), None))
        self._live += 1
        if len(heap) > self.peak_size:
            self.peak_size = len(heap)

    def _note_cancelled(self) -> None:
        """One in-heap event became a tombstone (called by Event.cancel)."""
        self._live -= 1
        self.events_cancelled += 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN_SIZE and len(heap) > 2 * self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone and re-heapify.

        Pop order is untouched: entries are totally ordered by
        ``(time, priority, seq)``, so any valid heap over the same live
        set pops the identical sequence.  The rebuild is in place (slice
        assignment) so the drain loop's reference to the heap stays valid.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if entry[4] is None or not entry[4].cancelled]
        heapq.heapify(heap)
        self.compactions += 1

    def _pop_live(self) -> Optional[tuple]:
        """Remove and return the earliest live heap entry, or None."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            event = entry[4]
            if event is not None:
                if event.cancelled:
                    continue
                event._queue = None
            self._live -= 1
            return entry
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live entry as an :class:`Event`
        (the ``push()`` handle itself, or a fresh one wrapping a handle-free
        entry), or None if drained."""
        entry = self._pop_live()
        if entry is None:
            return None
        time, priority, seq, target, event = entry
        if event is None:
            event = Event(time, priority, seq, _fire_for(target))
        return event

    def pop_entry(self) -> Optional[tuple]:
        """Earliest live entry as ``(time, fire)`` or None."""
        entry = self._pop_live()
        if entry is None:
            return None
        return entry[0], _fire_for(entry[3])

    def peek_time(self) -> Optional[int]:
        """Time of the earliest live entry, or None if the queue is empty."""
        heap = self._heap
        while heap:
            event = heap[0][4]
            if event is None or not event.cancelled:
                return heap[0][0]
            heapq.heappop(heap)
        return None

    def pending_entries(self) -> List[PendingEntry]:
        """Every live entry in firing order (snapshots).

        The heap is sorted (``(time, priority, seq)`` is a total order),
        tombstones dropped, and each entry classified as a re-armable
        process resume or an opaque callback.  Read-only: the queue is
        untouched.
        """
        return [_classify_entry(time, target)
                for time, _, _, target, event in sorted(self._heap)
                if event is None or not event.cancelled]

    def drain(self, sim, until: Optional[int] = None) -> bool:
        """In-line dispatch of every live entry at or before ``until``
        (every entry, when None); returns True when the queue drained.

        The clock is left on the last event fired.  The bound costs one
        int compare per event: the first live entry later than ``until``
        is pushed back and ends the loop, and tombstones surfacing past
        ``until`` are discarded on the way, as :meth:`peek_time` would.

        The heap pop is inlined (the list identity is stable — compaction
        rebuilds it in place), with the queue's live accounting kept exact
        per event so callbacks that cancel events or read ``len(queue)``
        see a consistent view.  Process resumes run in line: the generator
        is advanced here and a ``yield <int>`` sleep is re-pushed directly,
        without the ``_resume`` -> ``_dispatch`` -> ``push_resume`` frames;
        every other yielded value goes through ``Process._dispatch``, which
        also raises for negative, bool and unsupported yields.
        """
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        if until is None:
            until = sys.maxsize
        fired = 0
        try:
            while heap:
                time, priority, seq, target, event = heappop(heap)
                if time > until:
                    if event is None or not event.cancelled:
                        heappush(heap, (time, priority, seq, target, event))
                        return False
                    continue
                if event is not None:
                    if event.cancelled:
                        continue
                    event._queue = None
                self._live -= 1
                sim._now = time
                cls = target.__class__
                if cls is Process:
                    process = target
                    payload = None
                elif cls is tuple:
                    process, payload = target
                else:
                    target()
                    fired += 1
                    continue
                if process._alive:
                    process._waiting_on = None
                    try:
                        yielded = process.generator.send(payload)
                    except StopIteration as stop:
                        process._finish(getattr(stop, "value", None))
                    else:
                        if type(yielded) is int and yielded >= 0:
                            seq = self._seq
                            self._seq = seq + 1
                            heappush(heap, (time + yielded, 0, seq,
                                            process, None))
                            self._live += 1
                            if len(heap) > self.peak_size:
                                self.peak_size = len(heap)
                        else:
                            process._dispatch(yielded)
                fired += 1
        finally:
            sim._events_fired += fired
        return True

