"""Calendar-queue kernel backend: batched same-cycle event dispatch.

The classic backend (:class:`repro.kernel.event.EventQueue`) pays a binary
heap ``heappush``/``heappop`` of a tuple entry for *every* event.  This
backend exploits two properties of our workloads:

* almost all events land a handful of distinct cycles ahead (sleeps of a
  few cycles, zero-delay notifies), so a ``dict`` keyed by absolute cycle
  with a tiny int-heap of distinct bucket times replaces the event heap,
  and same-cycle events cost a plain ``list.append``;
* the vast majority of scheduled callbacks are *process resumes* that are
  never cancelled, so they are stored as bare :class:`Process` objects (or
  ``(process, payload)`` pairs) instead of :class:`Event` handles — no
  allocation on the hot path — and the drain loop advances the generator
  in line instead of bouncing through ``Event.fn`` -> ``_resume`` ->
  ``_dispatch`` call frames (the classic backend does the same).

Dispatch drains a whole timestamp bucket per outer-loop iteration
(batched same-cycle execution).  A bucket holding a single entry is stored
as the bare entry (no list allocation, no walk); multi-entry buckets are
lists walked by index, so zero-delay pushes made *during* the walk land in
a fresh bucket for the same cycle and are drained immediately after —
exactly insertion order, i.e. the classic ``seq`` order.  Cancelled events
are swept lazily as drains pass over them.

Determinism: for the priority-0 events every production model uses, bucket
order is insertion order — identical to the classic ``(time, priority,
seq)`` total order.  The first ``push()`` with a non-zero priority flips
the queue into *mixed* mode, where buckets hold ``[priority, seq, entry]``
keys and each bucket is drained through a per-bucket heap — slower, but
exactly ordered.  Mixed mode is sticky and never entered by the platform
models (nothing in ``repro`` schedules at non-zero priority).

Counter semantics mirror the classic backend's ``kernel_counters()`` keys:
``events_cancelled`` counts cancels of queued events, ``tombstones`` the
cancelled entries still resident, ``compactions`` the bucket sweeps that
dropped tombstones, and ``peak_size`` the resident high-water mark sampled
at dispatch-batch boundaries (the classic backend samples per push).
"""

import heapq
from typing import Callable, Optional, Tuple

from repro.kernel.errors import SimulationError
from repro.kernel.event import Event, _classify_entry, _fire_for
from repro.kernel.process import Process


class CalendarQueue:
    """Slot-indexed calendar queue (the ``"fast"`` kernel backend)."""

    name = "fast"

    def __init__(self) -> None:
        self._buckets = {}          # absolute cycle -> entry or entry list
        self._times = []            # int heap of distinct bucket cycles
        self._heads = {}            # cycle -> consumed prefix (pop_entry)
        self._seq = 0               # Event seqs + mixed-mode sort keys
        self._size = 0              # resident entries (live + tombstones)
        self._tombstones = 0        # resident cancelled entries
        self._mixed = False         # sticky: non-zero priority seen
        self._active_time = None    # mixed mode: bucket being drained
        self._active_heap = None
        self.events_cancelled = 0
        self.compactions = 0
        self.peak_size = 0

    # ---------------------------------------------------------- introspection

    def __len__(self) -> int:
        return self._size - self._tombstones

    @property
    def tombstones(self) -> int:
        """Cancelled events still occupying bucket slots."""
        return self._tombstones

    # -------------------------------------------------------------- inserting

    def push(self, time: int, priority: int, fn: Callable[[], None]) -> Event:
        """Insert a callback at an absolute time; returns a cancellable handle."""
        event = Event(time, priority, self._seq, fn, self)
        self._seq += 1
        if priority != 0 and not self._mixed:
            self._go_mixed()
        if self._mixed:
            self._push_mixed(time, priority, event)
            return event
        buckets = self._buckets
        prev = buckets.get(time)
        if prev is None:
            buckets[time] = event
            heapq.heappush(self._times, time)
        elif prev.__class__ is list:
            prev.append(event)
        else:
            buckets[time] = [prev, event]
        self._size += 1
        return event

    def push_fn(self, time: int, fn: Callable[[], None]) -> None:
        """Schedule an uncancellable priority-0 callback (no Event handle)."""
        if self._mixed:
            self._push_mixed(time, 0, fn)
            return
        buckets = self._buckets
        prev = buckets.get(time)
        if prev is None:
            buckets[time] = fn
            heapq.heappush(self._times, time)
        elif prev.__class__ is list:
            prev.append(fn)
        else:
            buckets[time] = [prev, fn]
        self._size += 1

    def push_resume(self, time: int, process, payload) -> None:
        """Schedule a process resume — the hottest scheduling operation."""
        entry = process if payload is None else (process, payload)
        if self._mixed:
            self._push_mixed(time, 0, entry)
            return
        buckets = self._buckets
        prev = buckets.get(time)
        if prev is None:
            buckets[time] = entry
            heapq.heappush(self._times, time)
        elif prev.__class__ is list:
            prev.append(entry)
        else:
            buckets[time] = [prev, entry]
        self._size += 1

    # ------------------------------------------------------------ cancelling

    def _note_cancelled(self) -> None:
        """One queued event became a tombstone (called by Event.cancel)."""
        self._tombstones += 1
        self.events_cancelled += 1

    # ------------------------------------------------------------- mixed mode

    def _go_mixed(self) -> None:
        """First non-zero priority seen: re-key every bucket for exact
        ``(priority, seq)`` ordering.  Sticky — the platform models never
        trigger this; it exists so the backend honours the full Event
        ordering contract."""
        self._mixed = True
        buckets = self._buckets
        heads = self._heads
        maxlen = 0
        for time, bucket in buckets.items():
            if bucket.__class__ is not list:
                bucket = [bucket]
            start = heads.get(time, 0) if heads else 0
            raw = bucket[start:] if start else bucket
            if len(raw) > maxlen:
                maxlen = len(raw)
            buckets[time] = [[0, index, entry]
                             for index, entry in enumerate(raw)]
        heads.clear()
        # future sort keys must order after every positional key above
        if self._seq <= maxlen:
            self._seq = maxlen + 1

    def _push_mixed(self, time: int, priority: int, entry) -> None:
        self._seq += 1
        keyed = [priority, self._seq, entry]
        if time == self._active_time:
            heapq.heappush(self._active_heap, keyed)
        else:
            buckets = self._buckets
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = [keyed]
                heapq.heappush(self._times, time)
            else:
                bucket.append(keyed)
        self._size += 1

    def _drain_mixed_bucket(self, sim, time: int, keyed: list) -> int:
        """Drain one bucket in exact (priority, seq) order via a heap.

        Zero-delay pushes for this same cycle land directly in the active
        heap so a lower-priority late arrival still fires in order."""
        heapq.heapify(keyed)
        self._active_time = time
        self._active_heap = keyed
        fired = 0
        swept = 0
        try:
            while keyed:
                entry = heapq.heappop(keyed)[2]
                self._size -= 1
                cls = entry.__class__
                if cls is Event:
                    if entry.cancelled:
                        swept += 1
                        continue
                    sim._now = time
                    entry._queue = None
                    fired += 1
                    entry.fn()
                elif cls is Process:
                    sim._now = time
                    fired += 1
                    entry._resume()
                elif cls is tuple:
                    sim._now = time
                    fired += 1
                    entry[0]._resume(entry[1])
                else:
                    sim._now = time
                    fired += 1
                    entry()
        finally:
            self._active_time = None
            self._active_heap = None
            if swept:
                self._tombstones -= swept
                self.compactions += 1
            if keyed:  # an entry raised: keep the unfired remainder queued
                buckets = self._buckets
                existing = buckets.get(time)
                if existing is not None:
                    keyed.extend(existing)
                else:
                    heapq.heappush(self._times, time)
                buckets[time] = keyed
        return fired

    # --------------------------------------------------------------- draining

    def drain(self, sim) -> None:
        """Run-to-empty batched dispatch (the unbounded ``run()`` path).

        Inlines the resume of bare :class:`Process` entries — generator
        ``send`` plus the ``yield <int>`` re-schedule — saving the
        ``Event.fn`` -> ``_resume`` -> ``_dispatch`` -> ``schedule_after``
        call chain per event.  The clock only advances when an entry
        actually fires, so all-tombstone buckets leave ``now`` untouched,
        exactly like the classic heap skipping cancelled pops.
        """
        buckets = self._buckets
        times = self._times
        heads = self._heads
        heappop = heapq.heappop
        heappush = heapq.heappush
        fired = 0
        try:
            while times:
                time = heappop(times)
                bucket = buckets.pop(time, None)
                if bucket is None:
                    continue
                if bucket.__class__ is not list:
                    # singleton bucket: no walk, no cleanup bookkeeping —
                    # the entry is consumed before it runs, so an exception
                    # leaves the queue consistent (entry gone, like a
                    # popped heap event whose fn raised)
                    entry = bucket
                    self._size -= 1
                    cls = entry.__class__
                    if cls is Process:
                        sim._now = time
                        fired += 1
                        if entry._alive:
                            entry._waiting_on = None
                            try:
                                yielded = entry.generator.send(None)
                            except StopIteration as stop:
                                entry._finish(getattr(stop, "value", None))
                            else:
                                if type(yielded) is int:
                                    if yielded < 0:
                                        raise SimulationError(
                                            f"process {entry.name!r} "
                                            f"yielded negative delay "
                                            f"{yielded}")
                                    when = time + yielded
                                    prev = buckets.get(when)
                                    if prev is None:
                                        buckets[when] = entry
                                        heappush(times, when)
                                    elif prev.__class__ is list:
                                        prev.append(entry)
                                    else:
                                        buckets[when] = [prev, entry]
                                    self._size += 1
                                else:
                                    entry._dispatch(yielded)
                    elif cls is Event:
                        if entry.cancelled:
                            self._tombstones -= 1
                            continue
                        sim._now = time
                        entry._queue = None
                        fired += 1
                        entry.fn()
                    elif cls is tuple:
                        process, payload = entry
                        sim._now = time
                        fired += 1
                        process._resume(payload)
                    else:
                        sim._now = time
                        fired += 1
                        entry()
                    continue
                if self._mixed:
                    fired += self._drain_mixed_bucket(sim, time, bucket)
                    continue
                index = heads.pop(time, 0) if heads else 0
                base = index
                swept = 0
                size = self._size
                if size > self.peak_size:
                    self.peak_size = size
                completed = False
                try:
                    while True:
                        if self._mixed:
                            # a callback just introduced priorities:
                            # finish the remainder in exact order
                            rest = bucket[index:]
                            if self._seq <= len(rest):
                                self._seq = len(rest) + 1
                            index = len(bucket)
                            completed = True
                            fired += self._drain_mixed_bucket(
                                sim, time,
                                [[0, j, e] for j, e in enumerate(rest)])
                            break
                        if index >= len(bucket):
                            completed = True
                            break
                        entry = bucket[index]
                        index += 1
                        cls = entry.__class__
                        if cls is Process:
                            sim._now = time
                            fired += 1
                            if entry._alive:
                                entry._waiting_on = None
                                try:
                                    yielded = entry.generator.send(None)
                                except StopIteration as stop:
                                    entry._finish(
                                        getattr(stop, "value", None))
                                else:
                                    if type(yielded) is int:
                                        if yielded < 0:
                                            raise SimulationError(
                                                f"process {entry.name!r} "
                                                f"yielded negative delay "
                                                f"{yielded}")
                                        when = time + yielded
                                        prev = buckets.get(when)
                                        if prev is None:
                                            buckets[when] = entry
                                            heappush(times, when)
                                        elif prev.__class__ is list:
                                            prev.append(entry)
                                        else:
                                            buckets[when] = [prev, entry]
                                        self._size += 1
                                    else:
                                        entry._dispatch(yielded)
                        elif cls is Event:
                            if entry.cancelled:
                                swept += 1
                                continue
                            sim._now = time
                            entry._queue = None
                            fired += 1
                            entry.fn()
                        elif cls is tuple:
                            process, payload = entry
                            sim._now = time
                            fired += 1
                            if process._alive:
                                process._waiting_on = None
                                try:
                                    yielded = process.generator.send(payload)
                                except StopIteration as stop:
                                    process._finish(
                                        getattr(stop, "value", None))
                                else:
                                    if type(yielded) is int:
                                        if yielded < 0:
                                            raise SimulationError(
                                                f"process {process.name!r} "
                                                f"yielded negative delay "
                                                f"{yielded}")
                                        when = time + yielded
                                        prev = buckets.get(when)
                                        if prev is None:
                                            buckets[when] = process
                                            heappush(times, when)
                                        elif prev.__class__ is list:
                                            prev.append(process)
                                        else:
                                            buckets[when] = [prev, process]
                                        self._size += 1
                                    else:
                                        process._dispatch(yielded)
                        else:
                            sim._now = time
                            fired += 1
                            entry()
                finally:
                    consumed = index - base
                    if consumed:
                        self._size -= consumed
                    if swept:
                        self._tombstones -= swept
                        self.compactions += 1
                    if not completed:
                        # an entry raised: keep the unfired tail queued so
                        # a later run() resumes exactly where this stopped
                        rest = bucket[index:]
                        if rest:
                            existing = buckets.get(time)
                            if existing is None:
                                heappush(times, time)
                            elif existing.__class__ is list:
                                rest.extend(existing)
                            else:
                                rest.append(existing)
                            buckets[time] = rest
        finally:
            sim._events_fired += fired

    # ------------------------------------------------------ incremental pops

    def pop_entry(self) -> Optional[Tuple[int, Callable[[], None]]]:
        """Remove the earliest live entry as ``(time, fire)``, or None."""
        buckets = self._buckets
        times = self._times
        heads = self._heads
        while times:
            time = times[0]
            bucket = buckets.get(time)
            if bucket is not None and bucket.__class__ is not list:
                entry = bucket
                self._size -= 1
                heapq.heappop(times)
                del buckets[time]
                if entry.__class__ is Event:
                    if entry.cancelled:
                        self._tombstones -= 1
                        continue
                    entry._queue = None
                    return time, entry.fn
                return time, _fire_for(entry)
            if bucket:
                if self._mixed:
                    heapq.heapify(bucket)
                    while bucket:
                        entry = heapq.heappop(bucket)[2]
                        self._size -= 1
                        if entry.__class__ is Event:
                            if entry.cancelled:
                                self._tombstones -= 1
                                continue
                            entry._queue = None
                            fire = entry.fn
                        else:
                            fire = _fire_for(entry)
                        if not bucket:
                            heapq.heappop(times)
                            del buckets[time]
                        return time, fire
                else:
                    index = heads.get(time, 0)
                    length = len(bucket)
                    while index < length:
                        entry = bucket[index]
                        index += 1
                        if entry.__class__ is Event:
                            if entry.cancelled:
                                self._size -= 1
                                self._tombstones -= 1
                                continue
                            entry._queue = None
                            fire = entry.fn
                        else:
                            fire = _fire_for(entry)
                        self._size -= 1
                        if index < length:
                            heads[time] = index
                        else:
                            heapq.heappop(times)
                            del buckets[time]
                            heads.pop(time, None)
                        return time, fire
            # bucket missing or fully consumed/tombstoned
            heapq.heappop(times)
            buckets.pop(time, None)
            heads.pop(time, None)
        return None

    def pending_entries(self):
        """Backend hook: every live entry in firing order (snapshots).

        Walks the distinct bucket cycles in ascending order (the
        ``_times`` heap may carry cycles whose bucket was already
        consumed — those are skipped, read-only), honouring the
        consumed-prefix offsets pop_entry leaves in ``_heads``.  Within a
        bucket, plain buckets are insertion-ordered (identical to classic
        seq order) and mixed buckets are sorted by their ``(priority,
        seq)`` keys.  Tombstoned events are dropped; classification
        matches the classic backend exactly.
        """
        entries = []
        for time in sorted(set(self._times)):
            bucket = self._buckets.get(time)
            if bucket is None:
                continue
            if bucket.__class__ is not list:
                items = [bucket]
            else:
                start = self._heads.get(time, 0)
                items = bucket[start:] if start else list(bucket)
            if self._mixed:
                keyed = [(item[0], item[1], item[2])
                         if item.__class__ is list else (0, -1, item)
                         for item in items]
                items = [item for _, _, item in sorted(
                    keyed, key=lambda key: (key[0], key[1]))]
            for entry in items:
                if entry.__class__ is Event:
                    if entry.cancelled:
                        continue
                    entry = entry.fn
                entries.append(_classify_entry(time, entry))
        return entries

    def peek_time(self) -> Optional[int]:
        """Time of the earliest live entry, or None if the queue is empty."""
        buckets = self._buckets
        times = self._times
        heads = self._heads
        while times:
            time = times[0]
            bucket = buckets.get(time)
            if bucket is not None and bucket.__class__ is not list:
                if not (bucket.__class__ is Event and bucket.cancelled):
                    return time
                self._size -= 1
                self._tombstones -= 1
            elif bucket:
                start = heads.get(time, 0)
                for entry in bucket[start:] if start else bucket:
                    if self._mixed and entry.__class__ is list:
                        entry = entry[2]
                    if entry.__class__ is Event and entry.cancelled:
                        continue
                    return time
                # every remaining entry is a tombstone: sweep the bucket
                swept = len(bucket) - start
                self._size -= swept
                self._tombstones -= swept
            heapq.heappop(times)
            buckets.pop(time, None)
            heads.pop(time, None)
        return None
