"""Pluggable kernel backends behind one narrow queue interface.

A *kernel backend* owns the pending-event store and the dispatch loop.
The :class:`~repro.kernel.simulator.Simulator` drives it through six
methods plus a handful of counters — everything else (processes, signals,
time base, run bounds) is backend-independent, which is what lets the two
engines produce bit-identical simulations:

==============================  ==========================================
method                          contract
==============================  ==========================================
``push(time, priority, fn)``    schedule; returns a cancellable ``Event``
``push_fn(time, fn)``           schedule an uncancellable p-0 callback
``push_resume(time, proc, v)``  schedule a process resume with payload
``pop_entry()``                 earliest live entry as ``(time, fire)``
``peek_time()``                 time of the earliest live entry
``drain(sim)``                  run-to-empty dispatch (unbounded run())
==============================  ==========================================

plus ``__len__`` (live entries), ``tombstones``, ``events_cancelled``,
``compactions`` and ``peak_size`` feeding ``kernel_counters()``, and
``_note_cancelled()`` called by :meth:`Event.cancel`.

Backends:

``"classic"``
    :class:`~repro.kernel.event.EventQueue` — one binary heap of
    ``(time, priority, seq, target, event)`` tuples with in-line process
    resumes.  The default; every historical result was produced on it.

``"fast"``
    :class:`~repro.kernel.calendar.CalendarQueue` — slot-indexed calendar
    queue with batched same-cycle dispatch and allocation-free process
    resumes.  Same observable behaviour (event order, times, counters
    that describe the *simulation* rather than the engine).  On kernel
    microbenchmarks (``benchmarks/kernel_perf.py``) it fires events
    1.3-2.4x faster (0.9x on ``timeout_churn``), but end to end the two engines are at parity within
    host noise: TG build + run of TLM-traced mp_matrix 4P n=8 (the
    perfbench replay phase, best of 9, 2-vCPU KVM host, CPython 3.11)
    measured fast/classic 0.8-1.0x on AHB, STBus and xpipes, and
    0.9-1.2x on the untraced ARM reference run.

Both backends fire the same events in the same order at the same cycles,
so ``Simulator(backend="fast")`` reproduces classic results bit for bit
(the backend-parity suite in ``tests/integration/test_backend_parity.py``
locks this).
"""

from repro.kernel.calendar import CalendarQueue
from repro.kernel.errors import SimulationError
from repro.kernel.event import EventQueue

#: Backend names accepted by ``Simulator(backend=...)`` and every
#: ``--backend`` CLI flag.
KERNEL_BACKENDS = ("classic", "fast")


def make_backend(spec):
    """Resolve a backend spec (name, None, or instance) to a queue.

    Strings must name a registered backend; ``None`` means the default
    (classic); anything else is assumed to be a ready-made backend
    instance (useful for tests instrumenting the queue).
    """
    if spec is None:
        return EventQueue()
    if isinstance(spec, str):
        if spec == "classic":
            return EventQueue()
        if spec == "fast":
            return CalendarQueue()
        raise SimulationError(
            f"unknown kernel backend {spec!r}; choose from "
            f"{', '.join(KERNEL_BACKENDS)}")
    return spec
