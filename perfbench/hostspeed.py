"""The reference loop that makes end-to-end times machine-relative.

On a shared host the same simulation swings by up to 2x within minutes,
as neighbours load the physical core.  The benchmark therefore times this
loop right before every timed phase and reports the phase's wall time
divided by the loop's, scaled to seconds on a host where the loop takes
:data:`REFERENCE_S`.  The loop imports nothing from the program, so a
change to the program moves the phase time and leaves the loop alone.

It is a miniature of what the simulator does, in two halves: an event
loop (generator processes resumed from a heap-ordered queue, small
slotted objects, dict lookups), like the kernel and the TGs, and an
integer loop (multiplies, shifts, masks), like the armlet core model.
A busy neighbour slows object-heavy code more than integer code; timing
both halves tracks every phase, where either half alone left a run-to-run
spread of up to 7 % on the phase it resembles less.
"""

import heapq
import time

#: The loop's wall time on an unloaded core of the host the bounds in
#: BENCHMARK.json were measured on (an Intel Xeon, Sapphire Rapids
#: generation, under KVM with 2 vCPUs; Python 3.11).
REFERENCE_S = 0.018


class _Word:
    __slots__ = ("owner", "value")

    def __init__(self, owner: int, value: int):
        self.owner = owner
        self.value = value


def _process(index: int, memory: dict):
    for step in range(120):
        memory[(index * 31 + step) & 1023] = _Word(index, step)
        word = memory.get((index * 17 + step * 7) & 1023)
        yield 1 + (word.value % 5 if word is not None else (index + step) % 7)


def _event_loop() -> None:
    memory: dict = {}
    queue = [(0, index, _process(index, memory)) for index in range(60)]
    heapq.heapify(queue)
    while queue:
        now, index, process = heapq.heappop(queue)
        for delay in process:
            heapq.heappush(queue, (now + delay, index, process))
            break


def _integer_loop() -> int:
    word = 0
    for index in range(60000):
        word = (word + ((index * 2654435761) >> 7) ^ (index << 3)) \
            & 0xFFFFFFFF
    return word


def reference_loop() -> None:
    _event_loop()
    _integer_loop()


def reference_seconds() -> float:
    """Wall time of one reference loop."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
