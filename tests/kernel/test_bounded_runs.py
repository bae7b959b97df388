"""Bounded runs conform to the one-call run.

``run(until=T)`` fires events in the queue's in-line drain loop, the
same loop as an unbounded ``run()``; the guarded per-event loop serves
only ``max_events`` and ``progress_window``.  Seeded random models
(sleeps, signals with and without payload, a bounded FIFO, prioritised
callbacks, cancelled events, timeouts, spawns) are run to completion in
one call and in segments, and every way must produce the same firing
order, clock and kernel counters.
"""

import random

import pytest

from repro.kernel import SimulationError, Simulator
from repro.kernel.simulator import timeout

SEEDS = range(24)
#: far beyond any segment any model is cut into
HUGE_WINDOW = 10 ** 9


def _script(rng: random.Random, steps: int, spawns: bool = True) -> list:
    """One worker's pre-drawn actions (the model's shape is fixed before
    it runs, so every way of running it executes the same model)."""
    kinds = ("sleep", "sleep", "wait", "notify", "put", "get", "callback",
             "cancel", "timeout", "timeout_cancel", "burst")
    actions = []
    for _ in range(steps):
        kind = rng.choice(kinds + (("spawn",) if spawns else ()))
        child = _script(rng, 3, spawns=False) if kind == "spawn" else None
        actions.append((kind, rng.randrange(4), rng.randrange(6),
                        rng.randrange(3), child))
    return actions


def build(seed: int):
    """A random model on a fresh simulator; returns ``(sim, log)``."""
    rng = random.Random(seed)
    sim = Simulator()
    log = []
    signals = [sim.signal(f"s{i}") for i in range(3)]
    fifo = sim.fifo(capacity=2, name="fifo")
    handles = []

    def callback(tag, notify=None):
        def fire():
            log.append((sim.now, "cb", tag))
            if notify is not None:
                signals[notify].notify(tag)
        return fire

    def worker(wid, script):
        for step, (kind, a, b, c, child) in enumerate(script):
            tag = (wid, step)
            log.append((sim.now, kind, tag))
            if kind == "sleep":
                yield b
            elif kind == "wait":
                payload = yield signals[c]
                log.append((sim.now, "woke", tag, payload))
            elif kind == "notify":
                signals[c].notify(tag if a % 2 else None)
            elif kind == "put":
                yield from fifo.put(tag)
            elif kind == "get":
                item = yield from fifo.get()
                log.append((sim.now, "got", tag, item))
            elif kind == "callback":
                handles.append(sim.schedule_after(
                    b, callback(tag, c if a == 0 else None), priority=a))
            elif kind == "cancel":
                if handles:
                    handles[(a * 7 + b) % len(handles)].cancel()
            elif kind == "timeout":
                yield timeout(sim, b + 1)
            elif kind == "timeout_cancel":
                timeout(sim, 40 + b).cancel()
            elif kind == "burst":
                # enough schedule-and-cancel churn to compact the heap
                burst = [sim.schedule_after(1 + (i * 5 + b) % 50,
                                            callback((tag, i)))
                         for i in range(48)]
                for event in burst[c::4] + burst[1::2]:
                    event.cancel()
            elif kind == "spawn":
                sim.spawn(worker((wid, step), child),
                          name=f"w{wid}.{step}", delay=b)
        log.append((sim.now, "done", wid))

    for wid in range(5):
        sim.spawn(worker(wid, _script(rng, 14)), name=f"w{wid}",
                  delay=rng.randrange(4))
    return sim, log


def observed(sim, log) -> tuple:
    return (log, sim.now, sim.events_fired, sim.events_cancelled,
            sim.peak_heap_size, sim.heap_compactions)


def one_call(seed: int) -> tuple:
    sim, log = build(seed)
    sim.run()
    return observed(sim, log)


def in_segments(seed: int, cuts, **guards) -> tuple:
    sim, log = build(seed)
    for cut in cuts:
        assert sim.run(until=cut, **guards) == cut
    assert len(sim._queue) == 0
    sim.run()
    return observed(sim, log)


class TestFourWaysAgree:

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_way_matches_one_call(self, seed):
        want = one_call(seed)
        end = want[1]
        rng = random.Random(1000 + seed)
        cuts = sorted(set(rng.sample(range(end + 1), min(end, 12)))
                      | {end})

        assert in_segments(seed, range(end + 1)) == want
        assert in_segments(seed, cuts) == want

        sim, log = build(seed)
        sim.run(progress_window=HUGE_WINDOW)
        assert observed(sim, log) == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_guarded_segments_match_one_call(self, seed):
        want = one_call(seed)
        end = want[1]
        rng = random.Random(2000 + seed)
        cuts = sorted(set(rng.sample(range(end + 1), min(end, 8)))
                      | {end})
        assert in_segments(seed, cuts, progress_window=HUGE_WINDOW) \
            == want

        # max_events stops short of `until` and must not coast there
        sim, log = build(seed)
        for cut in cuts:
            while True:
                now = sim.run(until=cut, max_events=rng.randrange(1, 6))
                next_time = sim._queue.peek_time()
                if next_time is None or next_time > cut:
                    assert now == cut
                    break
                assert now <= next_time
        assert observed(sim, log) == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_segments_without_coast_stop_on_the_last_event(self, seed):
        # the cadence-segment entry a checkpointed run drives
        want = one_call(seed)
        sim, log = build(seed)
        boundary = 0
        while not sim._fire_through(boundary):
            assert sim.now <= boundary
            boundary += 7
        assert observed(sim, log) == want

    def test_models_exercise_cancellation_and_compaction(self):
        results = [one_call(seed) for seed in SEEDS]
        assert all(result[3] > 0 for result in results)
        assert sum(result[5] > 0 for result in results) >= len(SEEDS) // 2
        assert all(result[1] > 20 for result in results)


class TestBoundSemantics:

    def test_events_at_exactly_until_fire(self):
        sim = Simulator()
        fired = []
        for time in (3, 5, 5, 6):
            sim.schedule_at(time, lambda t=time: fired.append(t))
        assert sim.run(until=5) == 5
        assert fired == [3, 5, 5]
        assert len(sim._queue) == 1

    def test_early_drain_coasts_to_until(self):
        sim = Simulator()
        sim.schedule_at(3, lambda: None)
        assert sim.run(until=10) == 10
        assert sim.events_fired == 1

    def test_run_until_earlier_is_a_noop(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(12, lambda: fired.append(12))
        assert sim.run(until=10) == 10
        assert sim.run(until=5) == 10
        assert fired == [] and sim.events_fired == 0
        assert len(sim._queue) == 1

    def test_entry_past_until_stays_cancellable(self):
        sim = Simulator()
        event = sim.schedule_at(12, lambda: pytest.fail("cancelled"))
        sim.run(until=10)
        event.cancel()
        sim.run()
        assert sim.events_cancelled == 1
        assert sim.events_fired == 0

    def test_tombstones_past_until_are_shed_like_peek(self):
        sim = Simulator()
        sim.schedule_at(12, lambda: None).cancel()
        sim.schedule_at(14, lambda: None)
        sim.run(until=10)
        assert sim._queue.tombstones == 0
        assert len(sim._queue) == 1

    def test_fire_through_does_not_coast(self):
        sim = Simulator()
        sim.schedule_at(3, lambda: None)
        sim.schedule_at(9, lambda: None)
        assert sim._fire_through(6) is False
        assert sim.now == 3
        assert sim._fire_through(20) is True
        assert sim.now == 9

    @pytest.mark.parametrize("guards", [
        {}, {"progress_window": HUGE_WINDOW}, {"max_events": 10}])
    def test_reentrant_run_raises_from_a_callback(self, guards):
        sim = Simulator()
        caught = []

        def reenter():
            with pytest.raises(SimulationError) as excinfo:
                sim.run(until=50)
            caught.append(str(excinfo.value))

        sim.schedule_at(2, reenter)
        sim.schedule_at(4, lambda: None)
        sim.run(until=20, **guards)
        assert caught == ["simulator is already running"]
        assert sim.events_fired == 2
