"""Worker-pool supervision for parallel sweeps.

:mod:`concurrent.futures` treats a worker pool as one fragile unit: a
worker that dies takes the whole pool down (``BrokenProcessPool``), a
``future.cancel()`` on a running point is a no-op, and there is no way
to tell "the simulation raised" from "the process was OOM-killed".  A
long design-space-exploration sweep needs the opposite: per-worker
process handles, so one dead or hung worker is killed, reaped and
replaced without disturbing the other lanes.

:class:`WorkerSupervisor` owns N ``multiprocessing.Process`` children.
Each worker has one private duplex pipe and shares nothing with its
siblings: tasks go down it, and ``started`` (pickup), ``done`` (a
summary dict) and periodic ``heartbeat`` messages come back up it.  A
worker's main and heartbeat threads serialise their writes with a
process-local lock, so a worker killed mid-write can tear only its own
channel.  The supervisor waits on every channel and every process
sentinel at once, so a death is seen the moment it happens; heartbeats
only serve to detect hangs.  It turns that traffic into typed
:class:`WorkerEvent` streams:

* ``started`` — the worker picked the point up (per-point timeout
  clocks start *here*, not at submission);
* ``result`` — the point finished with a summary (ok or failed);
* ``crashed`` — the worker process died mid-point (SIGKILL, OOM,
  segfault; seen through its sentinel or its channel's end-of-file)
  or stopped heartbeating for ``heartbeat_timeout_s`` (hung in a
  non-Python blocking call); the worker is hard-killed and respawned;
* ``timeout`` — the point exceeded its wall-clock budget measured
  from pickup; the worker is hard-killed and respawned.

:meth:`WorkerSupervisor.shutdown` guarantees that **no child process
survives** the sweep, graceful or not: sentinel, join, SIGTERM, then
SIGKILL, in that order, with bounded waits.

The typed failure taxonomy (:class:`SweepPointFailure`) and the
interrupt carrier (:class:`SweepInterrupted`) live here too, shared by
the execution engine in :mod:`repro.harness.parallel`, the journal and
the CLI.
"""

import multiprocessing
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Dict, List, NamedTuple, Optional

__all__ = [
    "EXIT_INTERRUPTED",
    "FAILURE_KINDS",
    "INTERRUPTED",
    "SIMULATION_ERROR",
    "SweepInterrupted",
    "SweepPointFailure",
    "TIMEOUT",
    "WORKER_CRASH",
    "WorkerEvent",
    "WorkerSupervisor",
]

#: Exit status of ``repro-sweep`` when the operator interrupted the
#: sweep (SIGINT/SIGTERM) and the journal/partial results were flushed.
#: Distinct from 1 (failed points) and the artifact codes 3-7.
EXIT_INTERRUPTED = 8

# ------------------------------------------------------ failure taxonomy

#: The worker process died mid-point (or stopped heartbeating).
WORKER_CRASH = "worker-crash"
#: The point exceeded its wall-clock budget, measured from pickup.
TIMEOUT = "timeout"
#: The simulation itself raised — same inputs will fail the same way.
SIMULATION_ERROR = "simulation-error"
#: The operator stopped the sweep before the point finished.
INTERRUPTED = "interrupted"

FAILURE_KINDS = (WORKER_CRASH, TIMEOUT, SIMULATION_ERROR, INTERRUPTED)

#: Kinds worth retrying: the failure came from the execution machinery,
#: not from the (deterministic) simulation, so a re-run can succeed.
_TRANSIENT_KINDS = frozenset({WORKER_CRASH, TIMEOUT})


@dataclass(frozen=True)
class SweepPointFailure:
    """Why one grid point failed, as typed data.

    ``kind`` is one of :data:`FAILURE_KINDS`; ``transient`` failures
    (worker crash, timeout) may succeed on retry, deterministic ones
    (simulation error) will not.  ``attempts`` counts how many times the
    point was tried in total.
    """

    kind: str
    message: str
    traceback: Optional[str] = None
    attempts: int = 1

    @property
    def transient(self) -> bool:
        return self.kind in _TRANSIENT_KINDS

    def as_dict(self) -> Dict:
        return {"kind": self.kind, "message": self.message,
                "traceback": self.traceback, "attempts": self.attempts,
                "transient": self.transient}

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message} (attempt {self.attempts})"


class SweepInterrupted(Exception):
    """The sweep was stopped by the operator before completing.

    Carries the partial ``results`` list (one row per grid point;
    unfinished points are marked ``interrupted``) so the CLI can render
    the partial table/CSV, plus the journal directory for the
    one-line resume hint.
    """

    def __init__(self, results: List, journal_dir: Optional[str] = None):
        count = sum(1 for r in results
                    if getattr(r, "status", "ok") == "ok")
        super().__init__(
            f"sweep interrupted after {count}/{len(results)} point(s)")
        self.results = results
        self.journal_dir = journal_dir


# ------------------------------------------------------------ worker side

#: Test-only knobs (set the env vars in tests to exercise crash paths).
#: ``CRASH_INDEX`` — any worker handed that grid-point index dies with
#: ``os._exit`` after reporting pickup, in the middle of sending a
#: multi-megabyte message (the worst moment to die: mid-write).
_TEST_CRASH_INDEX_ENV = "REPRO_SWEEP_TEST_CRASH_INDEX"
#: ``CRASH_ONCE`` — the first worker to claim the named marker file dies
#: mid-point, exactly once across the pool (exercises crash + retry).
_TEST_CRASH_ONCE_ENV = "REPRO_SWEEP_TEST_CRASH_ONCE"
#: ``NO_HEARTBEAT`` — workers skip the heartbeat thread, so the
#: supervisor's hang detection sees a silent (hung) worker.
_TEST_NO_HEARTBEAT_ENV = "REPRO_SWEEP_TEST_NO_HEARTBEAT"

#: Seconds between worker heartbeats (a daemon thread in each worker).
HEARTBEAT_INTERVAL_S = 0.5


def _heartbeat_loop(send) -> None:
    while True:
        time.sleep(HEARTBEAT_INTERVAL_S)
        try:
            send(("heartbeat", None, None))
        except OSError:
            return                  # channel closed: parent is gone


def _die_mid_write(channel, lock: threading.Lock) -> None:
    """Start sending a message far larger than a socket buffer (so the
    write blocks on the reader), then ``os._exit`` part-way through."""
    blob = pickle.dumps(("heartbeat", None, bytes(8 << 20)))
    with lock:
        threading.Timer(0.005, os._exit, args=(42,)).start()
        channel.send_bytes(blob)
    os._exit(42)


def _worker_main(channel, supervisor_end) -> None:
    """Body of one pool worker: loop over tasks until the sentinel.

    ``channel`` is the worker's end of its private duplex pipe: tasks
    arrive on it, and ``started``/``done``/``heartbeat`` messages leave
    on it.  The main and heartbeat threads serialise their writes with
    a process-local lock, so nothing is shared with other workers.
    ``supervisor_end`` is the supervisor's end, which the child also
    holds a copy of; closing it at once lets a dead supervisor read as
    end-of-file.

    SIGINT is ignored — a terminal Ctrl-C hits the whole process group,
    and shutdown is the *supervisor's* decision (it journals in-flight
    points first, then terminates the pool deliberately).
    """
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # undo any SIGTERM handler inherited from the driver (the CLI's
    # interrupt handler, forked into us) so terminate() works first try
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    supervisor_end.close()

    lock = threading.Lock()

    def send(message) -> None:
        with lock:
            channel.send(message)

    if not os.environ.get(_TEST_NO_HEARTBEAT_ENV):
        threading.Thread(target=_heartbeat_loop, args=(send,),
                         daemon=True).start()

    from repro.harness.parallel import _execute_point
    crash_index = os.environ.get(_TEST_CRASH_INDEX_ENV)
    crash_once = os.environ.get(_TEST_CRASH_ONCE_ENV)
    try:
        while True:
            task = channel.recv()
            if task is None:
                return
            index, payload = task
            send(("started", index, None))
            if crash_index is not None and int(crash_index) == index:
                _die_mid_write(channel, lock)
            if crash_once:
                try:
                    os.close(os.open(crash_once,
                                     os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                    os._exit(42)
                except FileExistsError:
                    pass            # another worker already crashed
            summary = _execute_point(payload)
            send(("done", index, summary))
    except (EOFError, OSError):
        pass                        # the supervisor is gone


# -------------------------------------------------------- supervisor side

class WorkerEvent(NamedTuple):
    """One supervision event, surfaced to the execution engine."""

    kind: str                 # "started" | "result" | "crashed" | "timeout"
    index: int                # grid-point index the event is about
    summary: Optional[Dict]   # for "result": the worker's summary dict
    detail: str = ""          # human-readable cause for crash/timeout


@dataclass
class _WorkerHandle:
    """One supervised child: its process, private channel and bookkeeping."""

    worker_id: int
    process: multiprocessing.Process
    channel: Connection
    index: Optional[int] = None          # grid point currently held
    dispatched_at: Optional[float] = None
    started_at: Optional[float] = None   # set on the "started" message
    last_heartbeat: float = field(default_factory=time.monotonic)

    @property
    def busy(self) -> bool:
        return self.index is not None

    def stop(self) -> None:
        """Ask the worker to exit once idle (a no-op if it is dead)."""
        try:
            self.channel.send(None)
        except OSError:
            pass


class WorkerSupervisor:
    """Owns a pool of worker processes with per-worker supervision.

    Unlike a ``ProcessPoolExecutor``, every worker is individually
    killable and replaceable: a crash or hang costs exactly the point
    that worker was running.  The supervisor never lets a child outlive
    it — :meth:`shutdown` escalates sentinel → join → SIGTERM → SIGKILL.
    """

    def __init__(self, workers: int,
                 heartbeat_timeout_s: Optional[float] = None):
        self.target = max(1, workers)
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._context = multiprocessing.get_context()
        self._workers: Dict[int, _WorkerHandle] = {}
        self._retired: List[_WorkerHandle] = []
        self._next_id = 0
        for _ in range(self.target):
            self._spawn()

    # ------------------------------------------------------------- state

    @property
    def busy_count(self) -> int:
        return sum(1 for w in self._workers.values() if w.busy)

    @property
    def idle_count(self) -> int:
        return len(self._workers) - self.busy_count

    @property
    def pids(self) -> List[int]:
        return [w.process.pid for w in self._workers.values()
                if w.process.pid is not None]

    # ---------------------------------------------------------- spawning

    def _spawn(self) -> _WorkerHandle:
        worker_id = self._next_id
        self._next_id += 1
        channel, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main, name=f"repro-sweep-worker-{worker_id}",
            args=(child_end, channel), daemon=True)
        process.start()
        # only the worker may hold its end: once it dies, our end reads
        # EOF, and no later fork can keep the channel half-alive
        child_end.close()
        handle = _WorkerHandle(worker_id, process, channel)
        self._workers[worker_id] = handle
        return handle

    def _kill(self, handle: _WorkerHandle) -> None:
        """Hard-kill one worker and reap it; it is never reused."""
        del self._workers[handle.worker_id]
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=5.0)
        handle.channel.close()

    # ----------------------------------------------------------- resizing

    def resize(self, target: int) -> None:
        """Match the pool to the outstanding work (never below 1).

        Shrinking retires surplus *idle* workers immediately (sentinel;
        reaped asynchronously) — a 2-point tail of a 16-worker sweep
        must not keep 14 idle processes alive.  Busy workers always
        finish their point first; :meth:`poll` retires them once idle.
        Growing just raises the respawn target.
        """
        target = max(1, target)
        if target == self.target:
            return
        self.target = target
        self._retire_surplus()

    def _retire_surplus(self) -> None:
        for handle in list(self._workers.values()):
            if len(self._workers) <= self.target:
                break
            if handle.busy:
                continue
            del self._workers[handle.worker_id]
            handle.stop()                 # graceful: exits at once
            self._retired.append(handle)

    def _reap_retired(self) -> None:
        for handle in self._retired[:]:
            if handle.process.is_alive():
                continue
            handle.process.join(timeout=0)
            handle.channel.close()
            self._retired.remove(handle)

    # --------------------------------------------------------- dispatch

    def dispatch(self, index: int, payload: Dict) -> None:
        """Hand one grid point to an idle worker (caller checks idle_count)."""
        for handle in list(self._workers.values()):
            if handle.busy:
                continue
            try:
                handle.channel.send((index, payload))
            except OSError:
                # died idle since the last poll(); a point handed to the
                # corpse would be misclassified worker-crash without ever
                # running — reap it and use a fresh worker instead
                self._kill(handle)
                handle = self._spawn()
                handle.channel.send((index, payload))
            handle.index = index
            handle.dispatched_at = time.monotonic()
            handle.started_at = None
            handle.last_heartbeat = time.monotonic()
            return
        raise RuntimeError("dispatch() called with no idle worker")

    # ------------------------------------------------------------ polling

    def poll(self, timeout: float = 0.1,
             point_timeout_s: Optional[float] = None,
             respawn: bool = True) -> List[WorkerEvent]:
        """Wait for worker traffic or deaths, then health-check the pool.

        Blocks up to ``timeout`` on every worker's channel and process
        sentinel at once, so a death is seen the moment it happens.
        Returns the supervision events since the last call.  Dead or
        hung workers are killed and (when ``respawn``) replaced before
        returning, so one bad lane never stalls the others.
        """
        events: List[WorkerEvent] = []
        handles = list(self._workers.values())
        ready = set(wait([h.channel for h in handles]
                         + [h.process.sentinel for h in handles], timeout))
        now = time.monotonic()
        for handle in handles:
            dead = handle.process.sentinel in ready
            # read the channel first even when the sentinel fired too: a
            # "done" sent just before exit is a result, not a crash
            if (dead or handle.channel in ready) \
                    and not self._receive(handle, events):
                dead = True
            if dead:
                self._kill(handle)
                if handle.busy:
                    events.append(WorkerEvent(
                        "crashed", handle.index, None,
                        f"worker process (pid {handle.process.pid}) died "
                        f"with exit code {handle.process.exitcode}"))
                continue
            if not handle.busy:
                continue
            clock = handle.started_at if handle.started_at is not None \
                else handle.dispatched_at
            if point_timeout_s is not None and \
                    now - clock > point_timeout_s:
                events.append(WorkerEvent(
                    "timeout", handle.index, None,
                    f"grid point exceeded the per-point timeout of "
                    f"{point_timeout_s:g}s (measured from worker pickup); "
                    f"worker hard-killed"))
                self._kill(handle)
                continue
            if self.heartbeat_timeout_s is not None and \
                    now - handle.last_heartbeat > self.heartbeat_timeout_s:
                events.append(WorkerEvent(
                    "crashed", handle.index, None,
                    f"worker (pid {handle.process.pid}) sent no heartbeat "
                    f"for {self.heartbeat_timeout_s:g}s — presumed hung; "
                    f"hard-killed"))
                self._kill(handle)
        self._retire_surplus()         # workers freed past a shrunk target
        self._reap_retired()
        if respawn:
            while len(self._workers) < self.target:
                self._spawn()
        return events

    @staticmethod
    def _receive(handle: _WorkerHandle, events: List[WorkerEvent]) -> bool:
        """Read every message waiting on one worker's channel.

        Returns False once the channel reports end-of-file: the worker
        is dead (a message torn by its death reads as end-of-file too).
        """
        try:
            while handle.channel.poll():
                kind, index, payload = handle.channel.recv()
                handle.last_heartbeat = time.monotonic()
                if kind == "started":
                    handle.started_at = time.monotonic()
                    events.append(WorkerEvent("started", index, None))
                elif kind == "done":
                    handle.index = None
                    handle.started_at = None
                    events.append(WorkerEvent("result", index, payload))
        except (EOFError, OSError):
            return False
        return True

    # ----------------------------------------------------------- shutdown

    def shutdown(self, graceful: bool = True, timeout: float = 2.0) -> None:
        """Stop every child, guaranteed: no worker survives this call.

        ``graceful`` sends the sentinel first (workers are idle between
        points at the end of a sweep, so they exit immediately); either
        way stragglers are escalated SIGTERM → SIGKILL with bounded
        joins, then joined once more so nothing is left as a zombie.
        """
        handles = list(self._workers.values()) + self._retired
        self._workers.clear()
        self._retired = []
        if graceful:
            for handle in handles:
                handle.stop()
            deadline = time.monotonic() + timeout
            for handle in handles:
                handle.process.join(
                    timeout=max(0.0, deadline - time.monotonic()))
        for handle in handles:
            if handle.process.is_alive():
                handle.process.terminate()
        deadline = time.monotonic() + timeout
        for handle in handles:
            handle.process.join(
                timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join()
            handle.channel.close()
