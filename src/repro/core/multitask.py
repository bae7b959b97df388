"""Multitask TG: several task programs scheduled on one master socket.

Paper §7, future work: "analysis of the behavior of a system in which
multiple tasks run on a single processor and are dynamically scheduled by
an OS, either based upon timeslices (preemptive multitasking) or upon
transition to a sleep state followed by awakening on interrupt receipt.
Context switching-related issues will need to be modeled."

:class:`MultitaskTGMaster` implements both policies over ordinary TG
programs (e.g. the translated traces of two cores, consolidated onto one
processor socket):

* ``scheduler="timeslice"`` — preemptive round-robin.  A task runs for a
  quantum of TG cycles; long ``Idle`` periods are divisible (the timer
  interrupt preempts an idling task), while an OCP transaction in flight
  is never preempted (the bus transfer must finish).
* ``scheduler="sleep"`` — run-to-block.  A task runs until it executes an
  ``Idle`` of at least ``sleep_threshold`` cycles, which models the core
  sleeping until a timer/interrupt wakes it at the recorded time; other
  tasks run in the gap, hiding each other's idle periods.
* ``scheduler="priority"`` — preemptive static priorities on top of the
  sleep semantics: the highest-priority runnable task always runs, and a
  lower-priority task is preempted (at an instruction boundary) the
  moment a higher-priority sleeper wakes.

Tasks that synchronise *with each other* (e.g. two pipeline stages
consolidated onto one socket) need a preemptive policy: a polling loop
contains no long ``Idle``, so under run-to-block scheduling the poller
monopolises the processor and the task that would satisfy the poll never
runs — a livelock the timeslice policy's quantum resolves
(``tests/core/test_multitask.py`` demonstrates both outcomes).

A modelling caveat the two policies bracket: a TG ``Idle`` conflates
*local computation* with *genuine waiting*.  Timeslice scheduling treats
every idle as busy compute (idles of different tasks serialise — faithful
for compute-bound traces); sleep scheduling treats long idles as waits
(idles overlap — the optimistic bound, faithful for I/O-wait-shaped
traces).  Real consolidation cost lies between the two.

Every switch pays ``context_switch_cycles`` (state save/restore).  The
master socket surface is the usual one (``port``/``start()``/
``finished``/``completion_time``), so a multitask TG drops into any
platform socket.
"""

from typing import List, Optional

from repro.kernel import Simulator
from repro.core.isa import TGError, TG_NUM_REGS
from repro.core.modes import ReplayMode
from repro.core.program import TGProgram
from repro.core.tg_master import TGMaster

SCHEDULERS = ("timeslice", "sleep", "priority")


class _Task:
    """Interpreter context of one task program (see :meth:`TGMaster._run`)."""

    __slots__ = ("task_id", "program", "regs", "pc", "halted", "halt_time",
                 "pending_idle", "wake_time", "instructions_executed")

    def __init__(self, task_id: int, program: TGProgram):
        self.task_id = task_id
        self.program = program
        self.regs = [0] * TG_NUM_REGS
        self.pc = 0
        self.halted = False
        self.halt_time: Optional[int] = None
        self.pending_idle = 0  # the unslept remainder of the current Idle
        self.wake_time: Optional[int] = None  # sleeping until this cycle
        self.instructions_executed = 0

    def runnable(self, now: int) -> bool:
        if self.halted:
            return False
        if self.wake_time is not None and self.wake_time > now:
            return False
        return True


class MultitaskTGMaster(TGMaster):
    """One master socket running several TG task programs under an OS model.

    The tasks run on :meth:`TGMaster._run`, one scheduling episode at a
    time; this class is the scheduler it consults.  Transactions go
    through the TG's own transaction path, so error responses are
    counted as on a single TG (with no retry policy and no watchdog).

    Args:
        programs: The task programs.  Cloning-mode programs (which need an
            issue queue of their own) and ``ReadNB``/``Fence`` (whose
            outstanding reads belong to one program) are rejected.
        scheduler: ``"timeslice"``, ``"sleep"`` or ``"priority"``.
        timeslice: Quantum in cycles (timeslice policy).
        context_switch_cycles: Cost of each task switch.
        sleep_threshold: Minimum ``Idle`` treated as a sleep (sleep and
            priority policies).
        priorities: Static priority per program, higher runs first
            (priority policy; default all equal).
    """

    # the task contexts are in no snapshot format: the platform refuses
    # to checkpoint this master, as it does a core
    state_dict = None
    load_state = None

    def __init__(self, sim: Simulator, name: str,
                 programs: List[TGProgram],
                 scheduler: str = "timeslice",
                 timeslice: int = 64,
                 context_switch_cycles: int = 4,
                 sleep_threshold: int = 16,
                 priorities: Optional[List[int]] = None):
        if not programs:
            raise TGError("need at least one task program")
        if priorities is not None and len(priorities) != len(programs):
            raise TGError("priorities must match the number of programs")
        if scheduler not in SCHEDULERS:
            raise TGError(f"unknown scheduler {scheduler!r}; "
                          f"choose from {SCHEDULERS}")
        if timeslice < 1:
            raise TGError("timeslice must be >= 1")
        if context_switch_cycles < 0:
            raise TGError("context_switch_cycles must be >= 0")
        for program in programs:
            program.validate()
            if program.mode is ReplayMode.CLONING:
                raise TGError("cloning-mode programs cannot be multitasked")
            unsupported = sorted({"READ_NB", "FENCE"}
                                 & set(program.stats()["histogram"]))
            if unsupported:
                raise TGError(f"multitask TG cannot execute "
                              f"{', '.join(unsupported)}")
        self._init_socket(sim, name, None, None)
        self.scheduler = scheduler
        self.timeslice = timeslice
        self.context_switch_cycles = context_switch_cycles
        self.sleep_threshold = sleep_threshold
        self.tasks = [_Task(index, program)
                      for index, program in enumerate(programs)]
        #: Static task priorities (higher runs first, "priority" policy).
        self.priorities = list(priorities) if priorities is not None \
            else [0] * len(programs)
        self.context_switches = 0
        self._current: Optional[_Task] = None
        self._rr_index = 0
        self._slice_end = 0  # the running task's quantum expires here

    # ------------------------------------------------------------- surface

    def start(self) -> None:
        self._process = self.sim.spawn(self._schedule(),
                                       name=f"{self.name}.os")

    @property
    def task_completion_times(self) -> List[Optional[int]]:
        return [task.halt_time for task in self.tasks]

    # ------------------------------------------------------------ scheduler

    def _pick_next(self) -> Optional[_Task]:
        """Next task to run: round-robin, or best priority for the
        priority policy (ties broken by task id)."""
        if self.scheduler == "priority":
            runnable = [task for task in self.tasks
                        if task.runnable(self.sim.now)]
            if not runnable:
                return None
            return max(runnable,
                       key=lambda t: (self.priorities[t.task_id],
                                      -t.task_id))
        count = len(self.tasks)
        for offset in range(count):
            task = self.tasks[(self._rr_index + offset) % count]
            if task.runnable(self.sim.now):
                self._rr_index = (task.task_id + 1) % count
                return task
        return None

    def _schedule(self):
        """The OS: run one episode of the chosen task at a time."""
        tasks = self.tasks
        while not all(task.halted for task in tasks):
            task = self._pick_next()
            if task is None:
                # every live task is sleeping: idle until the first wake
                yield min(t.wake_time for t in tasks
                          if not t.halted) - self.sim.now
                continue
            if self._current is not task:
                if self._current is not None:
                    if self.context_switch_cycles:
                        yield self.context_switch_cycles
                    self.context_switches += 1
                self._current = task
            task.wake_time = None
            self._slice_end = self.sim.now + self.timeslice
            yield from self._run(task, self)
        self.halted = True
        self.halt_time = self.sim.now

    def preempts(self, task: _Task) -> bool:
        """Whether ``task`` yields the processor at this instruction
        boundary: its quantum expired with another task runnable, or a
        higher-priority task woke.  An OCP transaction in flight is never
        preempted (the bus transfer must finish)."""
        now = self.sim.now
        if self.scheduler == "timeslice":
            return now >= self._slice_end and any(
                other is not task and other.runnable(now)
                for other in self.tasks)
        if self.scheduler == "priority":
            level = self.priorities[task.task_id]
            return any(self.priorities[other.task_id] > level
                       and other.runnable(now)
                       for other in self.tasks if other is not task)
        return False

    def idle_slice(self, task: _Task) -> int:
        """Cycles ``task`` idles next out of its ``pending_idle``.

        Timeslice: at most the rest of the quantum (at least one cycle),
        so the timer interrupt preempts a long idle.  Sleep and priority:
        the whole idle, or 0 when it is at least ``sleep_threshold`` long
        and the task sleeps until the recorded time instead.
        """
        idle = task.pending_idle
        if self.scheduler == "timeslice":
            idle = min(idle, max(1, self._slice_end - self.sim.now))
        elif idle >= self.sleep_threshold:
            task.pending_idle = 0
            task.wake_time = self.sim.now + idle
            return 0
        task.pending_idle -= idle
        return idle
