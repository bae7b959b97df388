"""OCP master and slave ports.

The master port is the exchange point of the whole methodology: an IP core
and a traffic generator drive the *same* port API, so swapping one for the
other (paper Figure 1) touches nothing else in the system.
"""

from typing import List, Optional

from repro.kernel import Component, Simulator
from repro.ocp.types import OCPCommand, OCPError, Request


class OCPMasterPort(Component):
    """Master-side OCP interface.

    A master drives transactions with ``yield from port.transaction(req)``.
    The generator returns when:

    * **writes** — the command (and write data) has been *accepted*
      downstream: posted-write semantics, but with back-pressure, so
      congestion delays the master exactly as it would delay a real core;
    * **reads** — the response data has arrived back at the port: blocking
      semantics, as in MPARM.

    Monitors attached with :meth:`attach_monitor` see every protocol phase.
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self._fabric = None
        self._master_id: Optional[int] = None
        self._monitors: List = []
        self.transactions_issued = 0

    # ----------------------------------------------------------- wiring

    def bind(self, fabric, master_id: int) -> None:
        """Connect this port to an interconnect as master ``master_id``."""
        if self._fabric is not None:
            raise OCPError(f"port {self.name!r} is already bound")
        self._fabric = fabric
        self._master_id = master_id

    @property
    def master_id(self) -> Optional[int]:
        return self._master_id

    @property
    def is_bound(self) -> bool:
        return self._fabric is not None

    def attach_monitor(self, monitor) -> None:
        """Register a :class:`~repro.ocp.monitor.PortMonitor`."""
        self._monitors.append(monitor)

    def detach_monitor(self, monitor) -> None:
        self._monitors.remove(monitor)

    # ------------------------------------------------------- transactions

    def transaction(self, request: Request):
        """Run one OCP transaction (generator; drive with ``yield from``).

        Returns the :class:`Response` for reads, ``None`` for writes.
        Monitors see the request here, the accept from the fabric (it
        stamps ``accept_time`` and notifies ``request.monitors``) and the
        response here again; with no monitor attached none of that
        costs more than one truth test.
        """
        fabric = self._fabric
        if fabric is None:
            raise OCPError(f"port {self.name!r} is not bound to a fabric")
        sim = self.sim
        request.master_id = self._master_id
        request.issue_time = sim.now
        monitors = self._monitors
        if monitors:
            request.monitors = monitors
            for monitor in monitors:
                monitor.on_request(sim.now, request)
        self.transactions_issued += 1
        response = yield from fabric.transport(self._master_id, request)
        if request.is_read:
            if response is None:
                raise OCPError(f"fabric returned no response for {request!r}")
            for monitor in self._monitors:
                monitor.on_response(sim.now, request, response)
            return response
        return None

    # convenience wrappers -------------------------------------------------

    def read(self, addr: int):
        """Blocking single-word read; returns the data word."""
        response = yield from self.transaction(Request(OCPCommand.READ, addr))
        return response.word

    def write(self, addr: int, data: int):
        """Posted single-word write; returns once the command is accepted."""
        yield from self.transaction(Request(OCPCommand.WRITE, addr, data))

    def burst_read(self, addr: int, count: int):
        """Blocking burst read of ``count`` words; returns the data list."""
        response = yield from self.transaction(
            Request(OCPCommand.BURST_READ, addr, burst_len=count))
        return response.words

    def burst_write(self, addr: int, data: List[int]):
        """Posted burst write of ``len(data)`` words."""
        yield from self.transaction(
            Request(OCPCommand.BURST_WRITE, addr, list(data),
                    burst_len=len(data)))


class OCPSlavePort(Component):
    """Slave-side OCP interface wrapping a slave model.

    The port serialises accesses: while one transaction is in service, later
    arrivals wait.  This reproduces the Figure 2(a) behaviour where a read
    arriving behind an unfinished write is stalled at the slave interface
    and the stall simply appears as response latency to the master.

    The wrapped slave model must provide ``access(request)`` as a generator
    yielding its internal access time and returning a :class:`Response`.
    """

    def __init__(self, sim: Simulator, name: str, slave):
        super().__init__(sim, name)
        self.slave = slave
        self._busy = False
        self._free = sim.signal(f"{name}.free")
        self.accesses_served = 0

    @property
    def busy(self) -> bool:
        return self._busy

    # ----------------------------------------------------------- checkpoint

    def state_dict(self) -> dict:
        return {"accesses_served": self.accesses_served}

    def load_state(self, state: dict) -> None:
        from repro.kernel.snapshot import state_get
        self.accesses_served = state_get(state, "accesses_served",
                                         self.name)
        self._busy = False

    def checkpoint_blockers(self):
        return ["access in service"] if self._busy else []

    # --------------------------------------------------------------- serve

    def access(self, request: Request):
        """Serve one request (generator); serialises concurrent accesses."""
        while self._busy:
            yield self._free
        self._busy = True
        try:
            response = yield from self.slave.access(request)
        finally:
            self._busy = False
            self._free.notify()
        self.accesses_served += 1
        return response
