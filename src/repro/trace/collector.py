"""Trace collectors: OCP port monitors that record communication events."""

from typing import Dict, List, Optional

from repro.kernel.simulator import CYCLE_NS
from repro.ocp import PortMonitor
from repro.ocp.types import Request, Response
from repro.trace.events import Phase, TraceEvent
from repro.trace.trc_format import serialize_trc


class TraceCollector(PortMonitor):
    """Records every protocol phase seen at one master OCP port.

    Timestamps are converted from cycles to nanoseconds at recording time
    (``CYCLE_NS`` = 5 ns/cycle, matching the paper's trace excerpts).
    """

    def __init__(self, master_id: int = 0):
        self.master_id = master_id
        self.events: List[TraceEvent] = []

    def on_request(self, time: int, request: Request) -> None:
        data = None if request.is_read else request.data
        if isinstance(data, list):
            data = list(data)
        self.events.append(TraceEvent(
            Phase.REQ, time * CYCLE_NS, request.cmd, request.addr,
            request.burst_len, data, request.uid))

    def on_accept(self, time: int, request: Request) -> None:
        self.events.append(TraceEvent(
            Phase.ACC, time * CYCLE_NS, request.cmd, request.addr,
            request.burst_len, None, request.uid))

    def on_response(self, time: int, request: Request,
                    response: Response) -> None:
        data = response.data
        if isinstance(data, list):
            data = list(data)
        self.events.append(TraceEvent(
            Phase.RESP, time * CYCLE_NS, request.cmd, request.addr,
            request.burst_len, data, request.uid))

    def __len__(self) -> int:
        return len(self.events)

    def to_trc(self, header_comment: Optional[str] = None) -> str:
        """Serialise to ``.trc`` text."""
        return serialize_trc(self.events, self.master_id, header_comment)

    def save(self, path, header_comment: Optional[str] = None) -> None:
        """Write the ``.trc`` file (with the verified artifact header)."""
        from repro.artifacts.io import save_trc
        save_trc(path, self.events, master_id=self.master_id,
                 header_comment=header_comment)


def collect_traces(platform) -> Dict[int, TraceCollector]:
    """Attach a collector to every master port of a platform.

    Call *before* :meth:`~repro.platform.system.MparmPlatform.run`; returns
    ``{master_id: collector}``.
    """
    collectors: Dict[int, TraceCollector] = {}
    for master_id, master in enumerate(platform.masters):
        collector = TraceCollector(master_id)
        master.port.attach_monitor(collector)
        collectors[master_id] = collector
    return collectors
