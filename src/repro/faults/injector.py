"""The deterministic fault injector.

One :class:`FaultInjector` instance is shared by every instrumented
component of a platform (slaves, fabrics, semaphore bank).  All randomness
comes from its *own* ``random.Random`` seeded at construction — never the
global RNG — so a ``(spec, seed)`` pair replays the exact same fault
sequence on every run.  Because the simulation kernel fires events in a
deterministic total order, the injector is queried in a deterministic order
too, which makes whole degraded simulations byte-reproducible.

Components hold a ``fault_injector`` attribute that defaults to ``None``;
the disabled path adds no RNG draws, no extra yields and no extra events,
so a fault-free platform is bit-identical to one built before this
subsystem existed.
"""

import random
from typing import Dict, Tuple

from repro.faults.spec import FaultSpec

#: Data word carried by injected error responses (recognisably bogus).
ERROR_DATA = 0xDEADBEEF

#: Counter keys maintained by the injector (see also
#: :class:`repro.stats.counters.ResilienceCounters`).
INJECTOR_COUNTERS = (
    "slave_errors_injected",
    "hop_faults_injected",
    "hop_delay_cycles",
    "hop_stalls_injected",
    "sem_drops_injected",
    "sem_delays_injected",
)


class FaultInjector:
    """Seeded, deterministic decision point for every fault family."""

    def __init__(self, spec: FaultSpec, seed: int = 0):
        self.spec = spec
        self.seed = seed
        self.rng = random.Random(seed)
        self.counters: Dict[str, int] = {key: 0 for key in INJECTOR_COUNTERS}
        self._slave_accesses = [0] * len(spec.slave_errors)
        self._slave_faults = [0] * len(spec.slave_errors)
        self._link_faults = [0] * len(spec.link_faults)
        self._sem_drops = [0] * len(spec.semaphore_faults)

    # ------------------------------------------------------------ decisions

    def slave_error(self, slave_name: str, request) -> bool:
        """Should this slave access answer with an error response?"""
        if not self.spec.slave_errors:
            return False
        is_read = request.is_read
        for index, rule in enumerate(self.spec.slave_errors):
            if not rule.matches(slave_name, request.addr, is_read):
                continue
            if (rule.max_faults is not None
                    and self._slave_faults[index] >= rule.max_faults):
                continue
            self._slave_accesses[index] += 1
            fire = (rule.nth is not None
                    and self._slave_accesses[index] % rule.nth == 0)
            if not fire and rule.probability > 0.0:
                fire = self.rng.random() < rule.probability
            if fire:
                self._slave_faults[index] += 1
                self.counters["slave_errors_injected"] += 1
                return True
        return False

    def hop_delay(self, fabric_name: str) -> int:
        """Extra cycles this interconnect hop suffers (0 = unperturbed)."""
        if not self.spec.link_faults:
            return 0
        total = 0
        for index, rule in enumerate(self.spec.link_faults):
            if not rule.matches(fabric_name):
                continue
            if (rule.max_faults is not None
                    and self._link_faults[index] >= rule.max_faults):
                continue
            extra = 0
            if rule.jitter:
                extra += self.rng.randint(0, rule.jitter)
            if (rule.stall_probability > 0.0
                    and self.rng.random() < rule.stall_probability):
                extra += rule.stall_cycles
                self.counters["hop_stalls_injected"] += 1
            if extra:
                self._link_faults[index] += 1
                self.counters["hop_faults_injected"] += 1
                self.counters["hop_delay_cycles"] += extra
            total += extra
        return total

    def semaphore_release(self, offset: int) -> Tuple[bool, int]:
        """Fate of a semaphore release write: ``(dropped, delay_cycles)``."""
        if not self.spec.semaphore_faults:
            return False, 0
        delay = 0
        for index, rule in enumerate(self.spec.semaphore_faults):
            if rule.drop_probability > 0.0 and (
                    rule.max_drops is None
                    or self._sem_drops[index] < rule.max_drops):
                if self.rng.random() < rule.drop_probability:
                    self._sem_drops[index] += 1
                    self.counters["sem_drops_injected"] += 1
                    return True, 0
            if (rule.delay_probability > 0.0 and rule.delay_cycles > delay
                    and self.rng.random() < rule.delay_probability):
                delay = rule.delay_cycles
        if delay:
            self.counters["sem_delays_injected"] += 1
        return False, delay

    # ----------------------------------------------------------- checkpoint

    def state_dict(self) -> dict:
        """Counters, rule occurrence tallies and the full RNG state.

        ``random.Random.getstate()`` is ``(version, tuple_of_ints,
        gauss_next)`` — JSON-safe once the inner tuple becomes a list.
        """
        version, internal, gauss_next = self.rng.getstate()
        return {
            "rng_state": [version, list(internal), gauss_next],
            "counters": dict(self.counters),
            "slave_accesses": list(self._slave_accesses),
            "slave_faults": list(self._slave_faults),
            "link_faults": list(self._link_faults),
            "sem_drops": list(self._sem_drops),
        }

    def load_state(self, state: dict) -> None:
        from repro.artifacts.errors import SnapshotError
        from repro.kernel.snapshot import state_get
        rng_state = state_get(state, "rng_state", "injector")
        try:
            version, internal, gauss_next = rng_state
            self.rng.setstate((version, tuple(internal), gauss_next))
        except (TypeError, ValueError) as error:
            raise SnapshotError(
                f"snapshot carries an invalid injector RNG state "
                f"({error})") from None
        counters = state_get(state, "counters", "injector")
        if not isinstance(counters, dict) \
                or set(counters) != set(INJECTOR_COUNTERS):
            raise SnapshotError(
                "snapshot injector counters do not match this version")
        self.counters = {key: counters[key] for key in INJECTOR_COUNTERS}
        for attr, key in (("_slave_accesses", "slave_accesses"),
                          ("_slave_faults", "slave_faults"),
                          ("_link_faults", "link_faults"),
                          ("_sem_drops", "sem_drops")):
            values = state_get(state, key, "injector")
            if not isinstance(values, list) \
                    or len(values) != len(getattr(self, attr)):
                raise SnapshotError(
                    f"snapshot injector tally {key!r} does not match the "
                    f"fault spec",
                    hint="the snapshot was taken with a different fault "
                         "spec; restore with a matching spec or branch "
                         "with fresh=['injector']")
            setattr(self, attr, list(values))

    # ------------------------------------------------------------ reporting

    @property
    def faults_injected(self) -> int:
        """Total faults of every family injected so far."""
        return (self.counters["slave_errors_injected"]
                + self.counters["hop_faults_injected"]
                + self.counters["sem_drops_injected"]
                + self.counters["sem_delays_injected"])

    def __repr__(self) -> str:
        return (f"<FaultInjector seed={self.seed} "
                f"injected={self.faults_injected}>")
