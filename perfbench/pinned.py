"""Pinned simulated results and the checks that compare a run against them.

Every value below was computed once, on the default platform config and
kernel backend, by running the phases of :mod:`workloads`.  Simulated
cycles, events, transactions, beats and artifact digests are
deterministic: a run of any later commit that reproduces the paper's
flow correctly reads exactly these numbers.  A mismatch is a failed
check, never an aborted run.

The ARM cumulative cycles on STBus and xpipes are only used as ground
truth for ``cycle_error_pct``; the benchmark does not re-simulate them
(ARM on xpipes costs about 0.7 s at n=8).
"""

from typing import Dict, List


class Checks:
    """Counts checks attempted and failed; remembers what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def expect(self, what: str, got, want) -> bool:
        self.attempted += 1
        if got == want:
            return True
        self.failed += 1
        self.failures.append(f"{what}: got {got!r}, expected {want!r}")
        return False

    def expect_within(self, what: str, got: float, want: float,
                      tolerance: float) -> bool:
        self.attempted += 1
        if want and abs(got - want) <= tolerance * abs(want):
            return True
        self.failed += 1
        self.failures.append(f"{what}: got {got!r}, expected {want!r} "
                             f"within {tolerance:.0%}")
        return False


#: mp_matrix on 4 cores, keyed by matrix size ``n``:
#:
#: * ``arm``: the armlet reference run per fabric, (cumulative cycles,
#:   events fired);
#: * ``tgp_sha256``/``bin_sha256``: per master, digests of the translated
#:   ``.tgp`` text and ``.bin`` image.  Reactive translation drops the
#:   fabric's timing, so programs traced on AHB and on TLM are
#:   byte-identical and share these digests;
#: * ``replay``: the TG run of those programs per fabric, (cumulative
#:   cycles, events fired, fabric transactions, beats transferred).
PINS: Dict[int, dict] = {
    8: {
        "arm": {
            "ahb": (25889, 23155),
            "stbus": (22666, 23200),
            "xpipes": (37642, 79170),
            "tlm": (22632, 19393),
        },
        "tgp_sha256": [
            "bc615b4fb77af8f7a2e2786723030754ca4aed469168914c5945f961ad4180d4",
            "ad2e4e6a5b55f20fc98928c37f09b49739a54f5f97aab471b0a3488e9e619e3b",
            "bc0a579a4c772005ad7f121431781ba3213c54ea6f465bd6b9eef91118a03660",
            "4d660fe8891efdf09306e2559e9fbe315f2a74a770ace0ca6a8d5a389c3e2414",
        ],
        "bin_sha256": [
            "650e8e4ddc7c2d2b36da076be8fa4eb0f4178708672c14de7f9f7c61d480142f",
            "41a864b33d60eec81e79e5f3721d1c15a37513061116c2b2e2beb11af6c45f1b",
            "dbc5a18da77c1c05ece90a3da55e7bc76cabc3ac165829bf779696b8d4b7cbe9",
            "9c6c1096ea170a6b8341722c8697f3875db78446ef16cf6152288584ddacf564",
        ],
        "replay": {
            "ahb": (25883, 14764, 2153, 2393),
            "stbus": (23629, 14799, 2158, 2398),
            "xpipes": (37748, 71373, 1927, 2167),
        },
    },
    4: {
        "arm": {
            "ahb": (6389, 5405),
            "stbus": (5302, 5468),
            "xpipes": (7722, 16719),
            "tlm": (5268, 4509),
        },
        "tgp_sha256": [
            "04fbe8211f2699033a774fcdd2cefc2a1aff060dbea584ab32bf71e75878f60f",
            "ccb20559122348f5e9c68870b06eaa345d48625f50d7f68619c8125af7e6a363",
            "864b947eea31d0ee322d26a7a5a0f5d4dc64cf9d6dddc00775d47bc70ea489cf",
            "6997ffaf73976100ce1c990a302d1a8b7ed3c4220e9d3309cc65387d8bd97459",
        ],
        "bin_sha256": [
            "5443a06f6f7d73652eb9e555ea25835b2e9427325ac6b7a0da29b439adab5ff0",
            "5b0577e4e809a27524de2199a2652b98f60e30f519f78fdc7d39c80db86ac856",
            "f29bfbb3f83c4b6dc604b43ba02d6f875712cd2ed7bd2687b47a44f48ff89abe",
            "cd1c7a9a6d010b495042717ccfe4f6e0abbb6a6d74350cc7b173dd137ba12830",
        ],
        "replay": {
            "ahb": (6395, 3770, 539, 779),
            "stbus": (5421, 3791, 542, 782),
            "xpipes": (7816, 15395, 430, 670),
        },
    },
}
