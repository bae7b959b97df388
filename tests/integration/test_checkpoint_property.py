"""Property: a snapshot taken at *any* cycle restores to a run whose
end state is bit-identical to the uninterrupted run — healthy and
with fault injection active.  This is the checkpointing
contract stated in docs/CHECKPOINT.md, driven by hypothesis over the
snapshot cycle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.synthetic import TrafficSpec, generate
from repro.faults import RetryPolicy
from repro.harness import (
    build_tg_platform,
    platform_recipe,
    restore_platform,
)

SPEC = TrafficSpec.from_dict({"n_cores": 2, "transactions": 25,
                              "pattern": "hotspot", "load": 0.5,
                              "seed": 3})
FAULTS = {"slave_errors": [{"slave": "shared", "probability": 0.15}],
          "link_faults": [{"jitter": 2}]}
RETRY = RetryPolicy(max_attempts=4, backoff=2, backoff_factor=2,
                    on_exhaust="degrade")

_BASELINES = {}


def _build(faulted):
    overrides = {}
    if faulted:
        overrides.update(fault_spec=FAULTS, fault_seed=13)
    programs, _ = generate(SPEC)
    platform = build_tg_platform(programs, 2, "ahb", overrides,
                                 retry_policy=RETRY if faulted else None)
    recipe = platform_recipe(programs, 2, "ahb", overrides,
                             retry_policy=RETRY if faulted else None)
    return platform, recipe


def _baseline(faulted):
    """End state of the uninterrupted run (memoised per config)."""
    if faulted not in _BASELINES:
        platform, _ = _build(faulted)
        platform.run()
        _BASELINES[faulted] = (
            platform.stats_summary(),
            platform.resilience_counters().as_dict() if faulted else None,
            platform.sim.now,
            platform.sim.events_fired,
        )
    return _BASELINES[faulted]


@pytest.mark.parametrize("faulted", [False, True],
                         ids=["healthy", "faulted"])
@settings(max_examples=8, deadline=None)
@given(cycle=st.integers(min_value=1, max_value=400))
def test_snapshot_any_cycle_restores_bit_identical(faulted, cycle):
    base_summary, base_res, base_now, base_fired = _baseline(faulted)

    platform, recipe = _build(faulted)
    # run(until=X) pins the clock at X even past the last event, so a
    # snapshot beyond the natural end would (correctly) restore to a
    # later clock; the property is about interrupting a live run
    platform.run(until=min(cycle, base_now - 1))
    payload = platform.snapshot(recipe)

    restored = restore_platform(payload)
    restored.run()

    assert restored.sim.now == base_now
    assert restored.sim.events_fired == base_fired
    assert restored.stats_summary() == base_summary
    if faulted:
        assert restored.resilience_counters().as_dict() == base_res
