"""End-to-end, layer-attributed benchmark of the paper's TG flow.

Run from the repository root::

    python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 30 --trace 0

``--trace 0`` measures every end-to-end metric untraced; ``--trace 1``
makes the separate traced run that gives the per-layer metrics and
writes its spans to ``.perfbench_out/``.  Either way the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 412, "failed": 0,
     "metrics": {"flow_s": {"value": 3.21, "unit": "s"}, ...}}

``attempted``/``failed`` count the checks of simulated results against
the pinned values in ``perfbench/pinned.py``.  Failed checks are listed
on standard error.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_flow", "fabric_replay",
                                 "checkpoint_fanout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its checkpoint scratch directory
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401  (fails when the program is absent)
    except ImportError as error:
        print(f"perfbench: cannot import the program from "
              f"{os.path.join(ROOT, 'src')}: {error}", file=sys.stderr)
        return 2
    from pinned import PINS
    from workloads import END_TO_END, PER_LAYER, run_workload

    env, values = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), ROOT, PINS)
    checks = env.checks
    print(f"perfbench: {args.workload} seed {args.seed}: {env.rounds} "
          f"round(s), {checks.attempted} checks, {checks.failed} failed",
          file=sys.stderr)
    for failure in checks.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
