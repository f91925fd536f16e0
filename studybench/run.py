"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 studybench/run.py --workload study-cold --seed 7 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``studybench/README.md``).  Human-readable figures come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same object,
with the extra figures, is kept in ``.studybench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: What the benchmark needs from the checkout it runs in.
REQUIRED = (
    "src/repro/__init__.py",
    "tests/golden/regenerate.py",
    "tests/golden/digest.txt",
    "BENCH_pipeline.json",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["study-cold", "study-warm", "serve-mixed"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="input sizes; 'tiny' is for the benchmark's "
                             "own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [path for path in REQUIRED if not (root / path).is_file()]
    if missing:
        print(f"error: run from the repository root; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    import workloads

    ctx = workloads.Context(
        root=root, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace),
        scale=workloads.TINY if args.scale == "tiny" else workloads.FULL,
    )
    outcome = workloads.WORKLOADS[args.workload](ctx)

    for problem in outcome.problems:
        print(f"FAILED {problem}")
    for name, (value, unit, samples) in sorted(outcome.detail.items()):
        print(f"detail {name} = {value:.6g} {unit} (n={samples})")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        # A latency median over mostly failed operations is infinite;
        # JSON has no infinity, so it prints as the largest float.
        "metrics": {
            name: {"value": value if math.isfinite(value) else sys.float_info.max,
                   "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, scale=args.scale,
                  detail={name: {"value": value, "unit": unit, "n": samples}
                          for name, (value, unit, samples)
                          in outcome.detail.items()},
                  ops=outcome.ops)
    out = ctx.out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
