"""Run one benchmark workload and print its result.

From the root of a repository checkout::

    python3 perfbench/run.py --workload p128-b8 --seed 1 --seconds 30 --trace 0

Workloads: ``p128-b8``, ``goldilocks-b1``, ``gateway`` (perfbench/README.md
says what each stresses).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``.  The line before it is a JSON summary that
also carries ``error_rate``, ``batch_s_p90`` where the run holds enough
samples for it, and the sample counts.

Exits 2 when the repository's sources are not next to this directory
and 1 when a run cannot produce a complete result; neither prints a
result line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, BenchmarkError, run_workload

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        report = run_workload(
            args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
        )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report.summary, sort_keys=True))
    print(json.dumps(report.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
