"""Set-up probe, run in a fresh interpreter by run.py.

Prints the seconds from the first line of this file until ``import orlicz``
has finished and the workload's seeded inputs (for theta_query, the
conjugate table and the ThetaSolver) are built.

    python3 perfbench/probe.py --workload theta_query --seed 1
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import orlicz  # noqa: E402,F401

import workloads  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    workloads.build(args.workload, args.seed, ROOT)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
