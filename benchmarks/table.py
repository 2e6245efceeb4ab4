#!/usr/bin/env python3
"""Run every workload once and print its metrics, one row per workload.

    python3 benchmarks/table.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process through run.py, so peak memory and
set-up are per workload. Columns are "name [unit]".
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("optimize", "construct", "certify")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=RUN.parent.parent, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        rows[workload] = json.loads(proc.stdout.splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    header = ["workload", "correct", "failed/attempted"] + [
        f"{name} [{rows[WORKLOADS[0]]['metrics'][name]['unit']}]" for name in names
    ]
    print("\t".join(header))
    for workload, result in rows.items():
        cells = [workload, str(result["correct"]), f"{result['failed']}/{result['attempted']}"]
        cells += [format(result["metrics"][name]["value"], ".6g") for name in names]
        print("\t".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
