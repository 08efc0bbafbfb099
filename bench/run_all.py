"""Run every benchmark workload once and print one summary.

    python3 bench/run_all.py [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs through bench/run.py in
its own process, one after another. The summary lists every metric by
workload, name and unit, then the failed and attempted operations. The exit
code is 1 if any workload is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    attempted = failed = 0
    all_correct = True
    for name in run.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{name}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        all_correct = all_correct and result["correct"]
        print(f"== {name}: correct={result['correct']}, "
              f"{result['failed']} failed of {result['attempted']}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:<45} {m['value']:>14.6g} {m['unit']}")
    print(f"operations: {failed} failed of {attempted} attempted")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
