"""Record the reference output fingerprints in bench/digests.json.

    python3 bench/record_digests.py

Run from the root of a checkout whose outputs are taken as correct. Every
workload is run once per input seed, each command in
its own child process as in a measured run, and the fingerprint of every
output is stored with the Python and numpy versions that made the inputs.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
from pathlib import Path

import numpy as np

import run


def record(name: str, seed: int, root: Path) -> dict:
    work = root / ".bench_work" / f"record-{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    indir, outdir = work / "in", work / "out"
    outdir.mkdir(parents=True)
    run.write_inputs(run.make_inputs(name, seed), indir)
    env = run.child_env(root / "src")
    refs = {}
    for op in run.WORKLOADS[name].ops:
        rc, _, _ = run.spawn([sys.executable, "-c", run.CLI_SHIM,
                              *run.op_argv(op, indir, outdir)], env, work / "log.txt")
        if rc != 0:
            raise SystemExit(f"{name} seed {seed}: {op.name} exited {rc}; see "
                             f"{work / 'log.txt'}")
        for fname in op.outputs:
            refs[fname] = run.fingerprint(outdir / fname)
    shutil.rmtree(work)
    return refs


def main() -> int:
    root = Path.cwd()
    table = {"python": platform.python_version(), "numpy": np.__version__,
             "input_seeds": run.INPUT_SEEDS, "workloads": {}}
    for name in sorted(run.WORKLOADS):
        table["workloads"][name] = {
            str(seed): record(name, seed, root) for seed in range(run.INPUT_SEEDS)}
        print(f"{name}: {run.INPUT_SEEDS} input seeds recorded", flush=True)
    run.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
