"""cliquecomm benchmark: seeded CLI workloads, timed end to end and traced.

Run from the root of a source checkout:

    python3 bench/run.py --workload social-pipeline --seed 3 --seconds 30 --trace 0

With --trace 0 every command of the workload runs in a fresh child process,
one at a time, timed from spawn to exit, with its peak RSS read from
wait4(). With --trace 1 the same commands run in-process in a child
interpreter (bench/tracer.py), alternately with and without wrappers around
the package's public functions, and the per-layer numbers are reported.
Every output is checked against the reference digests in digests.json.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. See bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import tracer

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"

# --seed is folded onto this many input seeds, each of which has
# reference digests in digests.json.
INPUT_SEEDS = 32
SETUP_REPS = 5
MIN_REPS = 3
CHILD_TIMEOUT_S = 150.0
GRID_OVERLAPPING = ",".join(f"{x / 10:.1f}" for x in range(11))

# Files whose floats are sums over hash-ordered sets (see README.md, "Seeds
# and output digests"); they are compared by skeleton digest plus float
# fingerprint.
FLOAT_FILES = ("metrics.json", "metrics.csv")
_FLOAT_RE = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")
FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload. `kind` groups it into an end-to-end
    metric: detect (produces a cover or sweep), evaluate, or prepare."""

    name: str
    argv: tuple
    outputs: tuple
    kind: str


@dataclass(frozen=True)
class Workload:
    key: int
    make_inputs: object  # (rng) -> {file name: text}
    ops: tuple
    cover_label: str  # metrics.json entry reported as cover_eq/cover_coverage


def social_inputs(rng):
    return {"follows.tsv": gen.social_follows(rng, blocks=150)}


def dense_inputs(rng):
    sizes = np.round(np.linspace(10, 30, 300)).astype(int)
    edges, ids, cores = gen.chung_lu_with_cores(
        rng, n=12_000, mean_degree=8, gamma=2.5, core_sizes=sizes,
        density=0.95, hub_bias=0.4)
    return {"dense.tsv": edges, "tags.tsv": gen.core_hashtags(rng, ids, cores)}


def sweep_inputs(rng):
    return {
        "planted.tsv": gen.planted_edges(rng, blocks=60),
        "cores.tsv": gen.matching_cores(rng, n=2000, mean_degree=4, cores=30,
                                        size=26, missing=8),
    }


# Why each workload exists, and which layer it loads: README.md, "Workloads,
# and why each was chosen".
WORKLOADS = {
    "social-pipeline": Workload(
        key=1,
        make_inputs=social_inputs,
        ops=(
            Op("mutualize", ("mutualize", "{in}/follows.tsv"),
               ("mutual_edges.tsv",), "prepare"),
            Op("caa", ("caa", "{out}/mutual_edges.tsv"), ("caa_cover.txt",), "detect"),
            Op("metrics", ("metrics", "{out}/mutual_edges.tsv", "{out}/caa_cover.txt"),
               ("metrics.json", "metrics.csv"), "evaluate"),
        ),
        cover_label="caa_cover",
    ),
    "dense-overlap": Workload(
        key=2,
        make_inputs=dense_inputs,
        ops=(
            Op("caa", ("caa", "{in}/dense.tsv", "--overlapping-threshold", "0.5"),
               ("caa_cover.txt",), "detect"),
            Op("metrics", ("metrics", "{in}/dense.tsv", "{out}/caa_cover.txt"),
               ("metrics.json", "metrics.csv"), "evaluate"),
            Op("hashtag", ("hashtag-report", "{in}/dense.tsv", "{out}/caa_cover.txt",
                           "{in}/tags.tsv"),
               ("hashtag_report.json", "hashtag_report.txt"), "evaluate"),
        ),
        cover_label="caa_cover",
    ),
    "sweep-baselines": Workload(
        key=3,
        make_inputs=sweep_inputs,
        ops=(
            Op("sweep_growing", ("sweep", "{in}/planted.tsv", "--sweep", "growing",
                                 "--grid", "0.5,0.7,0.9"),
               ("sweep_growing.csv",), "detect"),
            Op("lp", ("lp", "{in}/planted.tsv"), ("lp_cover.txt",), "detect"),
            Op("cpm", ("cpm", "{in}/planted.tsv", "--k", "3"), ("cpm_cover.txt",), "detect"),
            Op("metrics", ("metrics", "{in}/planted.tsv", "{out}/lp_cover.txt",
                           "{out}/cpm_cover.txt"),
               ("metrics.json", "metrics.csv"), "evaluate"),
            Op("sweep_overlapping", ("sweep", "{in}/cores.tsv", "--sweep", "overlapping",
                                     "--grid", GRID_OVERLAPPING),
               ("sweep_overlapping.csv",), "detect"),
        ),
        cover_label="lp_cover",
    ),
}


ALL_OPS = list(dict.fromkeys(op.name for wl in WORKLOADS.values() for op in wl.ops))


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def make_inputs(name: str, seed: int) -> dict:
    wl = WORKLOADS[name]
    rng = np.random.default_rng([input_seed(seed), wl.key])
    return wl.make_inputs(rng)


def write_inputs(files: dict, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for fname, text in files.items():
        (directory / fname).write_text(text, encoding="utf-8")


def op_argv(op: Op, indir: Path, outdir: Path) -> list:
    fill = {"{in}": str(indir), "{out}": str(outdir)}
    argv = []
    for a in op.argv:
        for k, v in fill.items():
            a = a.replace(k, v)
        argv.append(a)
    return argv + ["--output-dir", str(outdir)]


# ---------------------------------------------------------------------------
# Output fingerprints.

def fingerprint(path: Path):
    """SHA-256 of the file, or for FLOAT_FILES the SHA-256 of its text with
    every float replaced by 'F' plus (count, sum, sum of squares, position-
    weighted sum) of those floats."""
    data = path.read_bytes()
    if path.name not in FLOAT_FILES:
        return hashlib.sha256(data).hexdigest()
    text = data.decode("utf-8")
    floats = [float(m) for m in _FLOAT_RE.findall(text)]
    skeleton = _FLOAT_RE.sub("F", text)
    return {
        "skeleton": hashlib.sha256(skeleton.encode()).hexdigest(),
        "floats": [len(floats), sum(floats), sum(x * x for x in floats),
                   sum(i * x for i, x in enumerate(floats, 1))],
    }


def same_fingerprint(got, ref) -> bool:
    if isinstance(ref, str) or isinstance(got, str):
        return got == ref
    if got["skeleton"] != ref["skeleton"] or got["floats"][0] != ref["floats"][0]:
        return False
    return all(abs(a - b) <= FLOAT_RTOL * max(abs(b), 1e-3)
               for a, b in zip(got["floats"][1:], ref["floats"][1:]))


def load_references():
    if not DIGESTS_PATH.is_file():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


def check_outputs(op: Op, outdir: Path, refs) -> list:
    """Names of op's outputs that are missing or differ from the reference."""
    bad = []
    for fname in op.outputs:
        path = outdir / fname
        if not path.is_file():
            bad.append(fname)
        elif refs is None or fname not in refs or not same_fingerprint(
                fingerprint(path), refs[fname]):
            bad.append(fname)
    return bad


def cover_quality(outdir: Path, label: str):
    """(eq_total, coverage) of one cover in metrics.json, to 10 significant
    digits: the unrounded sums differ in the last bit between processes."""
    report = json.loads((outdir / "metrics.json").read_text())[label]
    return float(f"{report['eq_total']:.10g}"), float(f"{report['coverage']:.10g}")


# ---------------------------------------------------------------------------
# Child processes.

def child_env(src: Path) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


def spawn(argv: list, env: dict, log: Path):
    """Run argv to completion; return (exit code, seconds spawn-to-exit,
    peak RSS in MiB). A child past CHILD_TIMEOUT_S is killed."""
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


CLI_SHIM = "import sys; from cliquecomm.cli import main; sys.exit(main())"


def check_package(src: Path, env: dict, log: Path) -> None:
    """Import the package once in a child, which also writes its bytecode
    cache, and make sure it is the checkout's own copy."""
    out = subprocess.run(
        [sys.executable, "-c", "import cliquecomm.cli as c; print(c.__file__)"],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    path = out.stdout.strip()
    if out.returncode != 0 or not path or not Path(path).resolve().is_relative_to(
            src.resolve()):
        log.write_text(out.stdout + out.stderr)
        raise SystemExit(f"error: cannot import cliquecomm from {src}: {out.stderr.strip()}")


# ---------------------------------------------------------------------------
# Measured runs.

@dataclass
class Tally:
    """Operations attempted and failed, plus problems that are not one
    operation's (non-deterministic inputs, a crashed tracer child)."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def record(self, label: str, rc: int, bad: list) -> None:
        self.attempted += 1
        if rc != 0 or bad:
            self.failed += 1
            self.notes.append(f"{label}: exit {rc}, bad outputs {bad}")


def run_untraced(wl: Workload, work: Path, indir: Path, env: dict, refs,
                 seconds: float, tally: Tally) -> dict:
    reps = []
    quality = set()
    started = time.perf_counter()
    while True:
        outdir = work / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        rep = {"wall_s": 0.0, "detect_s": 0.0, "evaluate_s": 0.0, "prepare_s": 0.0,
               "peak_rss_mib": 0.0}
        for op in wl.ops:
            rc, secs, rss = spawn([sys.executable, "-c", CLI_SHIM,
                                   *op_argv(op, indir, outdir)], env, work / "log.txt")
            tally.record(op.name, rc, check_outputs(op, outdir, refs) if rc == 0 else [])
            rep["wall_s"] += secs
            rep[f"{op.kind}_s"] += secs
            rep["peak_rss_mib"] = max(rep["peak_rss_mib"], rss)
        if (outdir / "metrics.json").is_file():
            quality.add(cover_quality(outdir, wl.cover_label))
        reps.append(rep)
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break
    if len(quality) != 1:
        tally.problems.append(f"cover quality differs between repetitions: {quality}")
    metrics = {k: statistics.median(r[k] for r in reps)
               for k in ("wall_s", "detect_s", "evaluate_s", "peak_rss_mib")}
    if quality:
        metrics["cover_eq"], metrics["cover_coverage"] = min(quality)
    metrics["repetitions"] = len(reps)
    return metrics


def run_traced(name: str, wl: Workload, work: Path, indir: Path, env: dict, refs,
               seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced in-process children; per-layer metrics
    are medians over the traced ones."""
    by_name = {op.name: op for op in wl.ops}
    runs = {0: [], 1: []}
    started = time.perf_counter()
    trace = 0
    while True:
        outdir = work / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        spec = work / "spec.json"
        result_path = work / "result.json"
        spans_path = work.parent / f"trace-{name}.json"
        spec.write_text(json.dumps({
            "trace": trace,
            "ops": [[op.name, op_argv(op, indir, outdir)] for op in wl.ops],
            "result": str(result_path),
            "spans": str(spans_path),
        }))
        rc, _, _ = spawn([sys.executable, str(BENCH_DIR / "tracer.py"), str(spec)],
                         env, work / "log.txt")
        if rc != 0 or not result_path.is_file():
            tally.problems.append(f"tracer child (trace={trace}) exited {rc}")
            break
        result = json.loads(result_path.read_text())
        for r in result["ops"]:
            op = by_name[r["name"]]
            tally.record(op.name, r["rc"],
                         check_outputs(op, outdir, refs) if r["rc"] == 0 else [])
        runs[trace].append(result)
        trace = 1 - trace
        elapsed = time.perf_counter() - started
        if runs[1] and elapsed * (1 + 1 / (len(runs[0]) + len(runs[1]))) > seconds:
            break
    if not runs[1]:
        return {}
    metrics = tracer.layer_metrics(runs[1], runs[0], ALL_OPS)
    walls = {t: statistics.median(sum(o["wall_s"] for o in r["ops"]) for r in runs[t])
             for t in (0, 1) if runs[t]}
    if 0 in walls:
        metrics["trace.overhead_s"] = walls[1] - walls[0]
    metrics["cli.import_s"] = statistics.median(
        r["import_s"] for r in runs[0] + runs[1])
    absent = sorted({a for r in runs[1] for a in r["absent"]})
    if absent:
        print(f"absent spans: {', '.join(absent)}", file=sys.stderr)
    return metrics


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    if metric.startswith("graph.bytes_"):
        return "B"
    if metric.endswith("ratio") or metric.startswith("cover_"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "cliquecomm" / "cli.py").is_file():
        print(f"error: {src}/cliquecomm not found; run from a source checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    refs_all = load_references()
    refs = refs_all.get("workloads", {}).get(args.workload, {}).get(
        str(input_seed(args.seed)))
    print(f"workload {args.workload} seed {args.seed} (input seed "
          f"{input_seed(args.seed)}); python {platform.python_version()}, numpy "
          f"{np.__version__}; references made with python "
          f"{refs_all.get('python')}, numpy {refs_all.get('numpy')}")

    base = root / ".bench_work"
    work = base / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        indir = work / "in"
        setup_times, digests = [], set()
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            write_inputs(make_inputs(args.workload, args.seed), indir)
            setup_times.append(time.perf_counter() - t0)
            digests.add(tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                              for p in sorted(indir.iterdir())))
        if len(digests) != 1:
            tally.problems.append("input generation is not deterministic")
        env = child_env(src)
        check_package(src, env, work / "log.txt")
        if args.trace:
            metrics = run_traced(args.workload, wl, work, indir, env, refs,
                                 args.seconds, tally)
        else:
            metrics = run_untraced(wl, work, indir, env, refs, args.seconds, tally)
            metrics["setup_s"] = statistics.median(setup_times)
            print(f"repetitions: {metrics.pop('repetitions')}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if refs is None:
        tally.problems.append(f"no reference digests for input seed {input_seed(args.seed)}")
    for note in tally.notes + tally.problems:
        print(f"FAILED {note}")
    for k in sorted(metrics):
        print(f"{k:<45} {metrics[k]:>14.6g} {unit_of(k)}")
    print(f"operations: {tally.failed} failed of {tally.attempted} attempted")
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
