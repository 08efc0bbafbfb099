"""Command-line surface: preprocess, generate, detect, evaluate, sweep, theme.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 resource cap or
timeout. main() writes one manifest JSON alongside the outputs of every
successful run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import json
import signal
import sys
import time
from pathlib import Path

from . import baselines, caa, hashtags, metrics
from .cliques import enumerate_maximal_cliques, filter_overlapping
from .errors import (
    CliquecommError,
    DeadlineExceededError,
    InputError,
    ResourceLimitError,
)
from .graph import (
    load_cover,
    load_edge_list,
    mutualize,
    planted_partition,
    save_cover,
    save_edge_list,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

ALARM_REARM_SECS = 0.05  # retry interval for a lost wall-clock alarm
OVERLAP_SWEEP_MIN_SIZE = 15  # the overlapping sweep's default clique floor


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_Usage(message)


class SystemExit_Usage(Exception):
    pass


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_manifest(args, outdir, inputs, outputs, started, extra=None):
    manifest = {
        "subcommand": args.command,
        "params": {
            k: v
            for k, v in sorted(vars(args).items())
            if k != "command" and not callable(v)
        },
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "duration_secs": round(time.monotonic() - started, 3),
    }
    if extra:
        manifest.update(extra)
    _write_json(outdir / f"manifest_{args.command.replace('-', '_')}.json", manifest)


@contextlib.contextmanager
def _wall_clock_budget(seconds):
    """Raise DeadlineExceededError on the main thread after `seconds` (SIGALRM).

    The handler re-arms a short interval before it raises, because a raise
    inside a gc callback is printed as ignored and lost; the alarm then
    fires again until one raise gets through. Leaving the block disarms it.
    """
    if seconds is None:
        yield
        return
    message = f"wall-clock budget of {seconds:g} s exceeded"
    if seconds <= 0:
        raise DeadlineExceededError(message)
    if not seconds < 2**31:  # nan, inf, or past a 32-bit time_t
        raise ValueError(f"--timeout-secs must be finite and below 2**31, got {seconds:g}")
    armed = True

    def on_alarm(signum, frame):
        if armed:
            signal.setitimer(signal.ITIMER_REAL, ALARM_REARM_SECS)
            raise DeadlineExceededError(message)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        yield
    finally:
        armed = False  # first, so that a re-armed alarm landing here is a no-op
        signal.setitimer(signal.ITIMER_REAL, 0)  # disarm before restoring
        signal.signal(signal.SIGALRM, previous)


def _parse_grid(text: str):
    grid = [float(x) for x in text.split(",") if x.strip()]
    if not grid:
        raise ValueError(f"--grid has no values: {text!r}")
    return grid


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# Subcommands. Each writes its outputs under outdir and returns
# (inputs, outputs, extra manifest keys); main() writes the manifest.

def cmd_mutualize(args, outdir):
    d = load_edge_list(args.edges, directed=True)
    g = mutualize(d)
    out = outdir / "mutual_edges.tsv"
    save_edge_list(g, out)
    print(f"mutualize: {len(d.edges)} directed edges -> {g.n} nodes, {g.m} mutual edges")
    return [args.edges], [out], {"nodes": g.n, "edges": g.m}


def cmd_generate(args, outdir):
    g = planted_partition(args.blocks, args.block_size, args.p_in, args.p_out, args.seed)
    out = outdir / "planted_edges.tsv"
    save_edge_list(g, out)
    print(f"generate: {g.n} nodes, {g.m} edges ({args.blocks} blocks of {args.block_size})")
    return [], [out], {"nodes": g.n, "edges": g.m}


# Detectors for cmd_detect: (graph, args) -> (cover, extra manifest keys).

def _detect_caa(g, args):
    params = caa.CaaParams(
        min_clique_size=args.min_clique_size,
        overlapping_threshold=args.overlapping_threshold,
        growing_threshold=args.growing_threshold,
        max_rounds=args.max_rounds,
        max_cliques=args.max_cliques,
    )
    summary = caa.CaaRunSummary()
    cover = caa.run_caa(g, params, summary=summary)
    return cover, {
        "seed_count": summary.seed_count,
        "rounds_histogram": {str(k): v for k, v in summary.rounds_histogram.items()},
    }


def _detect_lp(g, args):
    params = baselines.LpParams(rng_seed=args.seed, max_iterations=args.max_iterations)
    return baselines.label_propagation(g, params), {}


def _detect_cpm(g, args):
    params = baselines.CpmParams(k=args.k)
    return baselines.clique_percolation(g, params), {}


def cmd_detect(args, outdir):
    g = load_edge_list(args.graph)
    cover, extra = args.detector(g, args)
    out = outdir / f"{args.command}_cover.txt"
    save_cover(g, cover, out)
    print(f"{args.command}: {len(cover)} communities"
          + "".join(f"; {k} {v}" for k, v in extra.items()))
    return [args.graph], [out], {**extra, "community_count": len(cover)}


def cmd_metrics(args, outdir):
    paths = {}  # label -> cover path; a report is keyed by its cover's label
    for cover_path in args.covers:
        label = Path(cover_path).stem
        if label in paths:
            raise ValueError(f"covers {paths[label]} and {cover_path} "
                             f"share the label {label!r}")
        paths[label] = cover_path
    g = load_edge_list(args.graph)
    bands = metrics.parse_bands(args.bands)

    reports = {}
    for label, cover_path in paths.items():
        cover = load_cover(g, cover_path)
        if cover and not g.m:
            raise InputError(f"{cover_path}: extended modularity is undefined "
                             f"on the edgeless graph {args.graph}")
        reports[label] = metrics.evaluate(
            g, cover, bands, args.coverage_lo, args.coverage_hi
        )

    json_out = _write_json(outdir / "metrics.json",
                           {label: vars(r) for label, r in reports.items()})
    csv_out = _write_csv(outdir / "metrics.csv", [
        "algorithm_label", "band", "count", "percentage",
        "eq_contribution", "tpr_mean", "tpr_micro",
    ], [
        [
            label, bl, count,
            f"{r.histogram_pct[bl]:.4f}",
            repr(r.eq_by_band[bl]),
            "" if r.tpr_mean_by_band[bl] is None else repr(r.tpr_mean_by_band[bl]),
            "" if r.tpr_micro_by_band[bl] is None else repr(r.tpr_micro_by_band[bl]),
        ]
        for label, r in reports.items() for bl, count in r.histogram.items()
    ])

    header = f"{'algorithm':<20} {'communities':>11} {'largest':>8} {'coverage':>9} {'EQ':>9}"
    print(header)
    for label, r in reports.items():
        print(
            f"{label:<20} {r.community_count:>11} {r.largest_community_size:>8}"
            f" {r.coverage:>9.4f} {r.eq_total:>9.4f}"
        )
    return [args.graph, *args.covers], [json_out, csv_out], None


def cmd_sweep(args, outdir):
    g = load_edge_list(args.graph)
    grid = _parse_grid(args.grid)
    bands = metrics.parse_bands(args.bands)
    growing = args.sweep == "growing"
    min_size = args.min_clique_size
    if min_size is None:
        min_size = caa.CaaParams.min_clique_size if growing else OVERLAP_SWEEP_MIN_SIZE
    if growing:
        # Built up front so that a bad grid value fails before any work.
        params = [caa.CaaParams(min_clique_size=min_size, growing_threshold=v)
                  for v in grid]
    cliques = enumerate_maximal_cliques(g, min_size)

    if growing:
        # Overlap fixed at 0: one seed set, regrown and binned per grid value.
        seeds = filter_overlapping(cliques, 0.0).cliques
        header = ["growing_threshold", "band", "count"]
        rows = []
        for value, p in zip(grid, params):
            counts, _ = metrics.size_histogram(caa.grow_seeds(g, seeds, p), bands)
            rows += [[value, bl, count] for bl, count in counts.items()]
    else:
        # Kept-clique count per overlap threshold over large seed cliques.
        header = ["overlapping_threshold", "kept_cliques"]
        rows = [[v, len(filter_overlapping(cliques, v).cliques)] for v in grid]

    out = _write_csv(outdir / f"sweep_{args.sweep}.csv", header, rows)
    print(f"sweep: wrote {out}")
    return [args.graph], [out], None


def cmd_hashtag_report(args, outdir):
    if args.size_lo > args.size_hi:
        raise ValueError(f"size range [{args.size_lo}, {args.size_hi}] is empty: "
                         "--size-lo is above --size-hi")
    g = load_edge_list(args.graph)
    cover = load_cover(g, args.cover)
    table = hashtags.load_hashtags(args.hashtags, preserve_case=args.preserve_case)
    sample = hashtags.sample_communities(
        cover, args.size_lo, args.size_hi, args.count, args.seed
    )
    entries = [
        hashtags.community_theme(g, c, table, args.user_top_k, args.community_top_k)
        for c in sample
    ]

    json_out = _write_json(outdir / "hashtag_report.json", [vars(e) for e in entries])

    text_out = outdir / "hashtag_report.txt"
    with open(text_out, "w", encoding="utf-8") as fh:
        for e in entries:
            tags = ", ".join(f"#{t} {c}" for t, c in e.top_tags)
            fh.write(f"community of {e.size} users | top tags: {tags}\n")
            jac = "n/a" if e.mean_pairwise_jaccard is None else f"{e.mean_pairwise_jaccard:.3f}"
            pen = "n/a" if e.top_tag_penetration is None else f"{e.top_tag_penetration:.3f}"
            fh.write(
                f"  mean pairwise top-{args.user_top_k} jaccard: {jac}; "
                f"top-tag penetration: {pen}; "
                f"members without data: {e.members_missing_data}\n"
            )
    print(f"hashtag-report: {len(entries)} communities themed")
    return [args.graph, args.cover, args.hashtags], [json_out, text_out], None


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cliquecomm",
                     description="Clique-seeded community detection and evaluation")
    default_bands = ",".join(map(metrics.band_label, metrics.DEFAULT_BANDS))
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and recorded in the manifest; has no effect")
    common.add_argument("--timeout-secs", type=float, default=None,
                        help="wall-clock budget for the whole run; exceeding it exits 3")
    common.add_argument("--output-dir", default=".", help="where outputs land")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutualize", parents=[common],
                       help="derive the mutual undirected graph from directed edges")
    p.add_argument("edges", help="directed edge-list file")
    p.set_defaults(func=cmd_mutualize)

    p = sub.add_parser("generate", parents=[common],
                       help="generate a planted-partition graph")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--block-size", type=int, required=True)
    p.add_argument("--p-in", type=float, required=True)
    p.add_argument("--p-out", type=float, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("caa", parents=[common], help="clique augmentation detector")
    p.add_argument("graph", help="undirected edge-list file")
    p.add_argument("--min-clique-size", type=int, default=caa.CaaParams.min_clique_size)
    p.add_argument("--overlapping-threshold", type=float,
                   default=caa.CaaParams.overlapping_threshold)
    p.add_argument("--growing-threshold", type=float,
                   default=caa.CaaParams.growing_threshold)
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--max-cliques", type=_positive_int, default=caa.DEFAULT_CLIQUE_CAP)
    p.set_defaults(func=cmd_detect, detector=_detect_caa)

    p = sub.add_parser("lp", parents=[common], help="label propagation detector")
    p.add_argument("graph")
    p.add_argument("--max-iterations", type=int, default=baselines.LpParams.max_iterations)
    p.set_defaults(func=cmd_detect, detector=_detect_lp)

    p = sub.add_parser("cpm", parents=[common], help="clique percolation detector")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_detect, detector=_detect_cpm)

    p = sub.add_parser("metrics", parents=[common],
                       help="evaluate one or more covers against a graph")
    p.add_argument("graph")
    p.add_argument("covers", nargs="+", help="cover files; label = file stem")
    p.add_argument("--bands", default=default_bands)
    p.add_argument("--coverage-lo", type=int, default=metrics.COVERAGE_RANGE[0])
    p.add_argument("--coverage-hi", type=int, default=metrics.COVERAGE_RANGE[1])
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("sweep", parents=[common],
                       help="threshold sweep experiments (CSV output)")
    p.add_argument("graph")
    p.add_argument("--sweep", choices=("growing", "overlapping"), required=True)
    p.add_argument("--grid", required=True, help="comma-separated threshold values")
    p.add_argument("--min-clique-size", type=int, default=None,
                   help=f"clique floor (default {caa.CaaParams.min_clique_size} for "
                   f"growing, {OVERLAP_SWEEP_MIN_SIZE} for overlapping)")
    p.add_argument("--bands", default=default_bands)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("hashtag-report", parents=[common],
                       help="theme sampled communities from hashtag counts")
    p.add_argument("graph")
    p.add_argument("cover")
    p.add_argument("hashtags")
    p.add_argument("--size-lo", type=int, default=10)
    p.add_argument("--size-hi", type=int, default=150)
    p.add_argument("--count", type=_positive_int, default=50)
    p.add_argument("--user-top-k", type=_positive_int, default=hashtags.USER_TOP_K)
    p.add_argument("--community-top-k", type=_positive_int,
                   default=hashtags.COMMUNITY_TOP_K)
    p.add_argument("--preserve-case", action="store_true",
                   help="keep hashtag case instead of folding it")
    p.set_defaults(func=cmd_hashtag_report)

    return parser


def main(argv=None) -> int:
    # The run builds millions of sets, dicts and tuples but no reference
    # cycles, so the cyclic collector's passes over them are pure cost:
    # pause it for the run and leave it as the caller had it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    started = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Inside the try: an alarm that lands during the disarm still exits 3.
        with _wall_clock_budget(args.timeout_secs):
            outdir = Path(args.output_dir)
            try:
                outdir.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError) as exc:
                raise SystemExit_Usage(
                    f"cannot make --output-dir {args.output_dir!r}: {exc.strerror}"
                ) from None
            inputs, outputs, extra = args.func(args, outdir)
            _write_manifest(args, outdir, inputs, outputs, started, extra)
        return EXIT_OK
    except (ResourceLimitError, DeadlineExceededError, MemoryError, RecursionError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SystemExit_Usage, ValueError, CliquecommError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
