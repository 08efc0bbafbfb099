"""Acceptance suite: one test per release criterion, one printed line each."""

import resource
import statistics
import time

import pytest

from cliquecomm.baselines import CpmParams, LpParams, clique_percolation, label_propagation
from cliquecomm.caa import CaaParams, grow_community_with_rounds, run_caa
from cliquecomm.cli import main
from cliquecomm.cliques import CliqueSet, enumerate_maximal_cliques, filter_overlapping
from cliquecomm.graph import (
    build_graph,
    planted_partition,
    save_edge_list,
)
from cliquecomm.hashtags import community_theme, load_hashtags, user_top_k
from cliquecomm.metrics import evaluate, extended_modularity

from conftest import DATA_DIR, clique_sets, gnp, tpr, two_k5
from oracles import oracle_cpm, oracle_maximal_cliques, oracle_modularity
from test_metrics import random_partition

SYNTH = dict(k_blocks=10, block_size=30, p_in=0.6, p_out=0.02, rng_seed=42)


def report(criterion, message):
    print(f"criterion {criterion}: PASS ({message})")


def test_criterion_01_clique_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for p in (0.2, 0.5, 0.8):
        for seed in range(70):
            n = 6 + (seed % 7)  # sizes 6..12
            g = gnp(n, p, seed * 97 + int(p * 100))
            got = set(clique_sets(enumerate_maximal_cliques(g, 1).cliques))
            assert got == set(oracle_maximal_cliques(g))
            checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 200
    assert elapsed < 10.0
    report(1, f"{checked} graphs matched the exhaustive oracle in {elapsed:.1f}s")


def test_criterion_02_overlap_filter_worked_example():
    big = frozenset(range(10))
    keep_candidate = frozenset({0, 1, 10, 11, 12})  # overlap 2 < 3.5
    drop_candidate = frozenset({0, 1, 2, 3, 12})  # overlap 4 > 3.5
    kept = filter_overlapping(CliqueSet(cliques=[big, keep_candidate]), 0.7).cliques
    assert kept == [big, keep_candidate]
    kept = filter_overlapping(CliqueSet(cliques=[big, drop_candidate]), 0.7).cliques
    assert kept == [big]
    report(2, "sizes 10/5 at threshold 0.7: overlap 2 kept, overlap 4 discarded")


def test_criterion_03_growth_worked_example():
    ids = [f"m{i}" for i in range(10)]
    edges = [(ids[i], ids[j]) for i in range(10) for j in range(i + 1, 10)]
    edges += [("admit", ids[i]) for i in range(7)]
    edges += [("reject", ids[i]) for i in range(6)]
    g = build_graph(edges)
    seed = frozenset(g.ids.index(i) for i in ids)
    grown = grow_community_with_rounds(g, seed, 0.7)[0]
    assert g.ids.index("admit") in grown
    assert g.ids.index("reject") not in grown
    report(3, "snapshot size 10 at threshold 0.7: 7 edges admit, 6 reject")


def test_criterion_04_threshold_one_fixpoint():
    seeds_checked = 0
    for seed in range(50):
        g = gnp(30, 0.3, 4000 + seed)
        cliques = enumerate_maximal_cliques(g, 1).cliques
        for clique, members in zip(cliques, clique_sets(cliques)):
            assert grow_community_with_rounds(g, clique, 1.0)[0] == members
            seeds_checked += 1
    report(4, f"{seeds_checked} maximal-clique seeds unchanged at threshold 1.0")


def test_criterion_05_disjoint_reduction():
    pairs = 0
    for seed in range(100):
        n = 10 + (seed % 21)  # sizes 10..30
        g = gnp(n, 0.3, 7000 + seed)
        if g.m == 0:
            g = gnp(n, 0.5, 7000 + seed)
        partition = random_partition(g.n, 6, seed)
        eq, _, _ = extended_modularity(g, partition)
        assert abs(eq - oracle_modularity(g, partition)) <= 1e-12
        pairs += 1
    assert pairs == 100

    g = gnp(20, 0.4, 123)
    eq_whole, _, _ = extended_modularity(g, [frozenset(range(g.n))])
    assert abs(eq_whole) <= 1e-12

    g = two_k5()
    eq_k5, _, _ = extended_modularity(
        g, [frozenset(range(5)), frozenset(range(5, 10))]
    )
    assert abs(eq_k5 - 0.5) <= 1e-12
    report(5, "100 partitions within 1e-12 of the pairwise oracle; identities hold")


def test_criterion_06_cpm_oracle_equivalence():
    for seed in range(100):
        n = 6 + (seed % 5)  # sizes 6..10
        g = gnp(n, 0.45, 8000 + seed)
        got = clique_percolation(g, CpmParams(k=3))
        assert set(got) == set(oracle_cpm(g, 3))
    report(6, "100 graphs matched the triangle-adjacency oracle at k=3")


def test_criterion_07_growing_threshold_trend():
    g = planted_partition(**SYNTH)
    seeds = filter_overlapping(enumerate_maximal_cliques(g, 3), 0.0)
    mean_seed = statistics.mean(len(c) for c in seeds.cliques)
    means = []
    for t in (0.5, 0.7, 0.9):
        cover = run_caa(g, CaaParams(growing_threshold=t))
        means.append(statistics.mean(len(c) for c in cover))
    assert means[0] >= means[1] >= means[2]
    assert abs(means[2] - mean_seed) <= 0.2 * mean_seed
    report(7, f"mean sizes {[round(m, 2) for m in means]} vs mean seed {mean_seed:.2f}")


def test_criterion_08_overlapping_threshold_trend():
    g = planted_partition(**SYNTH)
    cliques = enumerate_maximal_cliques(g, 3)
    counts = [
        len(filter_overlapping(cliques, i / 10).cliques) for i in range(11)
    ]
    assert counts == sorted(counts)
    report(8, f"kept-clique counts {counts} are non-decreasing")


def test_criterion_09_tpr():
    tri = build_graph([("a", "b"), ("b", "c"), ("a", "c")])
    assert tpr(tri, frozenset(range(3))) == 1.0
    k6 = build_graph(
        [(f"v{i}", f"v{j}") for i in range(6) for j in range(i + 1, 6)]
    )
    assert tpr(k6, frozenset(range(6))) == 1.0
    path4 = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
    assert tpr(path4, frozenset(range(4))) == 0.0
    pendant = build_graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    assert tpr(pendant, frozenset(range(4))) == 0.75

    g = planted_partition(**SYNTH)
    caa_mean = statistics.mean(
        tpr(g, c) for c in run_caa(g)
    )
    lp_mean = statistics.mean(
        tpr(g, c)
        for c in label_propagation(g, LpParams(rng_seed=0))
    )
    assert caa_mean >= lp_mean
    report(9, f"fixtures exact; mean TPR caa {caa_mean:.3f} >= lp {lp_mean:.3f}")


def test_criterion_10_scale_smoke():
    start = time.monotonic()
    g = planted_partition(1905, 100, 0.106, 2e-7, 0)
    assert g.n > 180_000
    assert g.m > 900_000
    cover = run_caa(g, CaaParams())
    r = evaluate(g, cover)
    elapsed = time.monotonic() - start
    peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20)
    assert elapsed < 1800.0
    assert peak_gib < 8.0
    assert r.community_count > 0
    report(
        10,
        f"{g.n} nodes / {g.m} edges -> {r.community_count} communities "
        f"in {elapsed:.0f}s, peak {peak_gib:.2f} GiB",
    )


def test_criterion_11_determinism(tmp_path):
    g = planted_partition(**SYNTH)
    graph_file = tmp_path / "graph.tsv"
    save_edge_list(g, graph_file)

    def run_once(outdir, extra):
        outdir.mkdir(exist_ok=True)
        assert main([str(a) for a in extra + ["--output-dir", outdir]]) == 0

    variants = {
        "caa": ["caa", graph_file, "--seed", "0"],
        "lp": ["lp", graph_file, "--seed", "0"],
        "cpm": ["cpm", graph_file, "--k", "3"],
        "sweep": ["sweep", graph_file, "--sweep", "overlapping",
                  "--grid", "0.0,0.5,1.0", "--min-clique-size", "5"],
    }
    outputs = {
        "caa": "caa_cover.txt",
        "lp": "lp_cover.txt",
        "cpm": "cpm_cover.txt",
        "sweep": "sweep_overlapping.csv",
    }
    for name, args in variants.items():
        blobs = []
        for attempt in ("a", "b"):
            outdir = tmp_path / f"{name}_{attempt}"
            run_once(outdir, list(args))
            blobs.append((outdir / outputs[name]).read_bytes())
        assert blobs[0] == blobs[1], f"{name} rerun differed"

    # metrics over the caa cover, rerun
    cover_file = tmp_path / "caa_a" / "caa_cover.txt"
    blobs = []
    for attempt in ("a", "b"):
        outdir = tmp_path / f"metrics_{attempt}"
        run_once(outdir, ["metrics", graph_file, cover_file])
        blobs.append((outdir / "metrics.json").read_bytes())
    assert blobs[0] == blobs[1]

    # threads must not change detector output
    blobs = []
    for threads in ("1", "8"):
        outdir = tmp_path / f"threads_{threads}"
        run_once(outdir, ["caa", graph_file, "--threads", threads])
        blobs.append((outdir / "caa_cover.txt").read_bytes())
    assert blobs[0] == blobs[1]
    report(11, "reruns and --threads 1 vs 8 produced byte-identical outputs")


def test_criterion_12_hashtag_fixtures():
    table = load_hashtags(DATA_DIR / "user_tags_sample.tsv")
    top = user_top_k(table, "u1", 10)
    assert [t for t, _ in top] == [
        "pjnet", "usarmy", "pray", "unbornlivesmatter", "tcot",
        "catholic", "jesus", "trump2016", "chooselife", "brexit",
    ]
    assert [c for _, c in top] == [77, 74, 51, 45, 31, 26, 25, 25, 22, 19]

    users = ["a", "b", "c"]
    g = build_graph([("a", "b"), ("b", "c"), ("a", "c")])
    jtable = {
        "a": {"a": 3, "b": 2, "c": 1},
        "b": {"a": 3, "b": 2, "d": 1},
        "c": {"a": 3, "e": 2, "f": 1},
    }
    entry = community_theme(g.ids, frozenset(range(3)), jtable, k=3)
    assert abs(entry.mean_pairwise_jaccard - 0.3) <= 1e-12
    report(12, "top-10 ranking and 3-member jaccard fixture reproduced")
