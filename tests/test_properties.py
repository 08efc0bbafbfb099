"""Hypothesis properties of edge-list ingest, file round trips, clique
enumeration and order, the overlap filter, growth, the CAA pipeline, clique
percolation, covers, the coverage, TPR and per-band figures of evaluate, and
the band syntax.

"Growth is monotone in the threshold" is deliberately absent: the admission
bar t * |C| rises as C grows, so a lower threshold can admit a node early
that changes later rounds; monotonicity does not follow from the rule.
"""

import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from cliquecomm import caa
from cliquecomm.baselines import (
    CpmParams,
    LpParams,
    clique_percolation,
    label_propagation,
)
from cliquecomm.caa import CaaParams, grow_community_with_rounds, run_caa
from cliquecomm.cliques import (
    CliqueSet,
    enumerate_maximal_cliques,
    filter_overlapping,
    sort_cliques,
)
from cliquecomm.errors import EdgeListParseError
from cliquecomm.graph import (
    build_graph,
    load_cover,
    load_edge_list,
    mutualize,
    save_cover,
    save_edge_list,
)
from cliquecomm.metrics import band_label, evaluate, parse_bands
from cliquecomm.oracles import (
    canonical_key,
    oracle_caa,
    oracle_cpm,
    oracle_desirable_coverage,
    oracle_filter_overlapping,
    oracle_grow,
    oracle_load_edge_list,
    oracle_maximal_cliques,
    oracle_mutualize,
    oracle_tpr,
)

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

# Edge-list ids: no tab or line break. '#' and whitespace are drawn often,
# so that ids the loader must reject (a leading '#', whitespace) occur.
edge_ids = st.text(
    st.sampled_from("# \x0b")
    | st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
    min_size=1, max_size=6,
)
# Graphs over at most 12 nodes; build_graph drops self-loops and duplicates.
node_ids = st.integers(0, 11).map(lambda i: f"v{i:02d}")
graphs = st.lists(st.tuples(node_ids, node_ids), max_size=40).map(build_graph)


@st.composite
def graphs_over(draw, n):
    """Graphs over 1 to n nodes in up to two blocks, each pair an edge
    with a drawn probability inside and between blocks, so that 4- and
    5-cliques and several communities are common."""
    ids = [f"v{i:02d}" for i in range(draw(st.integers(1, n)))]
    block = {v: draw(st.integers(0, 1)) for v in ids}
    inside, between = draw(st.sampled_from([(10, 1), (9, 3), (8, 0), (5, 5), (3, 1)]))
    edges = [
        (a, b) for a, b in combinations(ids, 2)
        if draw(st.integers(0, 9)) < (inside if block[a] == block[b] else between)
    ]
    return build_graph(edges, extra_nodes=ids)


@st.composite
def hub_graphs(draw):
    """A clique c0, c1, ... of 3 to 8 nodes, hubs each joined to most of it
    and to drawn outside nodes, and pendants joined to one or two of its
    members. Hubs make the frontier large and members' degrees unequal,
    which is what growth's choice between probing and counting reads."""
    clique = [f"c{i}" for i in range(draw(st.integers(3, 8)))]
    outside = [f"o{i}" for i in range(draw(st.integers(0, 6)))]
    edges = list(combinations(clique, 2))
    hubs = [f"h{i}" for i in range(draw(st.integers(1, 3)))]
    most = len(clique) // 2 + 1
    for hub in hubs:
        edges += [(hub, c) for c in draw(st.lists(
            st.sampled_from(clique), min_size=most, max_size=len(clique), unique=True))]
        edges += [(hub, o) for o in outside if draw(st.booleans())]
    edges += [pair for pair in combinations(hubs, 2) if draw(st.booleans())]
    for i in range(draw(st.integers(0, 4))):
        edges += [(f"p{i}", c) for c in draw(st.lists(
            st.sampled_from(clique), min_size=1, max_size=2, unique=True))]
    return build_graph(edges)


def round_trip(save, load, *args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        save(*args, path)
        return load(path)


# An edge file either fails to load or is written back exactly. Without
# self-loops every node has an edge, so the file keeps every node.
@given(st.lists(st.tuples(edge_ids, edge_ids).filter(lambda e: e[0] != e[1]), max_size=30))
def test_edge_list_round_trip(edges):
    text = "".join(f"{a}\t{b}\n" for a, b in edges)
    try:
        g = round_trip(lambda path: path.write_text(text, encoding="utf-8"), load_edge_list)
    except EdgeListParseError:
        assert any(v.split() != [v] or v.startswith("#") for e in edges for v in e)
        return
    back = round_trip(save_edge_list, load_edge_list, g)
    assert back.ids == g.ids
    assert back.adjacency == g.adjacency


# Edge files that mix what the column path must hand to the line loop with
# what it must keep: ids with '#', space, \x0b, \x85 or \u2028 (splitlines
# would cut at the last three), empty ids, CRLF, blank and comment lines, 1
# to 3 fields, a missing final newline, duplicates and self-loops.
file_ids = st.text(st.sampled_from("ab# \x0b\x85\u2028"), max_size=3)
writable_file_ids = st.text(st.sampled_from("ab#"), min_size=1, max_size=3).filter(
    lambda v: v[0] != "#")


@st.composite
def edge_files(draw):
    # Writable ids, and perhaps one id of any kind.
    pool = draw(st.lists(writable_file_ids, min_size=1, max_size=4, unique=True))
    pool += draw(st.lists(file_ids, max_size=1))
    ids = st.sampled_from(pool)
    if draw(st.integers(0, 3)):  # three files in four: two fields on every line
        line = st.tuples(ids, ids).map("\t".join)
    else:
        line = st.lists(ids, min_size=1, max_size=3).map("\t".join) | st.sampled_from(
            ["", " ", "# note", "#a\tb"])
    lines = draw(st.lists(line, max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def load_or_error(load, path, **kwargs):
    try:
        return load(path, **kwargs)
    except EdgeListParseError as exc:
        return exc.line_number, str(exc)


@given(edge_files())
def test_load_edge_list_matches_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.tsv"
        path.write_bytes(text.encode("utf-8"))
        for directed in (False, True):
            got = load_or_error(load_edge_list, path, directed=directed)
            want = load_or_error(oracle_load_edge_list, path, directed=directed)
            if isinstance(want, tuple):
                assert got == want
            elif directed:
                assert got.edges == want.edges
                g, h = mutualize(got), oracle_mutualize(want)
                assert (g.ids, g.adjacency) == (h.ids, h.adjacency)
            else:
                assert (got.ids, got.adjacency) == (want.ids, want.adjacency)


def accepted(v) -> bool:
    try:
        build_graph([], extra_nodes=[v])
    except ValueError:
        return False
    return True


# Every id the program accepts round-trips through a cover file.
@given(st.data())
def test_cover_round_trip(data):
    ids = [v for v in data.draw(st.lists(edge_ids, min_size=1, max_size=12, unique=True))
           if accepted(v)]
    assume(ids)
    g = build_graph([], extra_nodes=ids)
    member = st.integers(0, g.n - 1)
    cover = data.draw(st.lists(st.frozensets(member, min_size=1), max_size=8))
    assert round_trip(save_cover, lambda p: load_cover(g, p), g, cover) == cover


# min_size above 2 exercises the size bound on branches and outer vertices;
# the dense blocks of graphs_over make X-dominated subproblems common.
@settings(deadline=None)
@given(graphs_over(12), st.integers(1, 6))
def test_enumerate_matches_oracle(g, min_size):
    want = sort_cliques([c for c in oracle_maximal_cliques(g) if len(c) >= min_size])
    assert enumerate_maximal_cliques(g, min_size).cliques == want


# Duplicates, equal sizes and shared prefixes make the tie rules matter.
@given(
    st.lists(st.frozensets(st.integers(0, 9), max_size=5), max_size=30),
    st.randoms(use_true_random=False),
)
def test_sort_cliques_is_canonical(sets, rng):
    shuffled = rng.sample(sets, len(sets))
    assert sort_cliques(shuffled) == sorted(shuffled, key=canonical_key)


@given(st.lists(st.frozensets(st.integers(0, 15), min_size=1, max_size=6), max_size=25))
def test_filter_at_zero_is_pairwise_disjoint(sets):
    kept = filter_overlapping(CliqueSet(sort_cliques(set(sets))), 0).cliques
    assert all(not a & b for i, a in enumerate(kept) for b in kept[i + 1:])


# A small universe and mixed sizes make overlaps, and exact ties, common.
@given(
    st.lists(st.frozensets(st.integers(0, 11), min_size=1, max_size=8), max_size=25),
    st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 0.7, 0.9, 1]),
    st.randoms(use_true_random=False),
)
def test_filter_matches_oracle(sets, threshold, rng):
    canonical = sort_cliques(sets)
    shuffled = rng.sample(canonical, len(canonical))
    for order in (canonical, shuffled):
        kept = filter_overlapping(CliqueSet(order), threshold).cliques
        assert kept == oracle_filter_overlapping(order, threshold)


@settings(max_examples=50, deadline=None)
@given(graphs, st.sampled_from(["caa", "lp", "cpm3", "cpm4"]))
def test_cover_members_in_range(g, detector):
    cover = {
        "caa": lambda: run_caa(g, CaaParams(min_clique_size=3)),
        "lp": lambda: label_propagation(g, LpParams(rng_seed=1)),
        "cpm3": lambda: clique_percolation(g, CpmParams(k=3)),
        "cpm4": lambda: clique_percolation(g, CpmParams(k=4)),
    }[detector]()
    assert all(0 <= v < g.n for c in cover for v in c)


@settings(deadline=None)
@given(graphs_over(10), st.sampled_from([3, 4, 5]))
def test_cpm_matches_oracle(g, k):
    assert clique_percolation(g, CpmParams(k=k)) == oracle_cpm(g, k)


# Thresholds whose t * |C| is integral at some sizes, so exact ties occur.
GROWING_THRESHOLDS = st.sampled_from(
    [Fraction(1, 4), Fraction(1, 3), 0.5, Fraction(2, 3), 0.7, 0.75, 0.9, 1])


# Twice the default examples, so graphs_over(14) keeps its own hundred.
@settings(max_examples=200, deadline=None)
@given(
    graphs_over(14) | hub_graphs(),
    GROWING_THRESHOLDS,
    st.sampled_from([None, 1, 2]),
    st.data(),
)
def test_grow_matches_oracle(g, threshold, max_rounds, data):
    # A non-empty clique, maximal or not: scan a drawn prefix of a drawn
    # node order, keeping each node adjacent to all kept so far.
    order = data.draw(st.permutations(range(g.n)))
    seed = set()
    for v in order[:data.draw(st.integers(1, g.n))]:
        if all(g.has_edge(v, w) for w in seed):
            seed.add(v)
    assert grow_community_with_rounds(g, seed, threshold, max_rounds) == oracle_grow(
        g, seed, threshold, max_rounds)


# PROBE_EDGE_COST 0 probes every round; a huge one counts from the first.
@settings(deadline=None)
@given(hub_graphs(), GROWING_THRESHOLDS, st.sampled_from([None, 1, 2]), st.data())
def test_grow_from_hub_clique_matches_oracle_on_both_paths(g, threshold, max_rounds, data):
    clique = [v for v in range(g.n) if g.ids[v].startswith("c")]
    seed = data.draw(st.lists(st.sampled_from(clique), min_size=1, unique=True))
    want = oracle_grow(g, seed, threshold, max_rounds)
    for cost in (0, caa.PROBE_EDGE_COST, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(caa, "PROBE_EDGE_COST", cost)
            assert grow_community_with_rounds(g, seed, threshold, max_rounds) == want


@settings(deadline=None)
@given(
    graphs_over(12),
    st.sampled_from([3, 4]),
    st.sampled_from([0, 0.5, 1]),
    st.sampled_from([0.5, 0.7, 1]),
    st.sampled_from([None, 1]),
)
def test_caa_matches_oracle(g, min_size, overlap, growing, max_rounds):
    params = CaaParams(min_clique_size=min_size, overlapping_threshold=overlap,
                       growing_threshold=growing, max_rounds=max_rounds)
    assert run_caa(g, params) == oracle_caa(g, params)


# Overlapping covers of non-empty communities; a drawn size range makes
# both counted and uncounted communities common.
@settings(deadline=None)
@given(graphs_over(12), st.data())
def test_coverage_and_tpr_match_oracles(g, data):
    assume(g.m)
    member = st.integers(0, g.n - 1)
    cover = data.draw(st.lists(st.frozensets(member, min_size=1), max_size=6))
    lo = data.draw(st.integers(1, 12))
    hi = data.draw(st.integers(lo, 12))
    report = evaluate(g, cover, coverage_lo=lo, coverage_hi=hi)
    assert report.coverage == oracle_desirable_coverage(g, cover, lo, hi)
    assert [tpr for _, tpr, _ in report.per_community] == [oracle_tpr(g, c) for c in cover]


@st.composite
def band_lists(draw, top):
    """Contiguous bands from 1 to an open end, cut at drawn sizes below top."""
    cuts = sorted(draw(st.sets(st.integers(2, top), max_size=4)))
    return tuple(zip([1, *cuts], [c - 1 for c in cuts] + [None]))


def running_sum(values, zero):
    for v in values:
        zero += v
    return zero


# Every per-band figure is a cover-order sum over the communities whose size
# falls in the band, so each equals the same sum taken from per_community.
@settings(deadline=None)
@given(graphs_over(12), band_lists(top=7), st.data())
def test_per_band_figures_recompute_from_per_community(g, bands, data):
    assume(g.m)
    member = st.integers(0, g.n - 1)
    cover = data.draw(st.lists(st.frozensets(member, min_size=1), max_size=6))
    report = evaluate(g, cover, bands)
    rows = {band_label(b): [] for b in bands}
    for size, tpr, eq in report.per_community:
        lo, hi = next((lo, hi) for lo, hi in bands if lo <= size and (hi is None or size <= hi))
        rows[band_label((lo, hi))].append((size, round(tpr * size), tpr, eq))
    assert report.histogram == {label: len(r) for label, r in rows.items()}
    assert report.eq_by_band == {
        label: running_sum((eq for *_, eq in r), 0.0) for label, r in rows.items()}
    assert report.tpr_mean_by_band == {
        label: running_sum((tpr for _, _, tpr, _ in r), 0.0) / len(r) if r else None
        for label, r in rows.items()}
    assert report.tpr_micro_by_band == {
        label: sum(p for _, p, _, _ in r) / sum(s for s, *_ in r) if r else None
        for label, r in rows.items()}
    for by_band in (report.histogram, report.eq_by_band,
                    report.tpr_mean_by_band, report.tpr_micro_by_band):
        assert list(by_band) == list(rows)


@given(band_lists(top=10**6))
def test_parse_bands_inverts_band_label(bands):
    assert parse_bands(",".join(map(band_label, bands))) == bands
