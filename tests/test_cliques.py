import tracemalloc

import pytest

from cliquecomm.cliques import (
    CliqueSet,
    enumerate_maximal_cliques,
    filter_overlapping,
    sort_cliques,
    threshold_fraction,
)
from cliquecomm.errors import ResourceLimitError
from cliquecomm.graph import build_graph, sort_cover

from conftest import clique_sets, complete_graph, gnp
from oracles import (
    is_maximal_clique,
    oracle_filter_overlapping,
    oracle_maximal_cliques,
)


class TestEnumerate:
    def test_k5_single_clique(self):
        g = complete_graph(5)
        cs = enumerate_maximal_cliques(g, 3)
        assert cs.cliques == [tuple(range(5))]

    def test_triangle_plus_pendant(self):
        g = build_graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        cs = enumerate_maximal_cliques(g, 2)
        got = [frozenset(map(g.ids.__getitem__, c)) for c in clique_sets(cs.cliques)]
        assert got == [frozenset("abc"), frozenset("cd")]

    def test_empty_graph(self):
        g = build_graph([])
        assert enumerate_maximal_cliques(g, 1).cliques == []

    def test_min_size_filters_output_only(self):
        g = build_graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        cs = enumerate_maximal_cliques(g, 3)
        assert cs.cliques == [tuple(sorted(map(g.ids.index, "abc")))]

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_oracle(self, p, seed):
        g = gnp(10, p, seed * 31 + int(p * 10))
        got = set(clique_sets(enumerate_maximal_cliques(g, 1).cliques))
        assert got == set(oracle_maximal_cliques(g))

    def test_one_candidate_frames_dominated_by_x(self):
        # Five overlapping K4s. At min_size 1 to 3 enumeration reaches
        # subproblems whose P holds one vertex w and whose X holds a
        # neighbour of w (at 3, inside a frame): each must emit nothing.
        g = build_graph([
            ("v0", "v1"), ("v0", "v2"), ("v0", "v4"), ("v0", "v5"), ("v0", "v6"),
            ("v0", "v7"), ("v0", "v8"), ("v1", "v2"), ("v1", "v3"), ("v1", "v6"),
            ("v1", "v8"), ("v2", "v4"), ("v2", "v6"), ("v2", "v7"), ("v3", "v6"),
            ("v3", "v8"), ("v4", "v7"), ("v5", "v7"), ("v5", "v8"), ("v6", "v8"),
            ("v7", "v8"),
        ])
        nx = pytest.importorskip("networkx")
        nx_graph = nx.Graph(list(g.edges()))
        for min_size in (1, 2, 3, 4):
            want = sort_cover(
                [c for c in oracle_maximal_cliques(g) if len(c) >= min_size])
            assert len(want) == 5
            assert clique_sets(enumerate_maximal_cliques(g, min_size).cliques) == want
            assert sort_cover(
                [c for c in nx.find_cliques(nx_graph) if len(c) >= min_size]) == want

    def test_every_output_maximal(self):
        g = gnp(25, 0.4, 77)
        for c in clique_sets(enumerate_maximal_cliques(g, 1).cliques):
            assert is_maximal_clique(g, c)

    def test_sorted_descending(self):
        g = gnp(20, 0.5, 5)
        cs = enumerate_maximal_cliques(g, 1)
        sizes = [len(c) for c in clique_sets(cs.cliques)]
        assert sizes == sorted(sizes, reverse=True)
        assert cs.cliques == sort_cliques(cs.cliques)

    def test_peak_memory_per_member(self):
        # The Moon-Moser graph K_{3x8}: 3^8 maximal cliques of 8 members,
        # one from each part. A sorted tuple costs about 16 bytes a member
        # at the peak, a frozenset about 110.
        parts = [[f"p{i}{j}" for j in range(3)] for i in range(8)]
        g = build_graph(
            (a, b) for i, pa in enumerate(parts) for pb in parts[i + 1:] for a in pa for b in pb
        )
        tracemalloc.start()
        try:
            cliques = enumerate_maximal_cliques(g, 1).cliques
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cliques) == 3**8 and peak <= 32 * 8 * len(cliques)
        assert {len(c) for c in clique_sets(cliques)} == {8}

    def test_resource_cap(self):
        g = gnp(20, 0.7, 1)
        with pytest.raises(ResourceLimitError):
            enumerate_maximal_cliques(g, 1, max_cliques=2)

    def test_min_size_validation(self):
        with pytest.raises(ValueError, match=r"^min_size must be >= 1, got 0$"):
            enumerate_maximal_cliques(complete_graph(3), 0)


class TestFilterOverlapping:
    def make_set(self, *cliques):
        cliques = [frozenset(c) for c in cliques]
        assert [len(c) for c in cliques] == sorted(
            (len(c) for c in cliques), reverse=True
        )
        return CliqueSet(cliques=cliques)

    def test_worked_example_keep(self):
        # incumbent size 10, candidate size 5, overlap 2: 2 < 5*0.7 keeps
        big = range(10)
        small = {0, 1, 10, 11, 12}
        cs = self.make_set(big, small)
        kept = filter_overlapping(cs, 0.7).cliques
        assert len(kept) == 2

    def test_worked_example_discard(self):
        # overlap 4: 4 > 3.5 discards the smaller clique
        big = range(10)
        small = {0, 1, 2, 3, 12}
        cs = self.make_set(big, small)
        kept = filter_overlapping(cs, 0.7).cliques
        assert kept == [frozenset(big)]

    def test_exact_tie_keeps(self):
        # overlap == threshold * min size: strict > does not fire
        big = range(10)
        small = {0, 1, 2, 10, 11, 12, 13, 14, 15, 16}  # size 10, overlap 3
        cs = self.make_set(big, small)
        assert len(filter_overlapping(cs, 0.3).cliques) == 2

    def test_threshold_zero_disjoint(self):
        cs = self.make_set({0, 1, 2}, {2, 3, 4}, {5, 6, 7})
        kept = filter_overlapping(cs, 0.0).cliques
        assert kept == [frozenset({0, 1, 2}), frozenset({5, 6, 7})]
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert not kept[i] & kept[j]

    def test_threshold_one_keeps_distinct_cliques(self):
        g = gnp(15, 0.6, 3)
        cs = enumerate_maximal_cliques(g, 1)
        assert filter_overlapping(cs, 1.0).cliques == cs.cliques

    def test_output_is_subsequence(self):
        g = gnp(18, 0.5, 11)
        cs = enumerate_maximal_cliques(g, 1)
        kept = filter_overlapping(cs, 0.4).cliques
        it = iter(cs.cliques)
        assert all(any(c == k for c in it) for k in kept)

    def test_monotone_in_threshold(self):
        for seed in range(5):
            g = gnp(16, 0.5, 100 + seed)
            cs = enumerate_maximal_cliques(g, 1)
            prev = -1
            for t in [i / 10 for i in range(11)]:
                count = len(filter_overlapping(cs, t).cliques)
                assert count >= prev
                prev = count

    def test_unsorted_input_probes_by_smallest_kept(self):
        # A pair kept before a larger clique: the probe of c is sized by the
        # pair (5 of 6 members), not by the last kept size (3 of 6), and
        # must reach 30 or 31 to see the pair.
        a, b, c = frozenset({30, 31}), frozenset(range(10, 16)), frozenset({2, 3, 4, 5, 30, 31})
        kept = filter_overlapping(CliqueSet(cliques=[a, b, c]), 0.5).cliques
        assert kept == [a, b] == oracle_filter_overlapping([a, b, c], 0.5)

    def test_matching_cores_match_oracle(self):
        # K_{2m+r} minus an m-edge matching: 2^m maximal cliques of size m + r,
        # nothing discarded at 1.0, where the prefix probe is empty. Sorted
        # tuples and frozensets keep the same cliques, each as it was given.
        m, r = 6, 4
        matched = {(2 * i, 2 * i + 1) for i in range(m)}
        g = build_graph(
            (f"v{a:02d}", f"v{b:02d}")
            for a in range(2 * m + r) for b in range(a + 1, 2 * m + r)
            if (a, b) not in matched
        )
        sets = clique_sets(enumerate_maximal_cliques(g, 1).cliques)
        assert len(sets) == 2**m
        for form in (tuple, frozenset):
            cs = CliqueSet(cliques=[form(sorted(c)) for c in sets])
            for t in [i / 10 for i in range(11)]:
                kept = filter_overlapping(cs, t).cliques
                assert all(type(c) is form for c in kept)
                assert list(map(frozenset, kept)) == oracle_filter_overlapping(sets, t), t
            assert kept == cs.cliques

    def test_threshold_out_of_range(self):
        cs = self.make_set({0, 1})
        with pytest.raises(ValueError,
                           match=r"^overlapping_threshold must be in \[0, 1\], got 1\.5$"):
            filter_overlapping(cs, 1.5)


class TestThresholdFraction:
    def test_decimal_interpretation(self):
        from fractions import Fraction

        assert threshold_fraction(0.7) == Fraction(7, 10)
        assert threshold_fraction("0.3") == Fraction(3, 10)
        assert threshold_fraction(Fraction(1, 3)) == Fraction(1, 3)

    def test_numpy_float_read_as_decimal(self):
        from fractions import Fraction

        import numpy as np

        assert threshold_fraction(np.float64(0.7)) == Fraction(7, 10)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), "abc", 1.5, -0.1])
    def test_rejected_value_shown_as_given(self, t):
        with pytest.raises(ValueError, match=rf"^t must be in \[0, 1\], got {t}$"):
            threshold_fraction(t, "t")

    def test_above_zero_excludes_zero_only(self):
        assert threshold_fraction(1, above_zero=True) == 1
        with pytest.raises(ValueError, match=r"^threshold must be in \(0, 1\], got 0\.0$"):
            threshold_fraction(0.0, above_zero=True)
