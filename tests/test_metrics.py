import random
from itertools import combinations

import pytest

from cliquecomm.graph import build_graph, load_cover, save_cover, sort_cover
from cliquecomm.metrics import (
    DEFAULT_BANDS,
    band_label,
    desirable_coverage,
    evaluate,
    extended_modularity,
    parse_bands,
    size_histogram,
    triangle_participants,
    triangle_participation_ratio,
    validate_bands,
)
from cliquecomm.oracles import oracle_modularity

from conftest import complete_graph, gnp, two_k5


def random_partition(n, max_parts, seed):
    rng = random.Random(seed)
    parts = [set() for _ in range(rng.randint(1, max_parts))]
    for v in range(n):
        rng.choice(parts).add(v)
    return [frozenset(p) for p in parts if p]


class TestBands:
    def test_defaults_valid(self):
        assert validate_bands(DEFAULT_BANDS) == DEFAULT_BANDS

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            validate_bands([(1, 3), (5, None)])

    def test_must_be_open_ended(self):
        with pytest.raises(ValueError):
            validate_bands([(1, 100)])

    def test_labels(self):
        assert band_label((4, 9)) == "4-9"
        assert band_label((151, None)) == "151+"

    @pytest.mark.parametrize("text, part", [
        ("1-3-5", "1-3-5"), ("a-b", "a-b"), ("1-3,,4+", ""),
    ])
    def test_malformed_part_named(self, text, part):
        with pytest.raises(ValueError, match=f"malformed band {part!r}"):
            parse_bands(text)

    def test_band_ending_below_start_named(self):
        # 4-2 is followed by 3+, so the bands still read as contiguous.
        with pytest.raises(ValueError, match="band 4-2 ends below its start"):
            validate_bands([(1, 3), (4, 2), (3, None)])
        with pytest.raises(ValueError, match="4-2"):
            parse_bands("1-3,4-2,3+")

    def test_parsed_gap_rejected_by_validation(self):
        with pytest.raises(ValueError, match="must start at 1"):
            parse_bands("2-5,6+")


class TestSizeHistogram:
    def test_one_per_band(self):
        cover = [frozenset(range(s)) for s in (2, 5, 12, 200)]
        counts, pct = size_histogram(cover)
        assert list(counts.values()) == [1, 1, 1, 1]
        assert all(p == 25.0 for p in pct.values())

    def test_empty_cover(self):
        counts, pct = size_histogram([])
        assert all(v == 0 for v in counts.values())
        assert all(v == 0.0 for v in pct.values())

    def test_matches_linear_rebinning(self):
        rng = random.Random(7)
        cover = [frozenset(range(rng.randint(1, 300))) for _ in range(100)]
        counts, _ = size_histogram(cover)
        expected = {band_label(b): 0 for b in DEFAULT_BANDS}
        for c in cover:
            for lo, hi in DEFAULT_BANDS:
                if len(c) >= lo and (hi is None or len(c) <= hi):
                    expected[band_label((lo, hi))] += 1
        assert counts == expected


class TestCoverage:
    def test_half_covered(self):
        g = gnp(100, 0.0, 0)
        cover = [frozenset(range(50))]
        assert desirable_coverage(g, cover) == 0.5

    def test_singletons_uncovered(self):
        g = gnp(100, 0.0, 0)
        cover = [frozenset({v}) for v in range(100)]
        assert desirable_coverage(g, cover) == 0.0

    def test_overlap_counts_union(self):
        g = gnp(100, 0.0, 0)
        cover = [frozenset(range(10)), frozenset(range(5, 25))]
        assert desirable_coverage(g, cover) == 0.25

    def test_monotone_in_bounds(self):
        g = gnp(60, 0.1, 3)
        cover = [frozenset(range(i, i + s)) for i, s in ((0, 2), (5, 8), (20, 30))]
        base = desirable_coverage(g, cover, 4, 150)
        assert desirable_coverage(g, cover, 2, 150) >= base
        assert desirable_coverage(g, cover, 4, 200) >= base

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            desirable_coverage(gnp(5, 0.5, 0), [], 10, 4)

    def test_negative_member_rejected(self):
        # -1 would otherwise count as a covered node
        with pytest.raises(IndexError):
            desirable_coverage(complete_graph(4), [frozenset({0, 1, 2, -1})])


class TestExtendedModularity:
    def test_reduces_to_classical_on_disjoint_covers(self):
        for seed in range(20):
            g = gnp(18, 0.3, 900 + seed)
            if g.m == 0:
                continue
            partition = random_partition(g.n, 5, seed)
            eq, _, _ = extended_modularity(g, partition)
            assert eq == pytest.approx(oracle_modularity(g, partition), abs=1e-12)

    def test_whole_graph_is_zero(self):
        g = gnp(15, 0.4, 1)
        eq, _, _ = extended_modularity(g, [frozenset(range(g.n))])
        assert eq == pytest.approx(0.0, abs=1e-12)

    def test_two_k5_is_half(self):
        g = two_k5()
        cover = [frozenset(range(5)), frozenset(range(5, 10))]
        eq, by_band, per_c = extended_modularity(g, cover)
        assert eq == pytest.approx(0.5, abs=1e-12)
        assert per_c == [pytest.approx(0.25, abs=1e-12)] * 2
        assert by_band["4-9"] == pytest.approx(0.5, abs=1e-12)

    def test_band_sums_equal_total(self):
        g = gnp(25, 0.3, 12)
        cover = random_partition(g.n, 6, 3)
        eq, by_band, per_c = extended_modularity(g, cover)
        assert sum(by_band.values()) == pytest.approx(eq, abs=1e-12)
        assert sum(per_c) == pytest.approx(eq, abs=1e-12)

    def test_order_invariant(self):
        g = gnp(20, 0.4, 6)
        cover = random_partition(g.n, 4, 9)
        eq1, _, _ = extended_modularity(g, cover)
        eq2, _, _ = extended_modularity(g, list(reversed(cover)))
        assert eq1 == pytest.approx(eq2, abs=1e-12)

    def test_duplicate_community_changes_total(self):
        g = two_k5()
        cover = [frozenset(range(5)), frozenset(range(5, 10))]
        eq_base, _, _ = extended_modularity(g, cover)
        eq_dup, _, _ = extended_modularity(g, cover + [cover[0]])
        assert eq_dup != pytest.approx(eq_base, abs=1e-9)

    def test_empty_graph_rejected(self):
        g = gnp(4, 0.0, 0)
        with pytest.raises(ValueError):
            extended_modularity(g, [frozenset({0, 1})])

    def test_empty_cover_on_edgeless_graph(self):
        g = gnp(4, 0.0, 0)
        total, by_band, per_community = extended_modularity(g, [])
        assert (total, per_community) == (0.0, [])
        assert by_band == {band_label(b): 0.0 for b in DEFAULT_BANDS}
        with pytest.raises(ValueError, match="edgeless"):
            extended_modularity(g, [frozenset({0, 1})])

    def test_negative_member_rejected(self):
        # -1 would otherwise share node 3's membership count
        with pytest.raises(IndexError):
            extended_modularity(complete_graph(4), [frozenset({0, 1, -1})])


class TestTpr:
    def test_triangle_is_one(self):
        g = build_graph([("a", "b"), ("b", "c"), ("a", "c")])
        assert triangle_participation_ratio(g, frozenset(range(3))) == 1.0

    def test_path_is_zero(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
        assert triangle_participation_ratio(g, frozenset(range(4))) == 0.0

    def test_pendant_three_quarters(self):
        g = build_graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        assert triangle_participation_ratio(g, frozenset(range(4))) == 0.75

    def test_cliques_score_one(self):
        for n in (3, 4, 6):
            g = complete_graph(n)
            assert triangle_participation_ratio(g, frozenset(range(n))) == 1.0

    def test_only_internal_triangles_count(self):
        # the triangle uses node d; restricted to {a, b, d} it disappears
        g = build_graph([("a", "b"), ("b", "d"), ("a", "d"), ("a", "c")])
        assert triangle_participation_ratio(g, frozenset(g.index_of(x) for x in "abc")) == 0.0

    def test_matches_brute_force(self):
        g = gnp(14, 0.45, 12)
        rng = random.Random(4)
        for _ in range(30):
            c = frozenset(rng.sample(range(g.n), rng.randint(3, 12)))
            expected = {
                v
                for t in combinations(sorted(c), 3)
                if all(g.has_edge(a, b) for a, b in combinations(t, 2))
                for v in t
            }
            assert triangle_participants(g, c) == expected

    def test_out_of_range_member(self):
        g = complete_graph(3)
        with pytest.raises(IndexError):
            triangle_participants(g, frozenset({0, 1, 99}))
        # a negative index would otherwise wrap to the last node
        with pytest.raises(IndexError):
            triangle_participants(g, frozenset({0, 1, -1}))


class TestEvaluate:
    def test_two_k5_report(self):
        g = two_k5()
        cover = sort_cover([frozenset(range(5)), frozenset(range(5, 10))])
        r = evaluate(g, cover)
        assert r.community_count == 2
        assert r.largest_community_size == 5
        assert r.coverage == 1.0
        assert r.eq_total == pytest.approx(0.5, abs=1e-12)
        assert r.tpr_mean_by_band["4-9"] == 1.0
        assert r.tpr_micro_by_band["4-9"] == 1.0
        assert r.per_community == [
            (5, 1.0, pytest.approx(0.25, abs=1e-12)),
            (5, 1.0, pytest.approx(0.25, abs=1e-12)),
        ]

    def test_empty_cover(self):
        g = two_k5()
        r = evaluate(g, [])
        assert r.community_count == 0
        assert r.coverage == 0.0
        assert r.eq_total == 0.0
        assert r.largest_community_size == 0

    def test_cover_file_round_trip_same_report(self, tmp_path):
        g = gnp(20, 0.4, 44)
        cover = sort_cover(random_partition(g.n, 4, 1))
        f = tmp_path / "cover.txt"
        save_cover(g, cover, f)
        assert evaluate(g, load_cover(g, f)) == evaluate(g, cover)
