from collections import Counter
from fractions import Fraction

import pytest

from cliquecomm import caa
from cliquecomm.caa import (
    CaaParams,
    CaaRunSummary,
    grow_community_with_rounds,
    run_caa,
)
from cliquecomm.cliques import enumerate_maximal_cliques
from cliquecomm.graph import build_graph, planted_block, planted_partition, save_cover
from cliquecomm.metrics import triangle_participants
from cliquecomm.oracles import oracle_grow

from conftest import gnp, two_k5


def k10_plus_candidates():
    """K10 plus node x with 7 edges in and node y with 6 edges in."""
    ids = [f"m{i}" for i in range(10)]
    edges = [(ids[i], ids[j]) for i in range(10) for j in range(i + 1, 10)]
    edges += [("x", ids[i]) for i in range(7)]
    edges += [("y", ids[i]) for i in range(6)]
    return build_graph(edges)


class TestGrowCommunity:
    def test_admits_at_exact_ratio(self):
        g = k10_plus_candidates()
        seed = frozenset(g.index_of(f"m{i}") for i in range(10))
        grown = grow_community_with_rounds(g, seed, 0.7)[0]
        assert g.index_of("x") in grown
        assert g.index_of("y") not in grown

    def test_rejects_below_ratio(self):
        g = k10_plus_candidates()
        seed = frozenset(g.index_of(f"m{i}") for i in range(10))
        grown, rounds = grow_community_with_rounds(g, seed, 0.7)
        assert rounds == 1
        assert len(grown) == 11

    def test_threshold_one_fixpoint_on_maximal_seed(self):
        g = gnp(20, 0.4, 8)
        for seed in enumerate_maximal_cliques(g, 1).cliques:
            assert grow_community_with_rounds(g, seed, 1.0)[0] == seed

    def test_hand_simulated_round(self):
        # two K5 blocks, u has 4 edges into block A: 4 >= 0.7*5 admits u
        g = two_k5()
        edges = [(g.ids[i], g.ids[j]) for i, j in g.edges()]
        edges += [("u", f"a{i}") for i in range(4)]
        g = build_graph(edges)
        seed = frozenset(g.index_of(f"a{i}") for i in range(5))
        grown, rounds = grow_community_with_rounds(g, seed, 0.7)
        assert grown == seed | {g.index_of("u")}
        assert rounds == 1

    def test_seed_subset_of_result(self):
        g = gnp(30, 0.3, 4)
        for seed in enumerate_maximal_cliques(g, 3).cliques[:10]:
            for t in (0.3, 0.5, 0.7, 1.0):
                assert seed <= grow_community_with_rounds(g, seed, t)[0]

    def test_non_clique_seed_rejected(self):
        g = gnp(10, 0.2, 0)
        with pytest.raises(ValueError):
            grow_community_with_rounds(g, frozenset(range(10)), 0.7)

    def test_max_rounds_cap(self):
        g = k10_plus_candidates()
        seed = frozenset(g.index_of(f"m{i}") for i in range(10))
        grown, rounds = grow_community_with_rounds(g, seed, 0.7, max_rounds=0)
        assert rounds == 0 and grown == seed


@pytest.fixture(params=["probe", "count"])
def growth_path(request, monkeypatch):
    """Put every growth round on one path: PROBE_EDGE_COST 0 never stops
    probing, a huge one counts from the first round. Returns the path and
    a list that gets one entry per frontier count built."""
    monkeypatch.setattr(caa, "PROBE_EDGE_COST", 0 if request.param == "probe" else 10**9)
    built = []
    monkeypatch.setattr(caa, "Counter", lambda edges: built.append(1) or Counter(edges))
    return request.param, built


def hubs_on_cliques():
    """Planted blocks, plus two hubs joined to most of every block and a
    pendant on each block: a large frontier and unequal member degrees."""
    g = planted_partition(3, 10, 0.9, 0.05, 7)
    edges = [(g.ids[i], g.ids[j]) for i, j in g.edges()]
    for v in g.ids:
        block, offset = v.split("-")
        edges += [(f"hub{h}", v) for h in range(2) if (int(offset) + h) % 5]
        if offset == "0":
            edges.append((f"pendant{block}", v))
    return build_graph(edges)


class TestGrowthPaths:
    # Seeds are maximal cliques and those cliques less one member, whose
    # missing member is adjacent to all of them, so every threshold grows.
    @pytest.mark.parametrize("threshold", [
        0.5, 0.7, 0.9, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5),
    ])
    @pytest.mark.parametrize("max_rounds", [None, 1, 2])
    def test_matches_oracle(self, growth_path, threshold, max_rounds):
        path, built = growth_path
        rounds_total = 0
        for g in (k10_plus_candidates(), gnp(30, 0.3, 4), hubs_on_cliques()):
            for clique in enumerate_maximal_cliques(g, 3).cliques:
                for seed in (clique, *(clique - {v} for v in sorted(clique)[:2])):
                    got = grow_community_with_rounds(g, seed, threshold, max_rounds)
                    assert got == oracle_grow(g, seed, threshold, max_rounds)
                    rounds_total += got[1]
        assert rounds_total > 0
        assert bool(built) == (path == "count")


class TestRunCaa:
    def test_two_disjoint_k5(self):
        g = two_k5()
        cover = run_caa(g)
        assert len(cover) == 2
        assert all(len(c) == 5 for c in cover)

    def test_single_k5(self):
        edges = [(f"v{i}", f"v{j}") for i in range(5) for j in range(i + 1, 5)]
        g = build_graph(edges)
        cover = run_caa(g)
        assert len(cover) == 1 and len(cover[0]) == 5

    def test_planted_blocks_respected(self):
        g = planted_partition(4, 25, 0.9, 0.01, 11)
        cover = run_caa(g)
        crossers = sum(
            1
            for c in cover
            if len({planted_block(g.ids[v]) for v in c}) > 1
        )
        # high p_in / low p_out: cross-block growth should essentially never pass
        assert crossers <= max(1, len(cover) // 100)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CaaParams(min_clique_size=2)
        with pytest.raises(ValueError):
            CaaParams(growing_threshold=0.0)
        with pytest.raises(ValueError):
            CaaParams(overlapping_threshold=-0.1)

    def test_deterministic_serialization(self, tmp_path):
        g = planted_partition(3, 20, 0.5, 0.05, 2)
        files = []
        for run in range(2):
            cover = run_caa(g, CaaParams())
            f = tmp_path / f"cover{run}.txt"
            save_cover(g, cover, f)
            files.append(f.read_bytes())
        assert files[0] == files[1]

    def test_summary_populated(self):
        g = two_k5()
        summary = CaaRunSummary()
        cover = run_caa(g, summary=summary)
        assert summary.seed_count == 2
        assert len(cover) == 2
        assert sum(summary.rounds_histogram.values()) == 2

    def test_seed_members_keep_triangles(self):
        g = planted_partition(2, 20, 0.6, 0.05, 9)
        params = CaaParams()
        cliques = enumerate_maximal_cliques(g, params.min_clique_size)
        cover = run_caa(g, params)
        # every community came from a clique seed of size >= 3, so every
        # member of some originating seed sits in a triangle
        for c in cover:
            participants = triangle_participants(g, c)
            for seed in cliques.cliques:
                if seed <= c:
                    assert seed <= participants
                    break
