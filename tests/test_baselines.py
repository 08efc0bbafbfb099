import pytest

from cliquecomm.baselines import (
    CpmParams,
    LpParams,
    clique_percolation,
    label_propagation,
)
from cliquecomm.graph import build_graph, planted_partition

from conftest import complete_graph, gnp, planted_block
from oracles import oracle_cpm


def two_triangles_shared_edge():
    return build_graph(
        [("a", "b"), ("b", "c"), ("a", "c"), ("b", "d"), ("c", "d")]
    )


def two_triangles_shared_vertex():
    return build_graph(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")]
    )


class TestLabelPropagation:
    def test_two_disjoint_triangles(self):
        g = build_graph(
            [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")]
        )
        cover = label_propagation(g, LpParams(rng_seed=1))
        assert sorted(len(c) for c in cover) == [3, 3]

    def test_k6_single_community(self):
        cover = label_propagation(complete_graph(6), LpParams(rng_seed=0))
        assert len(cover) == 1 and len(cover[0]) == 6

    def test_disconnected_planted_blocks(self):
        g = planted_partition(3, 20, 0.9, 0.0, 5)
        cover = label_propagation(g, LpParams(rng_seed=5))
        # p_out = 0: labels cannot cross components, so no community spans blocks
        for c in cover:
            assert len({planted_block(g.ids[v]) for v in c}) == 1

    def test_partition_of_all_nodes(self):
        g = gnp(40, 0.15, 17)
        cover = label_propagation(g, LpParams(rng_seed=3))
        seen = [0] * g.n
        for c in cover:
            for v in c:
                seen[v] += 1
        assert all(count == 1 for count in seen)

    def test_deterministic_given_seed(self):
        g = gnp(30, 0.2, 2)
        a = label_propagation(g, LpParams(rng_seed=9))
        b = label_propagation(g, LpParams(rng_seed=9))
        assert a == b

    def test_params_validation(self):
        with pytest.raises(ValueError, match=r"^max_iterations must be >= 1, got 0$"):
            LpParams(max_iterations=0)


class TestCliquePercolation:
    def test_shared_edge_merges(self):
        cover = clique_percolation(two_triangles_shared_edge(), CpmParams(k=3))
        assert len(cover) == 1 and len(cover[0]) == 4

    def test_shared_vertex_stays_split(self):
        cover = clique_percolation(two_triangles_shared_vertex(), CpmParams(k=3))
        assert sorted(len(c) for c in cover) == [3, 3]

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_triangle_oracle(self, seed):
        g = gnp(9, 0.45, 500 + seed)
        got = clique_percolation(g, CpmParams(k=3))
        assert set(got) == set(oracle_cpm(g, 3))
        assert got == oracle_cpm(g, 3)  # same canonical order too

    def test_every_member_in_a_kclique(self):
        g = gnp(14, 0.5, 33)
        for k in (3, 4):
            for c in clique_percolation(g, CpmParams(k=k)):
                from itertools import combinations

                for v in c:
                    assert any(
                        all(b in g.adjacency[a] for a, b in combinations(kc, 2))
                        for kc in combinations(sorted(c), k)
                        if v in kc
                    )

    def test_no_singletons(self):
        g = gnp(12, 0.3, 8)
        for c in clique_percolation(g, CpmParams(k=3)):
            assert len(c) >= 3

    def test_params_validation(self):
        with pytest.raises(ValueError, match=r"^k must be >= 3, got 2$"):
            CpmParams(k=2)
