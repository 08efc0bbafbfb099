"""Differential tests against networkx at n of a few hundred to 2,000.

networkx shares no code with the package, so agreement here widens the
n <= 12 brute-force oracles: maximal cliques (Bron-Kerbosch with pivoting),
clique percolation (Palla et al. 2005) and modularity (Newman 2006).
"""

import functools
import math
import random

import pytest

from cliquecomm.baselines import CpmParams, clique_percolation, label_propagation
from cliquecomm.cliques import enumerate_maximal_cliques
from cliquecomm.graph import build_graph, planted_partition, sort_cover
from cliquecomm.metrics import extended_modularity

from conftest import clique_sets, gnp

nx = pytest.importorskip("networkx")

def k26_minus_matching():
    """K26 without 8 disjoint edges: 2**8 maximal cliques of 18 nodes, and
    subproblems whose P is dominated by a node of X."""
    ids = [f"k{i:02d}" for i in range(26)]
    return build_graph(
        (ids[i], ids[j]) for i in range(26) for j in range(i + 1, 26)
        if not (i < 8 and j == i + 13)
    )


def hubs_near_cliques(seed=5):
    """Sparse background, 8 planted near-cliques of 18 to 28 nodes at pair
    density 0.95, and 4 hubs each joined to half the nodes: P scans that
    stop at |P| - 1, and cliques above and below 15 nodes."""
    rng = random.Random(seed)
    ids = [f"h{i:03d}" for i in range(300)]
    edges = {(i, j) for i in range(300) for j in range(i + 1, 300) if rng.random() < 0.02}
    nodes = list(range(4, 300))
    for size in (18, 20, 21, 22, 23, 24, 26, 28):
        core = sorted(rng.sample(nodes, size))
        edges |= {(a, b) for ai, a in enumerate(core) for b in core[ai + 1:]
                  if rng.random() < 0.95}
    for hub in range(4):
        edges |= {(hub, v) for v in range(hub + 1, 300) if rng.random() < 0.5}
    return build_graph(((ids[a], ids[b]) for a, b in edges), extra_nodes=ids)


GRAPHS = {
    "gnp-300": lambda: gnp(300, 0.05, 1),
    "gnp-1000": lambda: gnp(1000, 0.01, 2),
    "gnp-2000": lambda: gnp(2000, 0.004, 3),
    "planted-20x15": lambda: planted_partition(20, 15, 0.6, 0.01, 4),
}
DENSE_CORES = {
    "k26-minus-matching": k26_minus_matching,
    "hubs-near-cliques": hubs_near_cliques,
}


@functools.cache
def reference_pair(name):
    g = {**GRAPHS, **DENSE_CORES}[name]()
    reference = nx.Graph()
    reference.add_nodes_from(range(g.n))
    reference.add_edges_from(g.edges())
    return g, reference


@pytest.fixture(params=sorted(GRAPHS), scope="module")
def pair(request):
    return reference_pair(request.param)


@pytest.mark.parametrize("name", sorted(GRAPHS) + sorted(DENSE_CORES))
def test_maximal_cliques(name):
    g, reference = reference_pair(name)
    found = [frozenset(c) for c in nx.find_cliques(reference)]
    for min_size in (1, 3, 15):
        expected = {c for c in found if len(c) >= min_size}
        got = clique_sets(enumerate_maximal_cliques(g, min_size).cliques)
        assert len(got) == len(expected)
        assert set(got) == expected


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("name", sorted(GRAPHS) + sorted(DENSE_CORES))
def test_clique_percolation(name, k):
    g, reference = reference_pair(name)
    expected = sort_cover(nx.community.k_clique_communities(reference, k))
    assert clique_percolation(g, CpmParams(k=k)) == expected


def test_modularity_of_label_propagation(pair):
    g, reference = pair
    partition = label_propagation(g)
    eq_total, _, _ = extended_modularity(g, partition)
    expected = nx.community.modularity(reference, partition)
    assert math.isclose(eq_total, expected, rel_tol=1e-9)
