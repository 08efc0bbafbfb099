"""Differential tests against networkx at n of a few hundred to 2,000.

networkx shares no code with the package, so agreement here widens the
n <= 12 brute-force oracles: maximal cliques (Bron-Kerbosch with pivoting),
clique percolation (Palla et al. 2005) and modularity (Newman 2006).
"""

import math

import pytest

from cliquecomm.baselines import CpmParams, clique_percolation, label_propagation
from cliquecomm.cliques import enumerate_maximal_cliques
from cliquecomm.graph import planted_partition, sort_cover
from cliquecomm.metrics import extended_modularity

from conftest import gnp

nx = pytest.importorskip("networkx")

GRAPHS = {
    "gnp-300": lambda: gnp(300, 0.05, 1),
    "gnp-1000": lambda: gnp(1000, 0.01, 2),
    "gnp-2000": lambda: gnp(2000, 0.004, 3),
    "planted-20x15": lambda: planted_partition(20, 15, 0.6, 0.01, 4),
}


@pytest.fixture(params=sorted(GRAPHS), scope="module")
def pair(request):
    g = GRAPHS[request.param]()
    reference = nx.Graph()
    reference.add_nodes_from(range(g.n))
    reference.add_edges_from(g.edges())
    return g, reference


def test_maximal_cliques(pair):
    g, reference = pair
    expected = {frozenset(c) for c in nx.find_cliques(reference)}
    got = enumerate_maximal_cliques(g).cliques
    assert len(got) == len(expected)
    assert set(got) == expected


@pytest.mark.parametrize("k", [3, 4, 5])
def test_clique_percolation(pair, k):
    g, reference = pair
    expected = sort_cover(nx.community.k_clique_communities(reference, k))
    assert clique_percolation(g, CpmParams(k=k)) == expected


def test_modularity_of_label_propagation(pair):
    g, reference = pair
    partition = label_propagation(g)
    eq_total, _, _ = extended_modularity(g, partition)
    expected = nx.community.modularity(reference, partition)
    assert math.isclose(eq_total, expected, rel_tol=1e-9)
