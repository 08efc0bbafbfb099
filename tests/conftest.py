import random
from pathlib import Path

import pytest

from cliquecomm.graph import DirectedEdgeList, build_graph
from cliquecomm.metrics import triangle_participants

DATA_DIR = Path(__file__).parent / "data"


def gnp(n, p, seed):
    """Seeded Erdos-Renyi graph over zero-padded string ids, nodes kept even
    when isolated so indices stay predictable."""
    rng = random.Random(seed)
    ids = [f"n{i:03d}" for i in range(n)]
    edges = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return build_graph(edges, extra_nodes=ids)


def directed_edge_list(pairs):
    """A DirectedEdgeList over (source_id, target_id) pairs, interned as
    load_edge_list interns a file's edge lines: sorted distinct ids, and one
    index pair per input pair, in order."""
    ids = sorted({v for pair in pairs for v in pair})
    index = {v: i for i, v in enumerate(ids)}
    return DirectedEdgeList(ids, [(index[a], index[b]) for a, b in pairs])


def id_pairs(d):
    """The edges of DirectedEdgeList d as (source_id, target_id) pairs."""
    return [(d.ids[i], d.ids[j]) for i, j in d.edges]


def clique_sets(cliques):
    """The members of each clique as a frozenset, in order, after checking
    that each is a tuple in strictly ascending order, as enumeration emits
    it."""
    for c in cliques:
        assert type(c) is tuple and all(map(int.__lt__, c, c[1:])), c
    return list(map(frozenset, cliques))


def complete_graph(n, prefix="k"):
    ids = [f"{prefix}{i:02d}" for i in range(n)]
    return build_graph(
        (ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
    )


def two_k5():
    """Two disjoint K5 components; the classic EQ = 0.5 fixture."""
    edges = []
    for base in ("a", "b"):
        ids = [f"{base}{i}" for i in range(5)]
        edges.extend((ids[i], ids[j]) for i in range(5) for j in range(i + 1, 5))
    return build_graph(edges)


def planted_block(external_id):
    """The planted block index of a planted_partition node id."""
    return int(external_id.split("-", 1)[0])


def tpr(g, c):
    """Triangle participation ratio: the share of c's members in a
    triangle inside c."""
    return len(triangle_participants(g, c)) / len(c)


@pytest.fixture
def data_dir():
    return DATA_DIR
