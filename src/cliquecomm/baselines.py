"""Comparison detectors: asynchronous label propagation and clique percolation."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice

from .cliques import enumerate_maximal_cliques
from .graph import Graph, sort_cover


@dataclass(frozen=True)
class LpParams:
    rng_seed: int = 0
    max_iterations: int = 100

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class CpmParams:
    k: int = 3

    def __post_init__(self):
        if self.k < 3:
            raise ValueError(f"k must be >= 3, got {self.k}")


def label_propagation(g: Graph, p: LpParams = LpParams()):
    """Asynchronous label propagation with seeded visit order and tie-breaks.

    Each node starts with its own label and repeatedly adopts the majority
    label of its neighborhood (ties broken uniformly at random). Stops when a
    full sweep changes nothing, i.e. every label is already a neighborhood
    majority, or after max_iterations sweeps. The result is a partition.
    """
    rng = random.Random(p.rng_seed)
    labels = list(range(g.n))
    order = list(range(g.n))
    for _ in range(p.max_iterations):
        rng.shuffle(order)
        changed = False
        for v in order:
            nbrs = g.adjacency[v]
            if not nbrs:
                continue
            counts = {}
            for w in nbrs:
                lw = labels[w]
                counts[lw] = counts.get(lw, 0) + 1
            best = max(counts.values())
            if counts.get(labels[v]) == best:
                continue
            labels[v] = rng.choice(sorted(l for l, c in counts.items() if c == best))
            changed = True
        if not changed:
            break
    groups = {}
    for v, l in enumerate(labels):
        groups.setdefault(l, set()).add(v)
    return sort_cover(groups.values())


def clique_percolation(g: Graph, p: CpmParams):
    """Clique percolation: communities are unions of k-cliques chained by
    (k-1)-node overlaps.

    Each community is the union of one search over the maximal cliques of
    size >= k, stepping between cliques that share k-1 members. That chains
    the same k-cliques: each lies in such a maximal clique, those inside one
    are chained (swap one member at a time), and two maximal cliques hold
    k-cliques sharing k-1 nodes iff they share k-1 members. A clique sharing
    k-1 members with c holds one of any |c| - k + 2 of c's members (as in
    filter_overlapping), so only their cliques are compared: the cost is at
    most quadratic in the cliques per node and never exponential in k.
    """
    # Frozensets made once: the search intersects each clique many times.
    maximal = list(map(frozenset, enumerate_maximal_cliques(g, p.k).cliques))
    by_node = {}  # node -> indices into maximal of the cliques holding it
    for idx, c in enumerate(maximal):
        for v in c:
            by_node.setdefault(v, []).append(idx)
    reached = [False] * len(maximal)
    communities = []
    for start, first in enumerate(maximal):
        if reached[start]:
            continue
        reached[start] = True
        stack, members = [first], set()
        while stack:
            c = stack.pop()
            members |= c
            for v in islice(c, len(c) - p.k + 2):
                for j in by_node[v]:
                    if not reached[j] and len(c & maximal[j]) >= p.k - 1:
                        reached[j] = True
                        stack.append(maximal[j])
        communities.append(members)
    return sort_cover(communities)
