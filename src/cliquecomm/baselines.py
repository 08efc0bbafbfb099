"""Comparison detectors: asynchronous label propagation and clique percolation."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

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

    Union-find runs over the maximal cliques of size >= k, linked when they
    share a (k-1)-subset, and gives the same communities as over k-cliques:
    every k-clique lies in a maximal clique of size >= k; the k-cliques
    inside one maximal clique are chained (swap one member at a time); and
    two maximal cliques hold k-cliques sharing k-1 nodes iff they share k-1
    members (those members plus one more from each side).
    """
    maximal = enumerate_maximal_cliques(g, p.k).cliques
    parent = list(range(len(maximal)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    by_subset = {}
    for idx, c in enumerate(maximal):
        for sub in combinations(sorted(c), p.k - 1):
            first = by_subset.setdefault(sub, idx)
            if first != idx:
                union(first, idx)

    components = {}
    for idx, c in enumerate(maximal):
        components.setdefault(find(idx), set()).update(c)
    return sort_cover(components.values())
