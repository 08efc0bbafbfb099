"""Maximal clique enumeration and the overlap-threshold seed filter."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import ResourceLimitError
from .graph import Graph, sort_cover

DEFAULT_CLIQUE_CAP = 10_000_000


@dataclass(frozen=True)
class CliqueSet:
    """Cliques sorted descending by size, ties lexicographic by member ids."""

    cliques: list  # list[frozenset[int]]


def threshold_fraction(t) -> Fraction:
    """Exact rational form of a user-supplied threshold.

    Floats are interpreted through their shortest decimal repr (0.7 means
    7/10, not the nearest binary double), so worked ratios like 0.7 * 10
    compare exactly.
    """
    if isinstance(t, Fraction):
        return t
    if isinstance(t, float):
        return Fraction(repr(t))
    return Fraction(t)


def sort_cliques(cliques) -> list:
    """Cliques in sort_cover order: descending size, then member ids."""
    return sort_cover(cliques)


def degeneracy_order(g: Graph) -> list:
    """Vertex order by repeated minimum-degree removal (bucket queue)."""
    n = g.n
    deg = [g.degree(v) for v in range(n)]
    max_deg = max(deg, default=0)
    buckets = [set() for _ in range(max_deg + 1)]
    for v in range(n):
        buckets[deg[v]].add(v)
    removed = [False] * n
    order = []
    d = 0
    for _ in range(n):
        while d <= max_deg and not buckets[d]:
            d += 1
        v = buckets[d].pop()
        removed[v] = True
        order.append(v)
        for w in g.adjacency[v]:
            if not removed[w]:
                buckets[deg[w]].remove(w)
                deg[w] -= 1
                buckets[deg[w]].add(w)
        d = max(d - 1, 0)
    return order


def enumerate_maximal_cliques(
    g: Graph,
    min_size: int = 1,
    max_cliques: int = DEFAULT_CLIQUE_CAP,
) -> CliqueSet:
    """All maximal cliques of g with at least min_size members.

    Bron-Kerbosch with pivoting, outer loop in degeneracy order, on an
    explicit stack of frames (r, p, x, branches), so clique depth is not
    bounded by the recursion limit. The pivot scan tries X first: an x
    adjacent to all of P means every clique here extends to x, so the
    subproblem is skipped. The P scan stops at |P| - 1, the most a member
    of P can cover (Tomita, Tanaka & Takahashi 2006). A branch that cannot
    reach min_size members is skipped. A subproblem whose P holds one vertex
    w allows one clique, r + (w,), maximal iff X misses N(w) (iff X is
    empty when P is): it is emitted in place, with no frame or pivot scan.
    Raises ResourceLimitError past max_cliques.
    """
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    adj = g.adjacency
    out = []
    stack = []

    def push(r, p, x):
        # Emit the one clique a P of at most one vertex allows, if it is
        # maximal; otherwise push r's frame unless X dominates P.
        if len(p) <= 1:
            if p:
                (w,) = p
                if not x.isdisjoint(adj[w]):
                    return
                r += (w,)
            elif x:
                return
            out.append(frozenset(r))
            if len(out) > max_cliques:
                raise ResourceLimitError(
                    f"maximal clique count exceeded cap {max_cliques}"
                )
            return
        size = len(p)
        best, pivot = -1, None
        for u in x:
            covered = len(p & adj[u])
            if covered > best:
                if covered == size:
                    return
                best, pivot = covered, u
        if best < size - 1:
            for u in p:
                covered = len(p & adj[u])
                if covered > best:
                    best, pivot = covered, u
                    if covered == size - 1:
                        break
        stack.append((r, p, x, p - adj[pivot]))

    done = set()
    for v in degeneracy_order(g):
        later = adj[v] - done
        if len(later) + 1 >= min_size:
            push((v,), later, adj[v] & done)
        done.add(v)
        while stack:
            # Each child gets its own P and X before w moves from P to X,
            # so all branches of a frame are taken at once.
            r, p, x, branches = stack.pop()
            need = min_size - len(r) - 1
            for w in branches:
                nw = adj[w]
                cp = p & nw
                if len(cp) >= need:
                    push(r + (w,), cp, x & nw)
                p.remove(w)
                x.add(w)

    return CliqueSet(cliques=sort_cliques(out))


def filter_overlapping(cs: CliqueSet, overlapping_threshold) -> CliqueSet:
    """Greedy overlap filter over the size-sorted clique list.

    Walking the cliques largest-first, a candidate c is discarded iff some
    already-kept clique k shares strictly more than
    overlapping_threshold * min(|c|, |k|) nodes with it; exact ties keep
    the candidate. Threshold 0 yields a pairwise-disjoint kept set.

    Only kept cliques holding one of any `probe` members of c are compared
    (the prefix filter of set-similarity joins): with
    bound = min(|c|, smallest kept size), a discarding k shares more than
    t * bound members with c, so it holds at least one of any
    probe = |c| - floor(t * bound) of them. The probe is never negative
    (t <= 1), and at threshold 1 on size-sorted input it is empty, so
    nothing is compared.
    """
    t = threshold_fraction(overlapping_threshold)
    if not 0 <= t <= 1:
        raise ValueError(f"overlapping threshold must be in [0, 1], got {t}")
    num, den = t.numerator, t.denominator

    kept = []
    by_node = {}  # node -> indices into kept, to skip disjoint comparisons
    smallest = math.inf  # smallest kept size: CliqueSet order is not enforced
    for c in cs.cliques:
        size = len(c)
        near = set()
        for v in islice(c, size - num * min(size, smallest) // den):
            near.update(by_node.get(v, ()))
        discard = False
        for ki in near:
            k = kept[ki]
            overlap = len(c & k)
            if overlap * den > num * min(size, len(k)):
                discard = True
                break
        if discard:
            continue
        idx = len(kept)
        kept.append(c)
        smallest = min(smallest, size)
        for v in c:
            by_node.setdefault(v, []).append(idx)
    return CliqueSet(cliques=kept)


def is_clique(g: Graph, members) -> bool:
    """Members pairwise adjacent: each one's neighbours hold all the others."""
    members = set(members)
    others = len(members) - 1
    return all(len(members & nbrs) == others for nbrs in map(g.adjacency.__getitem__, members))
