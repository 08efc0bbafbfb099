"""Brute-force oracles for validating the production algorithms.

Each oracle is exact by construction and deliberately shares no code with the
implementation it checks; size caps keep exhaustive search under a second.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from cliquecomm.errors import EdgeListParseError
from cliquecomm.graph import DirectedEdgeList, Graph

from conftest import directed_edge_list, id_pairs

MAX_CLIQUE_ORACLE_N = 12
MAX_CPM_ORACLE_N = 10
MAX_MODULARITY_ORACLE_N = 30


def canonical_key(c):
    """The reference key of the canonical cover order: descending size,
    then sorted members (lexicographic member ids)."""
    return -len(c), sorted(c)


def oracle_maximal_cliques(g: Graph):
    """Every vertex subset tested for clique-ness and maximality. n <= 12."""
    if g.n > MAX_CLIQUE_ORACLE_N:
        raise ValueError(f"oracle limited to n <= {MAX_CLIQUE_ORACLE_N}")
    nodes = list(range(g.n))
    cliques = []
    for size in range(1, g.n + 1):
        for subset in combinations(nodes, size):
            if not all(b in g.adjacency[a] for a, b in combinations(subset, 2)):
                continue
            ss = set(subset)
            maximal = not any(
                ss <= g.adjacency[v] for v in nodes if v not in ss
            )
            if maximal:
                cliques.append(frozenset(subset))
    return cliques


def is_maximal_clique(g: Graph, members) -> bool:
    """Members pairwise adjacent, and no other node adjacent to all of them."""
    ms = set(members)
    if not all(b in g.adjacency[a] for a, b in combinations(ms, 2)):
        return False
    return not any(ms <= g.adjacency[v] for v in range(g.n) if v not in ms)


def oracle_filter_overlapping(cliques, threshold) -> list:
    """The greedy overlap filter read literally, with no index.

    Each candidate, in list order, is compared with every clique kept so
    far and kept unless one shares more than threshold * min(sizes) of its
    members. A float threshold is read as its decimal string.
    """
    t = Fraction(str(threshold))
    kept = []
    for c in cliques:
        if all(len(c & k) <= t * min(len(c), len(k)) for k in kept):
            kept.append(c)
    return kept


def oracle_modularity(g: Graph, partition) -> float:
    """Classical modularity via the literal double loop over node pairs."""
    if g.n > MAX_MODULARITY_ORACLE_N:
        raise ValueError(f"oracle limited to n <= {MAX_MODULARITY_ORACLE_N}")
    label = {}
    for ci, c in enumerate(partition):
        for v in c:
            label[v] = ci
    m = g.m
    q = 0.0
    for v in range(g.n):
        for w in range(g.n):
            if label.get(v) is None or label.get(v) != label.get(w):
                continue
            a_vw = 1.0 if w in g.adjacency[v] else 0.0
            q += a_vw - len(g.adjacency[v]) * len(g.adjacency[w]) / (2.0 * m)
    return q / (2.0 * m)


def oracle_desirable_coverage(g: Graph, cover, lo: int, hi: int) -> float:
    """Share of all nodes that lie in some community of size in [lo, hi],
    each node checked against every community."""
    covered = [v for v in range(g.n) if any(v in c and lo <= len(c) <= hi for c in cover)]
    return len(covered) / g.n if g.n else 0.0


def oracle_tpr(g: Graph, c) -> float:
    """Share of c's members in a triangle inside c, from every member triple."""
    in_triangle = set()
    for triple in combinations(sorted(c), 3):
        if all(b in g.adjacency[a] for a, b in combinations(triple, 2)):
            in_triangle.update(triple)
    return len(in_triangle) / len(c)


def oracle_cpm(g: Graph, k: int):
    """CPM from an explicit k-clique list and its adjacency graph. n <= 10.

    Every k-subset is tested for being a clique; communities are the node
    sets of the connected components of k-cliques sharing k-1 nodes.
    """
    if g.n > MAX_CPM_ORACLE_N:
        raise ValueError(f"oracle limited to n <= {MAX_CPM_ORACLE_N}")
    cliques = [
        set(s)
        for s in combinations(range(g.n), k)
        if all(b in g.adjacency[a] for a, b in combinations(s, 2))
    ]
    unvisited = set(range(len(cliques)))
    covers = []
    while unvisited:
        stack = [unvisited.pop()]
        nodes = set()
        while stack:
            i = stack.pop()
            nodes.update(cliques[i])
            for j in list(unvisited):
                if len(cliques[i] & cliques[j]) == k - 1:
                    unvisited.remove(j)
                    stack.append(j)
        covers.append(frozenset(nodes))
    return sorted(covers, key=canonical_key)


def oracle_grow(g: Graph, seed, t, max_rounds=None):
    """Growth read literally: each round recounts |N(v) & C| from scratch
    for every v outside C and admits, at once, every v whose count is at
    least t * |C|, until a round admits nothing or max_rounds rounds have
    run. Returns (community, rounds). A float t is read as its decimal
    string; the seed is taken to be a non-empty clique.
    """
    t = Fraction(str(t))
    community = set(seed)
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        admitted = [
            v
            for v in range(g.n)
            if v not in community and len(g.adjacency[v] & community) >= t * len(community)
        ]
        if not admitted:
            break
        community.update(admitted)
        rounds += 1
    return frozenset(community), rounds


def oracle_caa(g: Graph, params):
    """run_caa read literally from the other oracles. n <= 12.

    Maximal cliques of at least params.min_clique_size members, sorted by
    descending size then member ids, go through the overlap filter; each
    kept seed grows under params' growth rule, and the distinct
    communities come back in the same order.
    """
    cliques = sorted(
        (c for c in oracle_maximal_cliques(g) if len(c) >= params.min_clique_size),
        key=canonical_key,
    )
    seeds = oracle_filter_overlapping(cliques, params.overlapping_threshold)
    grown = []
    for seed in seeds:
        community, _ = oracle_grow(
            g, seed, params.growing_threshold, params.max_rounds)
        if community not in grown:
            grown.append(community)
    return sorted(grown, key=canonical_key)


def oracle_build_graph(edge_pairs, extra_nodes=()) -> Graph:
    """build_graph read literally: a set of string-keyed undirected edges,
    then indices in sorted id order. Ids are not checked."""
    nodes = set(extra_nodes)
    edges = set()
    for a, b in edge_pairs:
        nodes.add(a)
        nodes.add(b)
        if a != b:
            edges.add((a, b) if a <= b else (b, a))
    ids = sorted(nodes)
    index = {ext: i for i, ext in enumerate(ids)}
    adjacency = [set() for _ in ids]
    for a, b in edges:
        adjacency[index[a]].add(index[b])
        adjacency[index[b]].add(index[a])
    return Graph(ids=ids, adjacency=adjacency)


def oracle_mutualize(d: DirectedEdgeList) -> Graph:
    """The edge {a, b} iff both (a, b) and (b, a) appear, a != b, read over
    external ids."""
    directed = {(a, b) for a, b in id_pairs(d) if a != b}
    return oracle_build_graph(
        (a, b) for a, b in directed if a < b and (b, a) in directed
    )


def oracle_load_edge_list(path, directed=False):
    """load_edge_list as one loop over the file's lines, with no fast path."""
    edges = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise EdgeListParseError(
                    path, lineno, f"expected 2 tab-separated fields, got {len(parts)}"
                )
            for v in parts:
                if not v or v.startswith("#") or any(ch.isspace() for ch in v):
                    raise EdgeListParseError(
                        path, lineno,
                        f"node id {v!r} is empty, holds whitespace or starts with '#'",
                    )
            edges.append(tuple(parts))
    if directed:
        return directed_edge_list(edges)
    return oracle_build_graph(edges)


def oracle_theme(ids, c, table, k, top_k_community) -> dict:
    """community_theme's fields from per-member loops. A member has data
    when its tag dict is non-empty; its top k tags come from a full sort of
    that dict (count descending, then tag). Jaccard is averaged over every
    index pair i < j, in that order; penetration is the share of members
    with data whose top k holds the community's top tag."""
    member_ids = sorted(ids[v] for v in c)
    aggregate = {}
    top_sets = []
    for uid in member_ids:
        tags = table.get(uid, {})
        if len(tags) == 0:
            continue
        for tag in tags:
            aggregate[tag] = aggregate.get(tag, 0) + tags[tag]
        ranked = sorted(tags, key=lambda t: (-tags[t], t))
        top_sets.append(set(ranked[:k]))
    ranked = sorted(aggregate, key=lambda t: (-aggregate[t], t))
    top_tags = [(t, aggregate[t]) for t in ranked[:top_k_community]]
    mean_jaccard = penetration = None
    total, pairs = 0.0, 0
    for i in range(len(top_sets)):
        for j in range(i + 1, len(top_sets)):
            total += len(top_sets[i] & top_sets[j]) / len(top_sets[i] | top_sets[j])
            pairs += 1
    if pairs:
        mean_jaccard = total / pairs
    if top_sets:
        holding = [s for s in top_sets if top_tags[0][0] in s]
        penetration = len(holding) / len(top_sets)
    return {
        "size": len(c),
        "member_ids": member_ids,
        "top_tags": top_tags,
        "mean_pairwise_jaccard": mean_jaccard,
        "top_tag_penetration": penetration,
        "members_with_data": len(top_sets),
        "members_missing_data": len(member_ids) - len(top_sets),
    }
