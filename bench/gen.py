"""Seeded input generators for the benchmark, built on numpy alone.

Each generator takes a numpy Generator and returns the text of one input
file, so the same seed always yields byte-identical files. The program under
test only ever sees these files, never the generators.
"""

from __future__ import annotations

import numpy as np


def _edge_text(ids, src, dst) -> str:
    ids = np.asarray(ids)
    a, b = ids[src], ids[dst]
    return "".join(f"{x}\t{y}\n" for x, y in zip(a.tolist(), b.tolist()))


def _block_pairs(rng, blocks: int, size: int, p: float):
    """Bernoulli(p) over the local pairs of `blocks` consecutive blocks."""
    iu, ju = np.triu_indices(size, 1)
    block, k = np.nonzero(rng.random((blocks, iu.size)) < p)
    base = block * size
    return base + iu[k], base + ju[k]


def _inter_block_pairs(rng, n: int, size: int, count: int):
    """`count` uniform node pairs, dropping those inside one block."""
    i = rng.integers(0, n, count)
    j = rng.integers(0, n, count)
    keep = i // size != j // size
    return i[keep], j[keep]


def _core_pairs(rng, members, density: float):
    """Exactly round(density * pairs) of the member pairs, placed at random.

    A fixed edge count, rather than one Bernoulli draw per pair, keeps the
    number of maximal cliques in a core from swinging with the seed.
    """
    iu, ju = np.triu_indices(members.size, 1)
    keep = rng.permutation(iu.size)[: round(density * iu.size)]
    return members[iu[keep]], members[ju[keep]]


def _dedup_undirected(src, dst):
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1]


def social_follows(rng, blocks: int, block_size: int = 100, p_in: float = 0.106,
                   inter_per_node: float = 0.02, noise: float = 0.2) -> str:
    """Directed follower list over a planted partition.

    Every planted edge is written in both directions, so it survives
    mutualize. One-way follows on uniform pairs add `noise` times as many
    lines again, and all lines are shuffled. Ids are permuted integers, so their
    lexicographic order differs from generation order.
    """
    n = blocks * block_size
    s_in, d_in = _block_pairs(rng, blocks, block_size, p_in)
    s_out, d_out = _inter_block_pairs(rng, n, block_size, int(inter_per_node * n))
    src = np.concatenate([s_in, s_out])
    dst = np.concatenate([d_in, d_out])
    noise_count = int(noise * 2 * src.size)
    ns = rng.integers(0, n, noise_count)
    nd = rng.integers(0, n, noise_count)
    keep = ns != nd
    src_all = np.concatenate([src, dst, ns[keep]])
    dst_all = np.concatenate([dst, src, nd[keep]])
    order = rng.permutation(src_all.size)
    ids = (rng.permutation(n) + 100_000).astype(str)
    return _edge_text(ids, src_all[order], dst_all[order])


def planted_edges(rng, blocks: int, block_size: int = 100, p_in: float = 0.106,
                  inter_per_node: float = 0.02) -> str:
    """Undirected planted-partition edge list, ids "<block>-<offset>"."""
    n = blocks * block_size
    s_in, d_in = _block_pairs(rng, blocks, block_size, p_in)
    s_out, d_out = _inter_block_pairs(rng, n, block_size, int(inter_per_node * n))
    src, dst = _dedup_undirected(np.concatenate([s_in, s_out]),
                                 np.concatenate([d_in, d_out]))
    order = rng.permutation(src.size)
    ids = [f"{v // block_size}-{v % block_size}" for v in range(n)]
    return _edge_text(ids, src[order], dst[order])


def chung_lu_with_cores(rng, n: int, mean_degree: float, gamma: float,
                        core_sizes, density: float, hub_bias: float):
    """Heavy-tailed background plus overlapping near-cliques.

    The background is a Chung-Lu graph whose expected degrees follow a
    power law with exponent `gamma`. The weight sequence is fixed and only
    its assignment to nodes is random, so the degree tail, and with it the
    work, does not swing from seed to seed. Core k has core_sizes[k]
    members, drawn with probability proportional to weight**hub_bias, so
    hubs sit in several cores and the cores overlap; each core pair is
    joined with probability `density`.

    Returns (edge list text, node ids, list of member arrays per core).
    """
    weights = ((np.arange(n) + 1.0) / n) ** (-1.0 / (gamma - 1.0))
    weights = rng.permutation(np.minimum(weights, np.sqrt(n)))
    p = weights / weights.sum()
    m = int(n * mean_degree / 2)
    src = [rng.choice(n, m, p=p)]
    dst = [rng.choice(n, m, p=p)]
    q = weights ** hub_bias
    q /= q.sum()
    members = []
    for size in core_sizes:
        core = rng.choice(n, int(size), replace=False, p=q)
        members.append(core)
        s, d = _core_pairs(rng, core, density)
        src.append(s)
        dst.append(d)
    src, dst = _dedup_undirected(np.concatenate(src), np.concatenate(dst))
    order = rng.permutation(src.size)
    ids = np.array([f"n{v}" for v in range(n)])
    return _edge_text(ids, src[order], dst[order]), ids, members


def matching_cores(rng, n: int, mean_degree: float, cores: int, size: int,
                   missing: int) -> str:
    """Sparse random background plus disjoint cores, each a clique of
    `size` nodes minus `missing` disjoint edges.

    A clique minus a matching of `missing` edges has exactly 2**missing
    maximal cliques, of size size - missing, that overlap heavily; every
    core has the same count, so the number of clique pairs the overlap
    filter compares is fixed and only the node labels vary with the seed.
    """
    src = [rng.integers(0, n, int(n * mean_degree / 2))]
    dst = [rng.integers(0, n, src[0].size)]
    nodes = rng.permutation(n)[: cores * size].reshape(cores, size)
    iu, ju = np.triu_indices(size, 1)
    for core in nodes:
        absent = set(map(tuple, np.sort(
            rng.permutation(size)[: 2 * missing].reshape(missing, 2), axis=1).tolist()))
        keep = np.array([(i, j) not in absent for i, j in zip(iu.tolist(), ju.tolist())])
        src.append(core[iu[keep]])
        dst.append(core[ju[keep]])
    src, dst = _dedup_undirected(np.concatenate(src), np.concatenate(dst))
    order = rng.permutation(src.size)
    ids = np.array([f"c{v}" for v in range(n)])
    return _edge_text(ids, src[order], dst[order])


def core_hashtags(rng, ids, cores, vocabulary: int = 400,
                  with_data: float = 0.85) -> str:
    """`user<TAB>tag<TAB>count` table themed by core.

    Users with data carry Zipf-ranked background tags; each core adds its
    own theme tags to its members. Tags come with and without '#' and in
    mixed case, and some records repeat, so normalisation and summing run.
    """
    n = len(ids)
    users, tags, counts = [], [], []
    has_data = rng.random(n) < with_data
    for v in np.nonzero(has_data)[0]:
        k = int(rng.integers(3, 13))
        ranks = np.minimum(rng.zipf(1.6, k), vocabulary)
        for r, c in zip(ranks.tolist(), rng.integers(1, 20, k).tolist()):
            users.append(v)
            tags.append(f"tag{r}")
            counts.append(c)
    for ci, core in enumerate(cores):
        theme = [f"Core{ci}Theme{j}" for j in range(4)]
        for v in core.tolist():
            if not has_data[v]:
                continue
            for j in rng.choice(4, int(rng.integers(2, 5)), replace=False).tolist():
                users.append(v)
                tags.append(theme[j])
                counts.append(int(rng.integers(5, 40)))
    order = rng.permutation(len(users))
    hashes = rng.random(len(users)) < 0.5
    upper = rng.random(len(users)) < 0.2
    lines = []
    for i in order.tolist():
        tag = tags[i].upper() if upper[i] else tags[i]
        if hashes[i]:
            tag = "#" + tag
        lines.append(f"{ids[users[i]]}\t{tag}\t{counts[i]}\n")
    return "// user<TAB>hashtag<TAB>count\n" + "".join(lines)
