"""Graph representation, mutualization, file I/O, and synthetic generation.

External node ids are opaque strings; every algorithm in the package works on
dense integer indices [0, n) and output is translated back to external ids at
the file boundary. Index order is external-id order in every Graph, so
sorting indices sorts ids.
"""

from __future__ import annotations

import contextlib
import logging
import math
import operator
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from typing import Iterable, Sequence

from .errors import EdgeListParseError, InputError

logger = logging.getLogger(__name__)

Community = frozenset  # frozenset[int], node indices of one community
Cover = list  # list[Community], possibly overlapping


@dataclass(frozen=True)
class DirectedEdgeList:
    """Raw directed edges: ids are external ids as _check_ids requires, and
    edges holds one (i, j) pair of indices into ids per edge, duplicates and
    self-loops included. An index outside ids raises ValueError."""

    ids: list
    edges: list

    def __post_init__(self):
        _check_ids(self.ids)
        bad = set(chain.from_iterable(self.edges)).difference(range(len(self.ids)))
        if bad:
            raise ValueError(f"edge index {min(bad)} is out of range for {len(self.ids)} ids")


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph with dense node indices.

    ids[i] is the external id of node i; adjacency[i] is the set of
    neighbor indices. Symmetric and irreflexive by construction. ids must
    pass _check_ids, so index order is external-id order.
    """

    ids: list
    adjacency: list

    def __post_init__(self):
        _check_ids(self.ids)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self):
        """Yield each undirected edge once as (i, j) with i < j."""
        for i, nbrs in enumerate(self.adjacency):
            for j in nbrs:
                if i < j:
                    yield i, j


def _add_pairs(sets, keys, values) -> None:
    """sets[k].add(v) for each k, v of the parallel columns, looped in C."""
    deque(map(set.add, map(sets.__getitem__, keys), values), maxlen=0)


def _unwritable_id(ids):
    """The first id of ids that a written file could not hold, or None.

    Such an id is empty, holds whitespace (cover files separate ids by any
    whitespace, edge lists by tabs and line breaks), or starts with '#'
    (both readers skip such a line as a comment).
    """
    return next((v for v in ids if v.split() != [v] or v[0] == "#"), None)


def _bad_id_message(v) -> str:
    return f"node id {v!r} is empty, holds whitespace or starts with '#'"


def _check_ids(ids) -> None:
    if any(map(operator.ge, ids, islice(ids, 1, None))):
        raise ValueError("node ids must be strictly ascending")
    bad = _unwritable_id(ids)
    if bad is not None:
        raise ValueError(_bad_id_message(bad))


def _index(ids) -> dict:
    """external id -> its index in ids."""
    return dict(zip(ids, range(len(ids))))


def _intern(ids, *columns) -> list:
    """Each column of external ids as a list of indices into sorted ids."""
    index = _index(ids)
    return [list(map(index.__getitem__, col)) for col in columns]


def _from_columns(ids, src, dst) -> Graph:
    """The column constructor: a Graph over sorted distinct ids with one
    undirected edge per row of the parallel index columns src and dst.

    Symmetrizes, and drops duplicate edges and self-loops (counted in the log).
    """
    adjacency = [set() for _ in ids]
    _add_pairs(adjacency, src, dst)
    _add_pairs(adjacency, dst, src)
    loops = list(map(operator.eq, src, dst))
    for i in set(compress(src, loops)):
        adjacency[i].discard(i)
    self_loops = sum(loops)
    duplicates = len(src) - self_loops - sum(map(len, adjacency)) // 2
    if self_loops or duplicates:
        logger.info(
            "dropped %d self-loops and %d duplicate edges",
            self_loops,
            duplicates,
        )
    return Graph(ids=ids, adjacency=adjacency)


def build_graph(edge_pairs: Iterable, extra_nodes: Iterable = ()) -> Graph:
    """Build a Graph from (source_id, target_id) pairs over external ids.

    Symmetrizes, drops duplicate edges and self-loops (counted in the log),
    and assigns dense indices in lexicographic id order. Nodes listed in
    extra_nodes are kept even when isolated. An id that a written file could
    not hold (see _unwritable_id) raises ValueError.
    """
    pairs = list(edge_pairs)
    sources = [a for a, _ in pairs]
    targets = [b for _, b in pairs]
    ids = sorted(set(sources).union(targets, extra_nodes))
    return _from_columns(ids, *_intern(ids, sources, targets))


def mutualize(d: DirectedEdgeList) -> Graph:
    """Keep only reciprocated directed edges; drop nodes left isolated.

    The undirected edge {a, b} survives iff both (a, b) and (b, a) appear
    in the input. Self-loops never survive.
    """
    ids, edges = d.ids, d.edges
    out = [set() for _ in ids]
    _add_pairs(out, map(operator.itemgetter(0), edges), map(operator.itemgetter(1), edges))
    # Node i's mutual neighbors are the others it points to that point back.
    adjacency = [{j for j in nbrs if j != i and i in out[j]} for i, nbrs in enumerate(out)]
    keep = list(compress(range(len(ids)), adjacency))
    if len(keep) < len(ids):
        remap = dict(zip(keep, range(len(keep))))
        ids = [ids[i] for i in keep]
        adjacency = [set(map(remap.__getitem__, adjacency[i])) for i in keep]
    return Graph(ids=ids, adjacency=adjacency)


@contextlib.contextmanager
def open_utf8(path):
    """path opened for reading as UTF-8 text, without the byte-order mark
    some editors write at its start. A byte sequence that is not UTF-8
    raises InputError naming the file: its UnicodeDecodeError is a
    ValueError, which would read as a usage error."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_edge_list(path, directed: bool = False):
    """Read a tab-separated edge-list file.

    Lines starting with '#' are comments; all-whitespace lines are skipped.
    A node id that a written file could not hold (see _unwritable_id)
    raises EdgeListParseError. Both directions intern the ids at read time.
    With directed=True a DirectedEdgeList of index pairs, one per edge line
    in file order, is returned; otherwise an undirected Graph is built
    directly (symmetrized, deduplicated, self-loops dropped).
    """
    fields, distinct = _read_fields(path)
    ids = sorted(distinct)
    src, dst = _intern(ids, fields[0::2], fields[1::2])
    del fields, distinct
    if directed:
        return DirectedEdgeList(ids, list(zip(src, dst)))
    return _from_columns(ids, src, dst)


def load_node_ids(path) -> list:
    """The sorted distinct node ids of an edge-list file: load_edge_list(path).ids,
    with the same checks and errors, but no adjacency built. An id seen only
    in self-loops is a node."""
    return sorted(_read_fields(path)[1])


def _read_fields(path):
    """(fields, distinct): the ids of every edge line of an edge-list file,
    source then target, flat, and the set of them. One split serves every
    valid file; comment and blank lines are dropped only if it fails."""
    with open_utf8(path) as fh:
        text = fh.read()
    # Text mode has already mapped "\r\n" and "\r" to "\n". Split on "\n"
    # alone, as a text file's lines do: splitlines also cuts at "\x0b",
    # "\x85" and "\u2028", which would shift the line numbers of errors.
    lines = text.split("\n")
    del text  # each stage drops what it has used, to keep peak memory low
    if lines[-1] == "":
        lines.pop()
    split = _split(lines) or _split([ln for ln in lines if ln.strip() and ln[0] != "#"])
    if split is None:
        _locate_bad_line(path, lines)
    return split


def _split(records):
    """(fields, distinct) if every record is two writable ids around one
    tab, cut into its fields at once; otherwise None."""
    if not all(map(operator.contains, records, repeat("\t"))):
        return None
    # A tab in each record and two fields per record leave one tab in each:
    # the fields alternate source, target.
    fields = "\t".join(records).split("\t") if records else []
    if len(fields) != 2 * len(records):
        return None
    distinct = set(fields)
    return (fields, distinct) if _unwritable_id(distinct) is None else None


def _locate_bad_line(path, lines) -> None:
    """Raise EdgeListParseError at the first malformed edge line."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise EdgeListParseError(
                path, lineno, f"expected 2 tab-separated fields, got {len(parts)}"
            )
        bad = _unwritable_id(parts)
        if bad is not None:
            raise EdgeListParseError(path, lineno, _bad_id_message(bad))


def save_edge_list(g: Graph, path) -> None:
    """Write an undirected graph as a deterministic tab-separated edge list."""
    ids = g.ids
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in sorted(g.edges()):
            fh.write(f"{ids[i]}\t{ids[j]}\n")


def check_members(g: Graph, c) -> None:
    """Raise IndexError unless every member of c lies in [0, g.n)."""
    if c and (min(c) < 0 or max(c) >= g.n):
        raise IndexError(f"community members {min(c)}..{max(c)} out of range [0, {g.n})")


def induced_subgraph(g: Graph, c: Community) -> Graph:
    """Subgraph over c's members with exactly the internal edges of g.

    External ids are preserved so downstream reports stay readable.
    """
    check_members(g, c)
    members = sorted(c)
    member_set = set(members)
    remap = {v: i for i, v in enumerate(members)}
    ids = [g.ids[v] for v in members]
    adjacency = [
        {remap[w] for w in g.adjacency[v] if w in member_set} for v in members
    ]
    return Graph(ids=ids, adjacency=adjacency)


# ---------------------------------------------------------------------------
# Cover file I/O: one community per line, space-separated external ids.

def sort_cover(cover: Iterable) -> Cover:
    """The canonical order of every written cover: descending size, then
    sorted members, by two stable passes (members, then size). Duplicates
    are kept; pass a set to drop them."""
    out = sorted(map(frozenset, cover), key=sorted)
    out.sort(key=len, reverse=True)
    return out


def save_cover(g: Graph, cover: Sequence, path) -> None:
    ids = g.ids
    with open(path, "w", encoding="utf-8") as fh:
        for c in cover:
            fh.write(" ".join([ids[v] for v in sorted(c)]) + "\n")


def load_cover(ids, path) -> Cover:
    """Read a cover file, mapping external ids to their indices in ids, a
    graph's sorted id list. A line with no ids, or whose first id starts
    with '#', is skipped."""
    index = _index(ids).__getitem__
    cover = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            names = line.split()
            if not names or names[0][0] == "#":
                continue
            try:
                cover.append(frozenset(map(index, names)))
            except KeyError as exc:
                message = f"unknown node id {exc.args[0]!r}"
                raise EdgeListParseError(path, lineno, message) from None
    return cover


# ---------------------------------------------------------------------------
# Planted-partition generator.

def planted_partition(
    k_blocks: int,
    block_size: int,
    p_in: float,
    p_out: float,
    rng_seed: int,
) -> Graph:
    """Random graph with k_blocks dense blocks of block_size nodes each.

    Intra-block pairs are joined with probability p_in, inter-block pairs
    with p_out. Isolated nodes are retained. Node ids encode the block as
    "<block>-<offset>" so planted membership stays recoverable; indices
    follow id order, so "10-0" comes before "2-0".
    """
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError(f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if k_blocks < 1 or block_size < 1:
        raise ValueError("k_blocks and block_size must be >= 1, "
                         f"got k_blocks={k_blocks}, block_size={block_size}")
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be >= 0, got {rng_seed}")

    import numpy as np  # only generate needs it; the other commands skip its import

    n = k_blocks * block_size
    rng = np.random.default_rng(rng_seed)
    # Sample over block-major positions v, store under rank[v], the index
    # of v's id in sorted order.
    names = [f"{v // block_size}-{v % block_size}" for v in range(n)]
    order = sorted(range(n), key=names.__getitem__)
    rank = np.argsort(order).tolist()  # inverse permutation of order
    ids = [names[v] for v in order]
    src, dst = [], []
    # Intra-block edges: skip-sample the C(b,2) local pairs of each block.
    local_pairs = block_size * (block_size - 1) // 2
    for b in range(k_blocks):
        base = b * block_size
        for idx in _sample_indices(local_pairs, p_in, rng):
            i, j = _index_to_pair(idx, block_size)
            src.append(rank[base + i])
            dst.append(rank[base + j])

    # Inter-block edges: skip-sample all C(n,2) pairs at p_out and discard
    # intra-block hits, which keeps intra-block pairs at exactly p_in.
    if p_out > 0.0 and k_blocks > 1:
        total_pairs = n * (n - 1) // 2
        for idx in _sample_indices(total_pairs, p_out, rng):
            i, j = _index_to_pair(idx, n)
            if i // block_size != j // block_size:
                src.append(rank[i])
                dst.append(rank[j])

    return _from_columns(ids, src, dst)


def _sample_indices(total: int, p: float, rng) -> Iterable:
    """Indices of a Bernoulli(p) subset of range(total), via geometric gaps."""
    if total <= 0 or p <= 0.0:
        return
    if p >= 1.0:
        yield from range(total)
        return
    pos = -1
    chunk = max(256, min(1 << 18, int(total * p) + 16))
    while True:
        gaps = rng.geometric(p, size=chunk)
        for gap in gaps:
            pos += int(gap)
            if pos >= total:
                return
            yield pos


def _index_to_pair(idx: int, n: int):
    """Invert the row-major linearization of pairs (i, j), i < j, over n nodes."""
    # Counted from the last pair, rows n-2, n-3, ... hold 1, 2, ... pairs, so
    # row n-2-k starts at r = k(k+1)/2: k is the largest with k(k+1)/2 <= r.
    r = n * (n - 1) // 2 - 1 - idx
    i = n - 2 - (math.isqrt(8 * r + 1) - 1) // 2
    # Pairs with first element < i occupy i*n - i*(i+1)/2 slots.
    j = idx - (i * n - i * (i + 1) // 2) + i + 1
    return i, j
