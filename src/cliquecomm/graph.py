"""Graph representation, mutualization, file I/O, and synthetic generation.

External node ids are opaque strings; every algorithm in the package works on
dense integer indices [0, n) and output is translated back to external ids at
the file boundary. Index order is external-id order in every Graph, so
sorting indices sorts ids.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import operator
from collections import deque
from dataclasses import dataclass
from itertools import compress, islice, repeat
from typing import Iterable, Sequence

from .errors import EdgeListParseError, InputError

logger = logging.getLogger(__name__)

Community = frozenset  # frozenset[int], node indices of one community
Cover = list  # list[Community], possibly overlapping


@dataclass(frozen=True)
class DirectedEdgeList:
    """Raw directed edges over external string ids, duplicates allowed."""

    edges: list


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph with dense node indices.

    ids[i] is the external id of node i; adjacency[i] is the set of
    neighbor indices. Symmetric and irreflexive by construction. ids must be
    strictly ascending, so index order is external-id order.
    """

    ids: list
    adjacency: list

    def __post_init__(self):
        if any(map(operator.ge, self.ids, islice(self.ids, 1, None))):
            raise ValueError("graph ids must be strictly ascending")

    @functools.cached_property
    def _index(self) -> dict:
        return dict(zip(self.ids, range(len(self.ids))))

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.adjacency[i]

    def index_of(self, external_id: str) -> int:
        return self._index[external_id]

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
    bad = _unwritable_id(ids)
    if bad is not None:
        raise ValueError(_bad_id_message(bad))


def _intern(ids, *columns) -> list:
    """Each column of external ids as a list of indices into sorted ids."""
    index = dict(zip(ids, range(len(ids))))
    return [list(map(index.__getitem__, col)) for col in columns]


def _intern_pairs(pairs, extra_nodes=()):
    """(ids, src, dst): the sorted distinct ids of (a, b) pairs and
    extra_nodes, checked, and the pairs as two index columns."""
    sources = [a for a, _ in pairs]
    targets = [b for _, b in pairs]
    ids = sorted(set(sources).union(targets, extra_nodes))
    _check_ids(ids)
    return ids, *_intern(ids, sources, targets)


def _from_columns(ids, src, dst) -> Graph:
    """The column constructor: a Graph over sorted distinct ids with one
    undirected edge per row of the parallel index columns src and dst.

    Symmetrizes, and drops duplicate edges and self-loops (counted in the
    log). The caller has checked the ids.
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
            "build_graph: dropped %d self-loops and %d duplicate edges",
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
    return _from_columns(*_intern_pairs(list(edge_pairs), extra_nodes))


def mutualize(d: DirectedEdgeList) -> Graph:
    """Keep only reciprocated directed edges; drop nodes left isolated.

    The undirected edge {a, b} survives iff both (a, b) and (b, a) appear
    in the input. Self-loops never survive. An id that a written file could
    not hold raises ValueError, whether or not its edges survive.
    """
    ids, src, dst = _intern_pairs(d.edges)
    out = [set() for _ in ids]
    _add_pairs(out, src, dst)
    # Node i's mutual neighbors are those it points to that point back.
    adjacency = [{j for j in nbrs if i in out[j]} for i, nbrs in enumerate(out)]
    for i in set(compress(src, map(operator.eq, src, dst))):
        adjacency[i].discard(i)
    keep = list(compress(range(len(ids)), adjacency))
    if len(keep) < len(ids):
        remap = dict(zip(keep, range(len(keep))))
        ids = [ids[i] for i in keep]
        adjacency = [set(map(remap.__getitem__, adjacency[i])) for i in keep]
    return Graph(ids=ids, adjacency=adjacency)


@contextlib.contextmanager
def open_utf8(path):
    """path opened for reading as UTF-8 text. A byte sequence that is not
    UTF-8 raises InputError naming the file: its UnicodeDecodeError is a
    ValueError, which would read as a usage error."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_edge_list(path, directed: bool = False):
    """Read a tab-separated edge-list file.

    Lines starting with '#' are comments; all-whitespace lines are skipped.
    A node id that a written file could not hold (see _unwritable_id)
    raises EdgeListParseError. With directed=True the raw DirectedEdgeList
    is returned; otherwise an undirected Graph is built directly
    (symmetrized, deduplicated, self-loops dropped).

    A file whose every line is two writable ids around one tab is cut into
    its two id columns at once. Any other file goes through the line loop,
    which names the line of the first malformed record.
    """
    with open_utf8(path) as fh:
        text = fh.read()
    tabs = text.count("\t")
    # Text mode has already mapped "\r\n" and "\r" to "\n". Split on "\n"
    # alone, as a text file's lines do: splitlines also cuts at "\x0b",
    # "\x85" and "\u2028", which would shift the line numbers of errors.
    lines = text.split("\n")
    del text  # each stage drops what it has used, to keep peak memory low
    if lines[-1] == "":
        lines.pop()
    fields = None
    if tabs == len(lines) and all(map(operator.contains, lines, repeat("\t"))):
        # Exactly one tab per line: the fields alternate source, target.
        fields = "\t".join(lines).split("\t")
        distinct = set(fields)
        if _unwritable_id(distinct) is not None:
            fields = None
    if fields is None:
        fields = _parse_lines(path, lines)
        distinct = set(fields)
    del lines
    if directed:
        return DirectedEdgeList(edges=list(zip(fields[0::2], fields[1::2])))
    ids = sorted(distinct)
    src, dst = _intern(ids, fields[0::2], fields[1::2])
    del fields, distinct
    return _from_columns(ids, src, dst)


def _parse_lines(path, lines) -> list:
    """The ids of every edge line, source then target, flat; raises
    EdgeListParseError at the first malformed line."""
    fields = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise EdgeListParseError(
                path, lineno, f"expected 2 tab-separated fields, got {len(parts)}"
            )
        bad = _unwritable_id(parts)
        if bad is not None:
            raise EdgeListParseError(path, lineno, _bad_id_message(bad))
        fields += parts
    return fields


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


def load_cover(g: Graph, path) -> Cover:
    """Read a cover file, mapping external ids back to g's indices."""
    cover = []
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            members = set()
            for token in line.split():
                try:
                    members.add(g.index_of(token))
                except KeyError:
                    raise EdgeListParseError(
                        path, lineno, f"unknown node id {token!r}"
                    ) from None
            if members:
                cover.append(frozenset(members))
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
        raise ValueError("k_blocks and block_size must be >= 1")

    import numpy as np  # only generate needs it; the other commands skip its import

    n = k_blocks * block_size
    rng = np.random.default_rng(rng_seed)
    # Sample over block-major positions v, store under rank[v], the index
    # of v's id in sorted order.
    names = [f"{v // block_size}-{v % block_size}" for v in range(n)]
    order = sorted(range(n), key=names.__getitem__)
    rank = np.argsort(order).tolist()  # inverse permutation of order
    ids = [names[v] for v in order]
    adjacency = [set() for _ in range(n)]

    def add_edge(i, j):
        i, j = rank[i], rank[j]
        adjacency[i].add(j)
        adjacency[j].add(i)

    # Intra-block edges: skip-sample the C(b,2) local pairs of each block.
    local_pairs = block_size * (block_size - 1) // 2
    for b in range(k_blocks):
        base = b * block_size
        for idx in _sample_indices(local_pairs, p_in, rng):
            i, j = _index_to_pair(idx, block_size)
            add_edge(base + i, base + j)

    # Inter-block edges: skip-sample all C(n,2) pairs at p_out and discard
    # intra-block hits, which keeps intra-block pairs at exactly p_in.
    if p_out > 0.0 and k_blocks > 1:
        total_pairs = n * (n - 1) // 2
        for idx in _sample_indices(total_pairs, p_out, rng):
            i, j = _index_to_pair(idx, n)
            if i // block_size != j // block_size:
                add_edge(i, j)

    return Graph(ids=ids, adjacency=adjacency)


def planted_block(external_id: str) -> int:
    """Recover the planted block index from a planted_partition node id."""
    return int(external_id.split("-", 1)[0])


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
