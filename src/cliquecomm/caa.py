"""Clique augmentation: grow filtered seed cliques into overlapping communities."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .cliques import (
    DEFAULT_CLIQUE_CAP,
    enumerate_maximal_cliques,
    filter_overlapping,
    is_clique,
    threshold_fraction,
)
from .graph import Graph, sort_cover

logger = logging.getLogger(__name__)

# The price of a probed edge in counted ones. Gathering is C-level set work,
# but each candidate it yields then costs a Python-level test and a set
# intersection, where counting costs one C-level Counter increment per edge
# and one scan step per node. Per-round times fitted on the benchmark graphs
# break even near 2.3; 3 also stops the large probes of low thresholds early.
# Probing pays on hub-heavy graphs at high thresholds: growing the dense
# benchmark graph's seeds by counting from the first round takes about twice
# as long at t = 0.9, and 4-21% longer at t = 0.7, than this rule. Counting
# from the first round is 5-22% faster there at t = 0.5, and 3-15% faster on
# the social mutual graph, whose seeds mostly grow no round.
PROBE_EDGE_COST = 3


@dataclass(frozen=True)
class CaaParams:
    min_clique_size: int = 3
    overlapping_threshold: float = 0.0
    growing_threshold: float = 0.7
    max_rounds: int | None = None  # None = run to fixpoint
    max_cliques: int = DEFAULT_CLIQUE_CAP

    def __post_init__(self):
        if self.min_clique_size < 3:
            raise ValueError("min_clique_size must be >= 3")
        if not 0 <= threshold_fraction(self.overlapping_threshold) <= 1:
            raise ValueError("overlapping_threshold must be in [0, 1]")
        if not 0 < threshold_fraction(self.growing_threshold) <= 1:
            raise ValueError("growing_threshold must be in (0, 1]")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class CaaRunSummary:
    seed_count: int = 0
    rounds_histogram: dict = field(default_factory=dict)


def grow_community_with_rounds(
    g: Graph,
    seed,
    growing_threshold,
    max_rounds: int | None = None,
):
    """Grow a seed clique to fixpoint under the admission ratio rule.

    Each round admits, simultaneously, every non-member neighbor whose edge
    count into the round-start snapshot is at least
    growing_threshold * |snapshot|. Returns (community, rounds_executed).

    An admitted w has need = ceil(t * |C|) neighbours in C, so it is
    adjacent to one of any |C| - need + 1 members (the prefix filter of
    filter_overlapping). A probe round gathers candidates from that many
    lowest-degree members only, drops those of degree below need, and
    counts the rest with one set intersection each. Probing re-reads its
    members every round, while counting edges into C is paid once and then
    updated by the admitted members' edges. So rounds probe while
    PROBE_EDGE_COST times the probe degree sum spent so far is at most the
    degree sum of C, then count to the end.
    """
    adj = g.adjacency
    community = set(seed)
    if not is_clique(g, community):
        raise ValueError("seed is not a clique in the graph")
    t = threshold_fraction(growing_threshold)
    if not 0 < t <= 1:
        raise ValueError(f"growing threshold must be in (0, 1], got {t}")
    num, den = t.numerator, t.denominator

    nbrs = sorted(map(adj.__getitem__, community), key=len)  # members' neighbour sets
    degree_sum = sum(map(len, nbrs))
    spent = 0
    counts = None  # once counting: node -> its edges into C, members included
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        size = len(community)
        need = -(-num * size // den)
        if counts is None:
            probe = nbrs[:size - need + 1]
            spent += sum(map(len, probe))
            if PROBE_EDGE_COST * spent > degree_sum:
                counts = Counter(chain.from_iterable(nbrs))
            else:
                candidates = set().union(*probe)
                candidates -= community
                admitted = [w for w in candidates
                            if len(adj[w]) >= need and len(adj[w] & community) >= need]
        if counts is not None:
            admitted = [v for v, c in counts.items() if c >= need and v not in community]
        if not admitted:
            break
        rounds += 1
        community.update(admitted)
        grown = list(map(adj.__getitem__, admitted))
        if counts is None:
            nbrs += grown
            nbrs.sort(key=len)
            degree_sum += sum(map(len, grown))
        else:
            counts.update(chain.from_iterable(grown))
    return frozenset(community), rounds


def run_caa(
    g: Graph,
    params: CaaParams = CaaParams(),
    summary: CaaRunSummary | None = None,
):
    """Full pipeline: enumerate cliques, filter seeds, grow, dedup, sort."""
    cliques = enumerate_maximal_cliques(g, params.min_clique_size, params.max_cliques)
    seeds = filter_overlapping(cliques, params.overlapping_threshold)
    return grow_seeds(g, seeds.cliques, params, summary)


def grow_seeds(
    g: Graph,
    seeds,
    params: CaaParams = CaaParams(),
    summary: CaaRunSummary | None = None,
):
    """Grow each seed clique under params' growth rule, then dedup and sort.

    Only growing_threshold and max_rounds are read from params; the seeds
    are taken as given, so one filtered seed list serves many thresholds.
    """
    t = threshold_fraction(params.growing_threshold)
    grown = [grow_community_with_rounds(g, seed, t, params.max_rounds) for seed in seeds]

    cover = sort_cover({c for c, _ in grown})
    if summary is not None:
        summary.seed_count = len(grown)
        hist = {}
        for _, rounds in grown:
            hist[rounds] = hist.get(rounds, 0) + 1
        summary.rounds_histogram = dict(sorted(hist.items()))
    logger.info("caa: %d seeds -> %d communities", len(grown), len(cover))
    return cover
