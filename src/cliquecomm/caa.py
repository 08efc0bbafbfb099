"""Clique augmentation: grow filtered seed cliques into overlapping communities."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .cliques import (
    DEFAULT_CLIQUE_CAP,
    enumerate_maximal_cliques,
    filter_overlapping,
    is_clique,
    threshold_fraction,
)
from .graph import Graph, sort_cover


@dataclass(frozen=True)
class CaaParams:
    min_clique_size: int = 3
    overlapping_threshold: float = 0.0
    growing_threshold: float = 0.7
    max_rounds: int | None = None  # None = run to fixpoint
    max_cliques: int = DEFAULT_CLIQUE_CAP

    def __post_init__(self):
        if self.min_clique_size < 3:
            raise ValueError(f"min_clique_size must be >= 3, got {self.min_clique_size}")
        threshold_fraction(self.overlapping_threshold, "overlapping_threshold")
        threshold_fraction(self.growing_threshold, "growing_threshold", above_zero=True)
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")


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
    """
    adj = g.adjacency
    community = set(seed)
    if not is_clique(g, community):
        raise ValueError("seed is not a clique in the graph")
    t = threshold_fraction(growing_threshold, "growing_threshold", above_zero=True)
    num, den = t.numerator, t.denominator

    # node -> its edges into C, members included
    counts = Counter(chain.from_iterable(map(adj.__getitem__, community)))
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        need = -(-num * len(community) // den)
        admitted = [v for v, c in counts.items() if c >= need and v not in community]
        if not admitted:
            break
        rounds += 1
        community.update(admitted)
        counts.update(chain.from_iterable(map(adj.__getitem__, admitted)))
    return frozenset(community), rounds


def run_caa(
    g: Graph,
    params: CaaParams = CaaParams(),
    rounds: list | None = None,
):
    """Full pipeline: enumerate cliques, filter seeds, grow, dedup, sort."""
    cliques = enumerate_maximal_cliques(g, params.min_clique_size, params.max_cliques)
    seeds = filter_overlapping(cliques, params.overlapping_threshold)
    return grow_seeds(g, seeds.cliques, params, rounds)


def grow_seeds(
    g: Graph,
    seeds,
    params: CaaParams = CaaParams(),
    rounds: list | None = None,
):
    """Grow each seed clique under params' growth rule, then dedup and sort.

    Only growing_threshold and max_rounds are read from params; the seeds
    are taken as given, so one filtered seed list serves many thresholds.
    Given a list as rounds, appends each seed's round count in seed order.
    """
    t = threshold_fraction(params.growing_threshold)
    grown = [grow_community_with_rounds(g, seed, t, params.max_rounds) for seed in seeds]
    if rounds is not None:
        rounds.extend(r for _, r in grown)
    return sort_cover({c for c, _ in grown})
