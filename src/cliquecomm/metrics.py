"""Evaluation suite over (graph, cover): sizes, coverage, extended modularity, TPR."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import Graph, check_members

# Half-open at infinity only; each band is (lo, hi) inclusive, hi=None for open.
DEFAULT_BANDS = ((1, 3), (4, 9), (10, 150), (151, None))
# Community sizes (lo, hi), inclusive, whose members count as covered.
COVERAGE_RANGE = (4, 150)


def validate_bands(bands) -> tuple:
    bands = tuple((int(lo), None if hi is None else int(hi)) for lo, hi in bands)
    if not bands or bands[0][0] != 1 or bands[-1][1] is not None:
        raise ValueError("bands must start at 1 and end with an open range")
    for lo, hi in bands:
        if hi is not None and hi < lo:
            raise ValueError(f"band {band_label((lo, hi))} ends below its start")
    for (lo, hi), (nlo, _) in zip(bands, bands[1:]):
        if hi is None or nlo != hi + 1:
            raise ValueError(f"bands must be contiguous, got gap after [{lo},{hi}]")
    return bands


def band_label(band) -> str:
    lo, hi = band
    return f"{lo}+" if hi is None else f"{lo}-{hi}"


def parse_bands(text: str) -> tuple:
    """Validated bands from comma-separated labels, the inverse of band_label."""
    bands = []
    for part in map(str.strip, text.split(",")):
        try:
            lo, hi = (part[:-1], None) if part.endswith("+") else part.split("-")
            bands.append((int(lo), None if hi is None else int(hi)))
        except ValueError:
            raise ValueError(f"malformed band {part!r}: expected LO-HI or LO+") from None
    return validate_bands(bands)


def band_of(size: int, bands) -> tuple:
    for lo, hi in bands:
        if size >= lo and (hi is None or size <= hi):
            return (lo, hi)
    raise ValueError(f"no band for size {size}")


def _labels(cover, bands) -> list:
    return [band_label(band_of(len(c), bands)) for c in cover]


def _band_sums(labels, values, bands, zero=0) -> dict:
    """Per-band sums of values, every band present, added in cover order."""
    sums = {band_label(b): zero for b in bands}
    for label, value in zip(labels, values):
        sums[label] += value
    return sums


def _band_ratios(num: dict, den: dict) -> dict:
    return {label: (num[label] / d if d else None) for label, d in den.items()}


def size_histogram(cover, bands=DEFAULT_BANDS):
    """Community counts per size band, plus the percentage form."""
    bands = validate_bands(bands)
    counts = _band_sums(_labels(cover, bands), [1] * len(cover), bands)
    total = len(cover)
    pct = {
        label: (100.0 * cnt / total if total else 0.0)
        for label, cnt in counts.items()
    }
    return counts, pct


def desirable_coverage(g: Graph, cover, lo=COVERAGE_RANGE[0], hi=COVERAGE_RANGE[1]) -> float:
    """Fraction of all graph nodes in at least one community of size [lo, hi]."""
    if lo > hi:
        raise ValueError(f"lo must be <= hi, got [{lo}, {hi}]")
    covered = set()
    for c in cover:
        check_members(g, c)
        if lo <= len(c) <= hi:
            covered.update(c)
    return len(covered) / g.n if g.n else 0.0


def extended_modularity(g: Graph, cover, bands=DEFAULT_BANDS):
    """Overlap-aware modularity with per-community and per-band contributions.

    For each community the contribution sums, over ordered member pairs
    (v, w), (A_vw - k_v*k_w/2m) / (O_v*O_w), divided by 2m; O_v counts the
    communities of v across the whole cover, degrees and m come from the
    whole graph. With a disjoint cover this reduces to classical modularity.
    An empty cover scores 0.0 on any graph.
    """
    bands = validate_bands(bands)
    two_m = 2.0 * g.m
    if cover and not two_m:
        raise ValueError("extended modularity is undefined on an edgeless graph")
    memberships = [0] * g.n  # O_v: how many communities contain v
    for c in cover:
        check_members(g, c)
        for v in c:
            memberships[v] += 1

    adjacency = g.adjacency
    inverse = [1.0 / k if k else 0.0 for k in memberships]  # 1 / O_v
    per_community = []
    for c in cover:
        # fsum rounds once, so no sum depends on set iteration order.
        # deg_term sums k_v / O_v over members; squared it gives the pair sum.
        deg_term = math.fsum([len(adjacency[v]) * inverse[v] for v in c])
        adj_term = math.fsum([
            inverse[v] * math.fsum(map(inverse.__getitem__, adjacency[v] & c)) for v in c
        ])
        per_community.append((adj_term - deg_term * deg_term / two_m) / two_m)
    eq_by_band = _band_sums(_labels(cover, bands), per_community, bands, 0.0)
    return sum(per_community, 0.0), eq_by_band, per_community


def triangle_participants(g: Graph, c) -> set:
    """Members of c lying in at least one triangle internal to c."""
    check_members(g, c)
    adjacency = g.adjacency
    in_triangle = set()
    for v in c:
        if v in in_triangle:
            continue
        nbrs = adjacency[v] & c
        for w in nbrs:
            common = nbrs & adjacency[w]
            if common:
                in_triangle.add(v)
                in_triangle.add(w)
                in_triangle.update(common)
                break
    return in_triangle


def triangle_participation_ratio(g: Graph, c) -> float:
    """Fraction of c's members in at least one triangle inside the community."""
    if not c:
        return 0.0
    return len(triangle_participants(g, c)) / len(c)


@dataclass
class MetricsReport:
    community_count: int
    largest_community_size: int
    histogram: dict
    histogram_pct: dict
    coverage: float
    eq_total: float
    eq_by_band: dict
    tpr_mean_by_band: dict
    tpr_micro_by_band: dict
    per_community: list = field(default_factory=list)  # (size, tpr, eq_contribution)


def evaluate(
    g: Graph,
    cover,
    bands=DEFAULT_BANDS,
    coverage_lo: int = COVERAGE_RANGE[0],
    coverage_hi: int = COVERAGE_RANGE[1],
) -> MetricsReport:
    """Assemble the full per-cover report."""
    bands = validate_bands(bands)
    counts, pct = size_histogram(cover, bands)
    eq_total, eq_by_band, contributions = extended_modularity(g, cover, bands)

    labels = _labels(cover, bands)
    sizes = [len(c) for c in cover]
    participants = [len(triangle_participants(g, c)) for c in cover]
    tprs = [p / size for p, size in zip(participants, sizes)]
    tpr_sums = _band_sums(labels, tprs, bands, 0.0)
    tpr_nodes = _band_sums(labels, sizes, bands)
    tpr_participants = _band_sums(labels, participants, bands)
    return MetricsReport(
        community_count=len(cover),
        largest_community_size=max(sizes, default=0),
        histogram=counts,
        histogram_pct=pct,
        coverage=desirable_coverage(g, cover, coverage_lo, coverage_hi),
        eq_total=eq_total,
        eq_by_band=eq_by_band,
        tpr_mean_by_band=_band_ratios(tpr_sums, counts),
        tpr_micro_by_band=_band_ratios(tpr_participants, tpr_nodes),
        per_community=list(zip(sizes, tprs, contributions)),
    )
