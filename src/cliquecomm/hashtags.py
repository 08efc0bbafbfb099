"""Hashtag ingestion and community theming.

The per-community scores (mean pairwise top-k Jaccard, top-tag penetration)
are quantitative stand-ins defined by this artifact for eyeballing whether a
community shares a theme; they are not standard metrics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .errors import EdgeListParseError
from .graph import open_utf8

HashtagTable = dict  # external-node-id -> {normalized tag -> count}
USER_TOP_K = 10  # tags per member in the pairwise Jaccard
COMMUNITY_TOP_K = 20  # aggregate tags reported per community


def normalize_tag(tag: str, preserve_case: bool = False) -> str:
    """Strip the leading '#' and (by default) fold case."""
    if tag.startswith("#"):
        tag = tag[1:]
    return tag if preserve_case else tag.lower()


def load_hashtags(path, preserve_case: bool = False, users=None) -> HashtagTable:
    """Read a user<TAB>hashtag<TAB>count file.

    '//' starts a comment line ('#' can't, hashtags begin with it). Duplicate
    (user, tag) records sum their counts. Every line is checked, but when
    users is given only the records of users in it are kept.
    """
    table = {}
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("//"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise EdgeListParseError(
                    path, lineno, f"expected 3 tab-separated fields, got {len(parts)}"
                )
            user, tag, count_str = parts
            if not user or tag in ("", "#"):  # "#" alone normalizes to ""
                raise EdgeListParseError(path, lineno, "empty user or hashtag")
            try:
                count = int(count_str)
            except ValueError:
                raise EdgeListParseError(
                    path, lineno, f"bad count {count_str!r}"
                ) from None
            if count < 0:
                raise EdgeListParseError(path, lineno, f"negative count {count}")
            if count == 0 or (users is not None and user not in users):
                continue
            tag = normalize_tag(tag, preserve_case)
            user_tags = table.setdefault(user, {})
            user_tags[tag] = user_tags.get(tag, 0) + count
    return table


def _ranked(counts: dict) -> list:
    """(tag, count) pairs by descending count, ties broken lexicographically."""
    return sorted(counts.items(), key=lambda tc: (-tc[1], tc[0]))


def user_top_k(table: HashtagTable, user: str, k: int = USER_TOP_K) -> list:
    """Top-k (tag, count) for one user, ties broken lexicographically."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _ranked(table.get(user, {}))[:k]


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


@dataclass
class ThemeEntry:
    size: int
    member_ids: list
    top_tags: list  # (tag, aggregate count), top-K
    mean_pairwise_jaccard: float | None
    top_tag_penetration: float | None
    members_with_data: int
    members_missing_data: int


def community_theme(
    ids,
    c,
    table: HashtagTable,
    k: int = USER_TOP_K,
    top_k_community: int = COMMUNITY_TOP_K,
) -> ThemeEntry:
    """Aggregate member hashtag counts and score theme concentration. c
    holds indices into ids, a graph's sorted id list.

    Jaccard pairs and penetration are computed over members with hashtag
    data only; the missing-data count is reported alongside.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if top_k_community < 1:
        raise ValueError(f"top_k_community must be >= 1, got {top_k_community}")
    member_ids = [ids[v] for v in sorted(c)]
    tagged = [uid for uid in member_ids if table.get(uid)]
    aggregate = {}
    for uid in tagged:
        for tag, count in table[uid].items():
            aggregate[tag] = aggregate.get(tag, 0) + count
    top_tags = _ranked(aggregate)[:top_k_community]
    top_sets = [{tag for tag, _ in user_top_k(table, uid, k)} for uid in tagged]

    n = len(top_sets)
    mean_jaccard = penetration = None
    if n >= 2:
        total = 0.0  # summed in pair order, not by sum(), whose rounding varies
        for a, b in combinations(top_sets, 2):
            total += jaccard(a, b)
        mean_jaccard = total / (n * (n - 1) // 2)
    if top_sets:  # then some member has a tag, so top_tags is not empty
        penetration = sum(top_tags[0][0] in s for s in top_sets) / n

    return ThemeEntry(
        size=len(c),
        member_ids=member_ids,
        top_tags=top_tags,
        mean_pairwise_jaccard=mean_jaccard,
        top_tag_penetration=penetration,
        members_with_data=n,
        members_missing_data=len(member_ids) - n,
    )


def sample_communities(cover, size_lo: int, size_hi: int, count: int, rng_seed: int):
    """Uniform sample without replacement among communities sized in range.

    Returns all qualifying communities (in cover order) when fewer than
    count qualify.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if size_lo > size_hi:
        raise ValueError(f"size range [{size_lo}, {size_hi}] is empty: size_lo is above size_hi")
    qualifying = [c for c in cover if size_lo <= len(c) <= size_hi]
    if len(qualifying) <= count:
        return list(qualifying)
    rng = random.Random(rng_seed)
    picked = set(rng.sample(range(len(qualifying)), count))
    return [c for i, c in enumerate(qualifying) if i in picked]
