"""Mining difficulty-ordered variation pairs for simplification training.

Given several generated variations of each piece, each with a predicted
difficulty level, a confidence and a style embedding, this module
enumerates (harder, easier) pairs whose level gap is at least a minimum,
optionally after dropping the least confident quarter of all variations
and keeping only the most stylistically similar half of each piece's
pairs.  The filtered strategy therefore always yields a subset of the
random strategy's pairs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import interchange
from .gnb import confidence_filter
from .style import cosine_similarity

__all__ = [
    "MiningError",
    "Variation",
    "Pair",
    "MiningReport",
    "STRATEGIES",
    "enumerate_pairs",
    "mine",
    "save_pairs",
    "load_pairs",
    "save_report",
    "load_report",
]


class MiningError(Exception):
    pass


STRATEGIES = ("random", "filtered")

SIMILARITY_KEEP_FRACTION = 0.5


@dataclass(frozen=True)
class Variation:
    """One generated variation: its id, source piece and model outputs."""

    id: str
    piece: str
    level: int
    confidence: float
    embedding: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.level <= 9:
            raise MiningError(f"variation {self.id}: level {self.level} outside 1..9")
        if not 0 <= self.confidence <= 1:
            raise MiningError(f"variation {self.id}: confidence {self.confidence}"
                              " outside [0, 1]")


@dataclass(frozen=True)
class Pair:
    """A training pair oriented from the harder to the easier variation."""

    piece: str
    hard: str
    easy: str
    hard_level: int
    easy_level: int
    gap: int
    sim: float


@dataclass(frozen=True)
class MiningReport:
    strategy: str
    min_gap: int
    counts: dict[str, int] = field(default_factory=dict)
    mean_distance: float = float("nan")
    mean_distance_by_gap: dict[int, float] = field(default_factory=dict)


def enumerate_pairs(levels: Sequence[int], min_gap: int = 1) -> list[tuple[int, int]]:
    """All index pairs ``(harder, easier)`` with a level gap of at least ``min_gap``.

    Pairs are ordered by (harder index, easier index).  A pair never
    relates an item to itself, and equal levels never pair (the gap is
    strictly positive whenever ``min_gap >= 1``).
    """
    if min_gap < 1:
        raise MiningError("min_gap must be at least 1")
    pairs = []
    for i, hi in enumerate(levels):
        for j, lo in enumerate(levels):
            if hi - lo >= min_gap:
                pairs.append((i, j))
    return pairs


def mine(variations: Sequence[Variation], strategy: str = "filtered",
         min_gap: int = 1) -> tuple[list[Pair], MiningReport]:
    """Mine training pairs from a pool of variations, one pass per piece.

    ``random`` keeps every in-piece pair meeting the gap.  ``filtered``
    first drops the least confident quarter of all variations (a single
    global cut), then keeps, per piece, the most similar half of the pairs
    left, rounding up; ties on similarity keep the pair enumerated first.
    Only the pairs left after the confidence cut are built and scored.
    """
    if strategy not in STRATEGIES:
        raise MiningError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    ids = [v.id for v in variations]
    if len(set(ids)) != len(ids):
        raise MiningError("variation ids must be unique")

    survivors = set(ids) if strategy == "random" else {
        ids[i] for i in confidence_filter([v.confidence for v in variations])}
    by_piece: dict[str, list[Variation]] = {}
    for v in variations:
        by_piece.setdefault(v.piece, []).append(v)
    counts = dict.fromkeys(("raw", "after_confidence", "after_similarity"), 0)
    kept: list[Pair] = []
    for piece in sorted(by_piece):
        group = by_piece[piece]
        raw = enumerate_pairs([v.level for v in group], min_gap)
        pairs = []
        for i, j in raw:
            hard, easy = group[i], group[j]
            if hard.id in survivors and easy.id in survivors:
                pairs.append(Pair(
                    piece=piece, hard=hard.id, easy=easy.id,
                    hard_level=hard.level, easy_level=easy.level,
                    gap=hard.level - easy.level,
                    sim=cosine_similarity(hard.embedding, easy.embedding)))
        counts["raw"] += len(raw)
        counts["after_confidence"] += len(pairs)
        if strategy == "filtered":
            n_keep = int(np.ceil(SIMILARITY_KEEP_FRACTION * len(pairs)))
            # a stable sort, so of tied pairs the earlier one ranks first
            ranked = sorted(range(len(pairs)), key=lambda k: -pairs[k].sim)
            pairs = [pairs[k] for k in sorted(ranked[:n_keep])]
        counts["after_similarity"] += len(pairs)
        kept.extend(pairs)

    report = MiningReport(
        strategy=strategy, min_gap=min_gap, counts=counts,
        mean_distance=_mean_distance(kept),
        mean_distance_by_gap={
            g: _mean_distance([p for p in kept if p.gap == g])
            for g in sorted({p.gap for p in kept})},
    )
    return kept, report


def _mean_distance(pairs: Sequence[Pair]) -> float:
    if not pairs:
        return float("nan")
    return float(np.mean([1.0 - p.sim for p in pairs]))


# ---------------------------------------------------------------------------
# Interchange format

def save_pairs(path: str, pairs: Sequence[Pair]) -> None:
    """One JSON object per line, sorted by (piece, hard, easy)."""
    ordered = sorted(pairs, key=lambda p: (p.piece, p.hard, p.easy))
    interchange.write_jsonl(path, map(vars, ordered))


def load_pairs(path: str) -> list[Pair]:
    names = tuple(Pair.__dataclass_fields__)
    values = operator.itemgetter(*names)
    return [Pair(*values(rec)) for _, rec in interchange.read_jsonl(path, MiningError, *names)]


def save_report(path: str, report: MiningReport) -> None:
    interchange.write_json(path, {
        "strategy": report.strategy,
        "min_gap": report.min_gap,
        "counts": report.counts,
        "mean_distance": None if np.isnan(report.mean_distance) else report.mean_distance,
        "mean_distance_by_gap": {str(g): d for g, d in report.mean_distance_by_gap.items()},
    })


def load_report(path: str) -> MiningReport:
    """The report :func:`save_report` wrote; fields are checked, never coerced."""
    payload = interchange.check(path, interchange.read_json(path, MiningError), MiningError,
                                "strategy", "min_gap", "counts", "mean_distance_by_gap")
    md = payload.get("mean_distance")
    return MiningReport(
        strategy=payload["strategy"], min_gap=payload["min_gap"], counts=payload["counts"],
        mean_distance=float("nan") if md is None else float(md),
        mean_distance_by_gap={int(g): float(d)
                              for g, d in payload["mean_distance_by_gap"].items()},
    )
