"""Scoring generated variations against their originals.

Each generated variation yields one :class:`OutcomeRecord`: did the
difficulty model judge it easier, similar or harder than the original
piece, and how far is it from the original in embedding space.  Records
aggregate into one report row per mining strategy and gap, rendered as CSV
or Markdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import interchange

__all__ = [
    "ReportError",
    "OUTCOMES",
    "classify_outcome",
    "OutcomeRecord",
    "ReportRow",
    "aggregate",
    "render_report",
    "save_records",
]


class ReportError(Exception):
    pass


OUTCOMES = ("easier", "similar", "harder")


def classify_outcome(original_level: int, predicted_level: int) -> str:
    """Three-way comparison of a variation's level against its original."""
    for level in (original_level, predicted_level):
        if not 1 <= level <= 9:
            raise ReportError(f"level {level} outside 1..9")
    if predicted_level < original_level:
        return "easier"
    if predicted_level > original_level:
        return "harder"
    return "similar"


@dataclass(frozen=True)
class OutcomeRecord:
    """One variation's outcome, derived from its two levels by :func:`classify_outcome`."""

    piece: str
    variation: str
    original_level: int
    predicted_level: int
    outcome: str = field(init=False)
    distance: float
    genre: str = ""
    strategy: str = ""
    gap: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcome",
                           classify_outcome(self.original_level, self.predicted_level))


@dataclass(frozen=True)
class ReportRow:
    strategy: str
    gap: int
    easier_pct: float
    similar_pct: float
    harder_pct: float
    mean_distance: float
    count: int


def aggregate(records: Sequence[OutcomeRecord]) -> list[ReportRow]:
    """One row per observed (strategy, gap), sorted on their text.

    Outcome percentages are allocated in tenths of a percent by largest
    remainder, so each row's three percentages sum to exactly 100.0 even
    after rounding.  Groups with no records simply do not appear.
    """
    if not records:
        raise ReportError("cannot aggregate zero records")
    groups: dict[tuple[str, int], list[OutcomeRecord]] = {}
    for rec in records:
        groups.setdefault((rec.strategy, rec.gap), []).append(rec)
    rows = []
    for strategy, gap in sorted(groups, key=lambda k: (k[0], str(k[1]))):
        recs = groups[(strategy, gap)]
        counts = {o: sum(1 for r in recs if r.outcome == o) for o in OUTCOMES}
        pcts = _largest_remainder([counts[o] / len(recs) * 100.0 for o in OUTCOMES])
        rows.append(ReportRow(
            strategy=strategy, gap=gap,
            easier_pct=pcts[0], similar_pct=pcts[1], harder_pct=pcts[2],
            mean_distance=float(np.mean([r.distance for r in recs])),
            count=len(recs)))
    return rows


def _largest_remainder(percentages: Sequence[float]) -> list[float]:
    """Round to one decimal so the total stays exactly 100.0."""
    scaled = [p * 10.0 for p in percentages]
    floors = [int(np.floor(s)) for s in scaled]
    shortfall = 1000 - sum(floors)
    remainders = sorted(range(len(scaled)),
                        key=lambda i: (floors[i] - scaled[i], i))
    out = list(floors)
    for i in remainders[:shortfall]:
        out[i] += 1
    return [v / 10.0 for v in out]


def render_report(rows: Sequence[ReportRow], format: str = "csv") -> str:
    """CSV or Markdown with columns strategy, gap, ↓, ∼, ↑, distance."""
    if format not in ("csv", "markdown"):
        raise ReportError(f"unknown format {format!r}")
    header = ["strategy", "gap", "↓", "∼", "↑", "distance"]
    body = [[row.strategy, str(row.gap), f"{row.easier_pct:.1f}", f"{row.similar_pct:.1f}",
             f"{row.harder_pct:.1f}", f"{row.mean_distance:.3f}"] for row in rows]
    if format == "csv":
        lines = [",".join(header)] + [",".join(cells) for cells in body]
        return "\n".join(lines) + "\n"
    widths = [max(len(cell) for cell in column) for column in zip(header, *body)]
    def fmt(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    lines = [fmt(header),
             "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    lines.extend(fmt(cells) for cells in body)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Interchange format

def save_records(path: str, records: Iterable[OutcomeRecord]) -> None:
    interchange.write_jsonl(path, (dict(sorted(vars(rec).items())) for rec in records))
