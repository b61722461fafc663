"""Style embeddings and cosine similarity between pieces.

The baseline embedding is a fixed 64-dimensional handcrafted vector built
from three normalized blocks: the pitch-class profile, a hashed histogram
of melodic bigrams, and octave-invariant rhythm and texture statistics.
It exists so that the pair-mining stage has a deterministic, dependency-free
notion of "stylistically similar"; richer embeddings can be swapped in
through the same JSONL interchange format.
"""

from __future__ import annotations

import zlib
from typing import Optional, Sequence

import numpy as np

from . import interchange
from .analysis import SkylineNote, _profile_of, _skyline_of
from .score import TICKS_PER_QUARTER, Score, TimelineSegment, timeline

__all__ = [
    "StyleError",
    "EMBEDDING_DIM",
    "cosine_similarity",
    "style_distance",
    "baseline_embed",
    "save_embeddings",
    "load_embeddings",
]


class StyleError(Exception):
    pass


EMBEDDING_DIM = 64
_BIGRAM_BINS = 40


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two embeddings.

    Both vectors must share one dimension and have nonzero norm; a zero
    embedding carries no direction and is rejected rather than silently
    mapped to similarity 0.
    """
    va = np.asarray(a, dtype=np.float64).ravel()
    vb = np.asarray(b, dtype=np.float64).ravel()
    if va.shape != vb.shape:
        raise StyleError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0 or nb == 0:
        raise StyleError("cannot take cosine with a zero vector")
    return float(np.dot(va, vb) / (na * nb))


def style_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``1 - cosine_similarity``, and never below 0, where a cosine that
    rounds above 1 would put it; 0 means identical direction, and equal
    embeddings, whose cosine may round below 1, are exactly 0 apart."""
    if np.array_equal(a, b) and np.any(a):
        return 0.0
    return max(0.0, 1.0 - cosine_similarity(a, b))


def baseline_embed(score: Score) -> np.ndarray:
    """Deterministic 64-dimensional style vector.

    Layout: 12 pitch-class profile bins, 40 hashed melodic-bigram counts,
    12 rhythm and texture statistics.  Each block is L2-normalized before
    concatenation, so every block contributes equal weight and the full
    vector has norm ``sqrt(3)`` before the final normalization.  Because
    the bigram hash uses pitch-class intervals and the statistics ignore
    octave, transposing a piece by whole octaves leaves the vector
    unchanged.
    """
    segs = timeline(score)
    profile = _profile_of(segs)
    line = _skyline_of(segs)
    bigrams = _bigram_block(line)
    stats = _stat_block(score, segs, line, profile)
    blocks = []
    for block in (profile, bigrams, stats):
        norm = np.linalg.norm(block)
        blocks.append(block / norm if norm > 0 else block)
    v = np.concatenate(blocks)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise StyleError("embedding degenerated to zero")
    return v / norm


def _bigram_block(line: Sequence[SkylineNote]) -> np.ndarray:
    """Hashed counts of (pitch-class interval, duration ratio sign) bigrams."""
    counts = np.zeros(_BIGRAM_BINS, dtype=np.float64)
    notes = [n for n in line if n.pitch is not None]
    for a, b in zip(notes, notes[1:]):
        interval = (b.pitch.midi_number - a.pitch.midi_number) % 12
        if b.duration > a.duration:
            shape = "longer"
        elif b.duration < a.duration:
            shape = "shorter"
        else:
            shape = "equal"
        key = f"{interval}:{shape}".encode()
        counts[zlib.crc32(key) % _BIGRAM_BINS] += 1.0
    return counts


def _stat_block(score: Score, segs: Sequence[TimelineSegment],
                line: Sequence[SkylineNote], profile: np.ndarray) -> np.ndarray:
    """Octave-invariant rhythm and texture statistics."""
    total = score.total_duration / TICKS_PER_QUARTER
    durations = [n.duration / TICKS_PER_QUARTER for n in line if n.pitch is not None]
    sizes = [len(seg.pitches) for seg in segs]
    sounding = sum((seg.end - seg.start) / TICKS_PER_QUARTER for seg in segs if seg.pitches)
    onsets = sorted({ev.onset / TICKS_PER_QUARTER for ev in score.notes()})
    iois = np.diff(onsets) if len(onsets) >= 2 else np.array([0.0])
    nz = profile[profile > 0]
    entropy = float(-(nz * np.log(nz)).sum())
    stats = np.array([
        np.mean(durations) if durations else 0.0,
        np.std(durations) if durations else 0.0,
        min(durations) if durations else 0.0,
        max(durations) if durations else 0.0,
        float(np.mean(sizes)),
        float(max(sizes)),
        sounding / total if total > 0 else 0.0,
        float(np.mean(iois)),
        float(np.std(iois)),
        entropy,
        len(durations) / total if total > 0 else 0.0,
        float(len({round(d, 9) for d in durations})),
    ], dtype=np.float64)
    return stats


# ---------------------------------------------------------------------------
# Interchange format

def save_embeddings(path: str, embeddings: dict[str, np.ndarray]) -> None:
    """Write one JSON object per line: ``{"id", "dim", "v"}``."""
    dims = {v.shape for v in embeddings.values()}
    if len(dims) > 1:
        raise StyleError(f"inconsistent embedding shapes: {sorted(dims)}")
    vectors = {key: np.asarray(v, dtype=np.float64).ravel() for key, v in embeddings.items()}
    interchange.write_jsonl(path, ({"id": key, "dim": v.size, "v": v.tolist()}
                                   for key, v in vectors.items()))


def load_embeddings(path: str) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    dim: Optional[int] = None
    for where, rec in interchange.read_jsonl(path, StyleError, "id", "dim", "v"):
        key, v = rec["id"], np.array(rec["v"], dtype=np.float64)
        if v.size == 0:
            raise StyleError(f"{where}: 'v' of {key!r} is empty")
        if not np.linalg.norm(v):
            raise StyleError(f"{where}: 'v' of {key!r} has zero norm")
        if rec["dim"] != v.size:
            raise StyleError(f"{where}: dim {rec['dim']} does not "
                             f"match vector length {v.size}")
        if dim is None:
            dim = v.size
        elif v.size != dim:
            raise StyleError(f"{where}: mixed dimensions {dim} and {v.size}")
        if key in out:
            raise StyleError(f"{where}: duplicate id {key!r}")
        out[key] = v
    return out
