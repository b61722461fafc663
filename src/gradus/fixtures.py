"""Deterministic synthetic two-staff corpus.

Real score corpora cannot ship with the tests, so this module builds
small melody-plus-accompaniment pieces whose texture is controlled by a
single complexity knob: note density, pitch range, interval size, chord
rate and rhythmic palette all grow with it.  Generation is pure function
of (count, seed), and every produced duration is notatable, so the whole
corpus survives the token codec round trip.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .score import (TICKS_PER_QUARTER, Measure, NoteEvent, Pitch, Score, measure_length,
                    write_musicxml)

__all__ = [
    "GENRES",
    "generate_piece",
    "generate_corpus",
    "write_corpus",
]

GENRES = ("etude", "nocturne", "waltz", "march", "prelude")

_TIME_SIGS = ((4, 4), (3, 4), (2, 4), (6, 8))
_MELODY_CENTER = 72      # C5
_BASS_CENTER = 48        # C3

_QUARTER = TICKS_PER_QUARTER
_EIGHTH = _QUARTER // 2
_SIXTEENTH = _QUARTER // 4
# rhythm palettes in ticks by growing complexity; all values are codec-notatable
_PALETTES = (
    (2 * _QUARTER, _QUARTER),
    (2 * _QUARTER, _QUARTER, _EIGHTH),
    (_QUARTER, _EIGHTH, 3 * _EIGHTH),
    (_QUARTER, _EIGHTH, _SIXTEENTH, 3 * _SIXTEENTH),
)


def generate_corpus(n: int, seed: int = 42) -> list[Score]:
    """``n`` pieces with complexity spread evenly from easy to hard."""
    if n < 1:
        raise ValueError("need at least one piece")
    rng = np.random.default_rng(seed)
    piece_seeds = rng.integers(0, 2 ** 63, size=n)
    scores = []
    for i in range(n):
        complexity = i / (n - 1) if n > 1 else 0.5
        scores.append(generate_piece(
            index=i, complexity=complexity, seed=int(piece_seeds[i])))
    return scores


def generate_piece(index: int, complexity: float, seed: int) -> Score:
    """One piece; ``complexity`` in [0, 1] drives every texture knob."""
    if not 0 <= complexity <= 1:
        raise ValueError("complexity must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    c = complexity
    genre = GENRES[index % len(GENRES)]
    time_sig = _TIME_SIGS[rng.integers(len(_TIME_SIGS))]
    measure_len = measure_length(time_sig)
    key_fifths = int(rng.integers(-3, 5))
    tonic_pc = (key_fifths * 7) % 12
    n_measures = int(rng.integers(4, 9))
    span = int(round(5 + 9 * c))          # melody half-range in semitones
    palette = _PALETTES[min(len(_PALETTES) - 1, int(c * len(_PALETTES)))]

    melody_midi = _MELODY_CENTER + int(rng.integers(-3, 4))
    root_degrees = (0, 5, 7, 5)           # tonic, subdominant, dominant cycle
    measures: list[Measure] = []
    start = 0
    pending_tie: Optional[int] = None     # midi carried across the barline
    for m in range(n_measures):
        events: list[NoteEvent] = []
        root_pc = (tonic_pc + root_degrees[m % len(root_degrees)]) % 12
        root_midi = _BASS_CENTER + ((root_pc - _BASS_CENTER) % 12)
        if root_midi > _BASS_CENTER + 6:
            root_midi -= 12
        melody_midi, pending_tie = _fill_melody(
            events, rng, start, measure_len, melody_midi, span, palette, c,
            pending_tie, last_measure=(m == n_measures - 1))
        _fill_accompaniment(events, rng, start, measure_len, root_midi, c)
        measures.append(Measure(
            index=m, start=start, duration=measure_len, events=tuple(events),
            time_sig=time_sig if m == 0 else None,
            key_fifths=key_fifths if m == 0 else None,
            clefs=("G2", "F4") if m == 0 else (None, None)))
        start += measure_len
    return Score(
        measures=tuple(measures), title=f"{genre.title()} No. {index + 1}",
        genre=genre, source_id=f"piece{index:03d}", n_staves=2)


def _fill_melody(events: list[NoteEvent], rng: np.random.Generator,
                 start: int, measure_len: int, midi: int, span: int,
                 palette: Sequence[int], c: float,
                 pending_tie: Optional[int], last_measure: bool,
                 ) -> tuple[int, Optional[int]]:
    """Fill staff 1 voice 1 exactly; returns (last midi, tie into next measure)."""
    pos = 0
    first = True
    tie_out: Optional[int] = None
    while pos < measure_len:
        remaining = measure_len - pos
        if first and pending_tie is not None:
            # resolve the barline tie started by the previous measure
            dur = _pick_duration(rng, palette, remaining)
            events.append(NoteEvent(
                onset=start + pos, duration=dur, pitch=Pitch.from_midi(pending_tie),
                voice=1, staff=1, tie_stop=True))
            midi = pending_tie
            pos += dur
            first = False
            continue
        first = False
        if c > 0.55 and remaining >= _QUARTER and rng.random() < 0.15 * c:
            midi = _triplet_group(events, rng, start + pos, midi, span)
            pos += _QUARTER
            continue
        dur = _pick_duration(rng, palette, remaining)
        if rng.random() < 0.07:
            events.append(NoteEvent(onset=start + pos, duration=dur, pitch=None,
                                    voice=1, staff=1))
            pos += dur
            continue
        midi = _melody_step(rng, midi, span, c)
        if c > 0.5 and rng.random() < 0.05 * c:
            grace_midi = _clamp_midi(midi + int(rng.choice((-2, -1, 1, 2))))
            events.append(NoteEvent(
                onset=start + pos, duration=_EIGHTH,
                pitch=Pitch.from_midi(grace_midi), voice=1, staff=1, grace=True))
        is_last = pos + dur >= measure_len
        tie_start = False
        if is_last and not last_measure and rng.random() < 0.12 * c:
            tie_start = True
            tie_out = midi
        events.append(NoteEvent(
            onset=start + pos, duration=dur, pitch=Pitch.from_midi(midi),
            voice=1, staff=1, tie_start=tie_start))
        if rng.random() < 0.30 * c:
            offset = int(rng.choice((-3, -4, -8, -9))) if c > 0.7 else int(rng.choice((-3, -4)))
            events.append(NoteEvent(
                onset=start + pos, duration=dur,
                pitch=Pitch.from_midi(_clamp_midi(midi + offset)),
                voice=1, staff=1, chord=True))
        pos += dur
    return midi, tie_out


def _pick_duration(rng: np.random.Generator, palette: Sequence[int],
                   remaining: int) -> int:
    fits = [d for d in palette if d <= remaining]
    if not fits:
        return min(remaining, _SIXTEENTH)
    return fits[int(rng.integers(len(fits)))]


def _triplet_group(events: list[NoteEvent], rng: np.random.Generator,
                   onset: int, midi: int, span: int) -> int:
    third = _QUARTER // 3
    for k in range(3):
        midi = _melody_step(rng, midi, span, 1.0)
        events.append(NoteEvent(onset=onset + k * third, duration=third,
                                pitch=Pitch.from_midi(midi), voice=1, staff=1))
    return midi


def _melody_step(rng: np.random.Generator, midi: int, span: int, c: float) -> int:
    easy_steps = (-2, -1, 1, 2)
    hard_steps = (-12, -7, -5, -4, -3, 3, 4, 5, 7, 12)
    if rng.random() < 0.25 + 0.55 * c:
        step = int(rng.choice(hard_steps)) if rng.random() < c else int(rng.choice(easy_steps))
    else:
        step = int(rng.choice(easy_steps))
    nxt = midi + step
    lo, hi = _MELODY_CENTER - span, _MELODY_CENTER + span
    if nxt < lo or nxt > hi:
        nxt = midi - step
    return _clamp_midi(min(max(nxt, lo), hi))


def _clamp_midi(midi: int) -> int:
    return min(max(midi, 21), 108)


def _fill_accompaniment(events: list[NoteEvent], rng: np.random.Generator,
                        start: int, measure_len: int,
                        root_midi: int, c: float) -> None:
    """Fill staff 2 voice 2 exactly with one of three patterns."""
    r = rng.random()
    if r < max(0.1, 0.8 - c):
        pattern = "block"
    elif r < 0.85 - 0.3 * c:
        pattern = "split"
    else:
        pattern = "arpeggio"
    chord = (0, 7) if c < 0.4 else (0, 4, 7)
    if pattern == "block":
        _bass_chord(events, start, measure_len, root_midi, chord)
    elif pattern == "split":
        half = measure_len // 2
        _bass_chord(events, start, half, root_midi, chord)
        _bass_chord(events, start + half, half, root_midi, chord)
    else:
        shape = (0, 7, 4, 7)
        for k in range(measure_len // _EIGHTH):
            interval = shape[k % len(shape)]
            events.append(NoteEvent(
                onset=start + k * _EIGHTH, duration=_EIGHTH,
                pitch=Pitch.from_midi(_clamp_midi(root_midi + interval)),
                voice=2, staff=2))


def _bass_chord(events: list[NoteEvent], onset: int, duration: int,
                root_midi: int, intervals: Sequence[int]) -> None:
    for k, interval in enumerate(intervals):
        events.append(NoteEvent(
            onset=onset, duration=duration,
            pitch=Pitch.from_midi(_clamp_midi(root_midi + interval)),
            voice=2, staff=2, chord=(k > 0)))


def write_corpus(directory: str, scores: Sequence[Score]) -> list[Path]:
    """One ``.musicxml`` file per piece, named by source id."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for score in scores:
        if not score.source_id:
            raise ValueError("corpus scores need source ids")
        path = out_dir / f"{score.source_id}.musicxml"
        write_musicxml(score, str(path))
        paths.append(path)
    return paths
