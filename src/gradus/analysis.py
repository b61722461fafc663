"""Melodic skyline, pitch-class profiles and difficulty features.

All three views are computed from the exact integer-tick timeline, never
from re-quantized times.  The skyline takes the highest sounding pitch of each
timeline segment, the profile weights each pitch class by total sounding
duration, and the feature vector summarizes per-hand texture statistics
for the difficulty model.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .score import (
    DURATION_TYPES,
    Measure,
    NoteEvent,
    Pitch,
    TICKS_PER_QUARTER,
    Score,
    TimelineSegment,
    quarter_text,
    timeline,
    type_for_duration,
)

__all__ = [
    "AnalysisError",
    "SkylineNote",
    "skyline",
    "skyline_score",
    "pitch_class_profile",
    "profile_from_skyline",
    "perturb_profile",
    "FEATURE_NAMES",
    "feature_vector",
]


class AnalysisError(Exception):
    pass


# ---------------------------------------------------------------------------
# Skyline

@dataclass(frozen=True)
class SkylineNote:
    """One monophonic melody step: the top sounding pitch, or a rest; in ticks."""

    onset: int
    duration: int
    pitch: Optional[Pitch]

    @property
    def end(self) -> int:
        return self.onset + self.duration


def skyline(score: Score) -> list[SkylineNote]:
    """Monophonic top line of a score.

    Per timeline segment the highest sounding pitch wins; segments with no
    sounding pitch become rests.  Adjacent segments with the same top midi
    number merge into one note, adjacent rests merge into one rest.  A
    score with no pitched notes at all has no melody to extract and is
    rejected.
    """
    return _skyline_of(timeline(score))


def _skyline_of(segs: Sequence[TimelineSegment]) -> list[SkylineNote]:
    """:func:`skyline` of an already computed timeline."""
    if not any(seg.pitches for seg in segs):
        raise AnalysisError("score has no pitched notes, skyline is undefined")
    out: list[SkylineNote] = []
    for seg in segs:
        top = seg.pitches[-1] if seg.pitches else None
        if out and _same_top(out[-1].pitch, top):
            prev = out[-1]
            out[-1] = SkylineNote(prev.onset, seg.end - prev.onset, prev.pitch)
        else:
            out.append(SkylineNote(seg.start, seg.end - seg.start, top))
    return out


def _same_top(a: Optional[Pitch], b: Optional[Pitch]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.midi_number == b.midi_number


def skyline_score(score: Score) -> Score:
    """Re-notate the skyline as a one-voice staff-1 score.

    Measure boundaries, keys, times and clefs are carried over from the
    source.  Notes are split at measure boundaries, and any remaining
    duration that is not notatable as a single value is greedily split into
    notatable pieces (repeating the pitch; tie flags are not synthesized
    because the downstream token models treat repeats and ties alike).
    """
    return _skyline_score_of(score, skyline(score))


def _skyline_score_of(score: Score, notes: Sequence[SkylineNote]) -> Score:
    """:func:`skyline_score` from the already computed ``skyline(score)``."""
    ends = [note.end for note in notes]
    measures: list[Measure] = []
    for src in score.measures:
        events: list[NoteEvent] = []
        # the notes tile the piece in order: start at the first one ending
        # after the measure starts, stop at the first one starting after it
        for i in range(bisect_right(ends, src.start), len(notes)):
            note = notes[i]
            if note.onset >= src.end:
                break
            lo = max(note.onset, src.start)
            hi = min(note.end, src.end)
            if lo >= hi:
                continue
            for onset, dur in _notatable_pieces(lo, hi - lo):
                events.append(NoteEvent(onset=onset, duration=dur, pitch=note.pitch,
                                        voice=1, staff=1, hidden=note.pitch is None))
        measures.append(Measure(
            index=src.index, start=src.start, duration=src.duration,
            events=tuple(events), time_sig=src.time_sig,
            key_fifths=src.key_fifths, clefs=(src.clefs[0], None)))
    return Score(measures=tuple(measures), title=score.title, genre=score.genre,
                 source_id=score.source_id, n_staves=2)


def _notatable_pieces(onset: int, duration: int) -> list[tuple[int, int]]:
    pieces: list[tuple[int, int]] = []
    remaining = duration
    cursor = onset
    while remaining > 0:
        if type_for_duration(remaining) is not None:
            pieces.append((cursor, remaining))
            break
        step = _largest_plain_fit(remaining)
        if step is None:
            raise AnalysisError(f"cannot notate duration {quarter_text(remaining)}")
        pieces.append((cursor, step))
        cursor += step
        remaining -= step
    return pieces


def _largest_plain_fit(duration: int) -> Optional[int]:
    for q in DURATION_TYPES.values():
        if q <= duration:
            return q
    return None


# ---------------------------------------------------------------------------
# Pitch-class profile

def pitch_class_profile(score: Score) -> np.ndarray:
    """Duration-weighted pitch-class histogram, normalized to sum 1.

    Every sounding (pitch class, segment) pair contributes that segment's
    length; a pitch class sounding in two octaves at once still counts
    once per octave-distinct pitch.  Rest time contributes nothing.
    """
    return _profile_of(timeline(score))


def _profile_of(segs: Sequence[TimelineSegment]) -> np.ndarray:
    """:func:`pitch_class_profile` of an already computed timeline."""
    weights = [0] * 12
    for seg in segs:
        length = seg.end - seg.start
        for pitch in seg.pitches:
            weights[pitch.pitch_class] += length
    total = sum(weights)
    if total == 0:
        raise AnalysisError("score has no sounding pitches, profile is undefined")
    return np.array([w / total for w in weights], dtype=np.float64)


def profile_from_skyline(notes: Sequence[SkylineNote]) -> np.ndarray:
    """Profile of a monophonic line (used for generated melodies): the
    :func:`pitch_class_profile` of one segment per note."""
    return _profile_of([TimelineSegment(note.onset, note.end,
                                        () if note.pitch is None else (note.pitch,))
                        for note in notes])


def perturb_profile(profile: np.ndarray, rng: np.random.Generator,
                    noise_scale: float = 0.2) -> np.ndarray:
    """Jitter a profile by per-bin uniform noise, then renormalize.

    Bin ``i`` receives noise drawn uniformly from
    ``[-noise_scale * p_i, +noise_scale * p_i]``, so zero bins stay
    exactly zero and no bin can change sign.  The result is clipped to
    ``[0, 1]`` and rescaled to sum 1.  ``noise_scale=0`` is the identity.
    """
    p = np.asarray(profile, dtype=np.float64)
    if p.shape != (12,):
        raise AnalysisError(f"profile must have shape (12,), got {p.shape}")
    if np.any(p < 0):
        raise AnalysisError("profile has negative mass")
    if not np.isclose(p.sum(), 1.0, atol=1e-9):
        raise AnalysisError(f"profile sums to {p.sum()!r}, expected 1")
    if not 0 <= noise_scale < 1:
        raise AnalysisError("noise_scale must lie in [0, 1)")
    noise = rng.uniform(-noise_scale * p, noise_scale * p)
    jittered = np.clip(p + noise, 0.0, 1.0)
    total = jittered.sum()
    if total <= 0:
        raise AnalysisError("perturbation annihilated the profile")
    return jittered / total


# ---------------------------------------------------------------------------
# Difficulty features

FEATURE_NAMES: tuple[str, ...] = (
    "rh_note_density",
    "lh_note_density",
    "rh_pitch_range",
    "lh_pitch_range",
    "rh_mean_interval",
    "lh_mean_interval",
    "rh_chord_rate",
    "lh_chord_rate",
    "pitch_class_count",
    "max_simultaneity",
    "mean_ioi",
    "hand_span",
)


def feature_vector(score: Score) -> np.ndarray:
    """Twelve texture statistics used by the difficulty model.

    Per hand (staff 1 = right, staff 2 = left): note density in notes per
    quarter, pitch range in semitones, mean absolute melodic interval
    between successive onsets, and the fraction of onsets that carry more
    than one note.  Globally: number of distinct pitch classes, maximum
    simultaneous note count, mean inter-onset interval of the merged onset
    sequence, and the largest within-onset pitch spread on a single staff
    (a hand-span proxy).  Hands with no notes or fewer than two onsets
    contribute zeros to the statistics that need them.
    """
    total = score.total_duration / TICKS_PER_QUARTER
    if total <= 0:
        raise AnalysisError("score has no duration")
    values: list[float] = []
    per_staff_onsets: dict[int, dict[int, list[int]]] = {1: {}, 2: {}}
    for ev in score.notes():
        per_staff_onsets[ev.staff].setdefault(ev.onset, []).append(ev.pitch.midi_number)

    for staff in (1, 2):
        onsets = per_staff_onsets[staff]
        midis = [m for group in onsets.values() for m in group]
        density = len(midis) / total
        p_range = float(max(midis) - min(midis)) if midis else 0.0
        ordered = sorted(onsets)
        tops = [max(onsets[t]) for t in ordered]
        if len(tops) >= 2:
            mean_interval = float(np.mean(np.abs(np.diff(tops))))
        else:
            mean_interval = 0.0
        chord_rate = (sum(1 for t in ordered if len(onsets[t]) > 1) / len(ordered)
                      if ordered else 0.0)
        values.extend([density, p_range, mean_interval, chord_rate])

    # interleave into the documented order: densities, ranges, intervals, rates
    rh, lh = values[:4], values[4:]
    per_hand = [rh[0], lh[0], rh[1], lh[1], rh[2], lh[2], rh[3], lh[3]]

    pcs = {ev.pitch.pitch_class for ev in score.notes()}
    segs = timeline(score)
    max_sim = max((len(seg.pitches) for seg in segs), default=0)
    all_onsets = sorted(set(per_staff_onsets[1]) | set(per_staff_onsets[2]))
    if len(all_onsets) >= 2:
        mean_ioi = float(np.mean(np.diff([t / TICKS_PER_QUARTER for t in all_onsets])))
    else:
        mean_ioi = 0.0
    span = 0.0
    for staff in (1, 2):
        for group in per_staff_onsets[staff].values():
            if len(group) > 1:
                span = max(span, float(max(group) - min(group)))
    return np.array(per_hand + [float(len(pcs)), float(max_sim), mean_ioi, span],
                    dtype=np.float64)
