"""Shared fixtures: a reference two-measure piece and small corpora."""

import pytest

from gradus import fixtures
from gradus.score import TICKS_PER_QUARTER as Q
from gradus.score import Measure, NoteEvent, Pitch, Score


def build_reference_piece() -> Score:
    """Two 4/4 measures: a treble melody over sustained bass whole notes.

    Measure 1: C5 E5 G5 (quarter, quarter, half) over C3; measure 2: D5
    whole over G3.  Small enough to reason about by hand, rich enough to
    exercise clefs, two staves and two voices.
    """
    def note(onset, dur, name, voice, staff):
        return NoteEvent(onset=onset * Q, duration=dur * Q,
                         pitch=Pitch.from_name(name), voice=voice, staff=staff)

    m1 = Measure(
        index=0, start=0, duration=4 * Q,
        events=(
            note(0, 1, "C5", 1, 1),
            note(1, 1, "E5", 1, 1),
            note(2, 2, "G5", 1, 1),
            note(0, 4, "C3", 2, 2),
        ),
        time_sig=(4, 4), key_fifths=0, clefs=("G2", "F4"))
    m2 = Measure(
        index=1, start=4 * Q, duration=4 * Q,
        events=(
            note(4, 4, "D5", 1, 1),
            note(4, 4, "G3", 2, 2),
        ))
    return Score(measures=(m1, m2), title="Reference", source_id="reference",
                 n_staves=2)


def semantic_signature(score: Score):
    """Multiset of (onset, midi, duration, voice, staff) over pitched events, grace
    notes included."""
    return sorted(
        (ev.onset, ev.pitch.midi_number, ev.duration, ev.voice, ev.staff)
        for ev in score.events() if ev.pitch is not None)


@pytest.fixture(scope="session")
def reference_piece() -> Score:
    return build_reference_piece()


@pytest.fixture(scope="session")
def small_corpus() -> list[Score]:
    return fixtures.generate_corpus(12, seed=1234)


@pytest.fixture(scope="session")
def medium_corpus() -> list[Score]:
    return fixtures.generate_corpus(50, seed=4242)
