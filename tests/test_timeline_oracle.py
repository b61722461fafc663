"""The boundary-sweep timeline against the all-pairs definition."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradus.fixtures import generate_corpus
from gradus.score import (
    Measure,
    NoteEvent,
    Pitch,
    Score,
    TimelineSegment,
    merged_sounding_intervals,
    timeline,
)


def naive_timeline(score):
    """Test every merged interval against every segment between two cuts."""
    if not score.measures:
        return []
    total = score.total_duration
    intervals = merged_sounding_intervals(score)
    bounds = {Fraction(0), total}
    for start, end, _ in intervals:
        bounds.add(start)
        bounds.add(min(end, total))
    cuts = sorted(bounds)
    segments = []
    for a, b in zip(cuts, cuts[1:]):
        active = {}
        for start, end, pitch in intervals:
            if start <= a and end >= b and pitch.midi_number not in active:
                active[pitch.midi_number] = pitch
        segments.append(TimelineSegment(
            start=a, end=b,
            pitches=tuple(active[m] for m in sorted(active))))
    return segments


def repeat_measures(score, times):
    """The piece played ``times`` times in a row, as one longer score."""
    total = score.total_duration
    measures = []
    for k in range(times):
        shift = k * total
        for m in score.measures:
            measures.append(replace(
                m, index=len(measures), start=m.start + shift,
                events=tuple(replace(ev, onset=ev.onset + shift) for ev in m.events)))
    return replace(score, measures=tuple(measures))


def spelled(segments):
    return [(s.start, s.end, [p.name for p in s.pitches]) for s in segments]


def note(onset, dur, name, voice=1, staff=1, **kw):
    return NoteEvent(onset=Fraction(onset), duration=Fraction(dur),
                     pitch=Pitch.from_name(name), voice=voice, staff=staff, **kw)


def one_measure(duration, *events):
    return Score(measures=(Measure(index=0, start=Fraction(0),
                                   duration=Fraction(duration),
                                   events=tuple(events)),), n_staves=2)


class TestCorpus:
    @pytest.mark.parametrize("times", [1, 2, 4, 8])
    def test_generated_pieces_and_repeats(self, times):
        pieces = generate_corpus(12 if times == 1 else 3, seed=2718)
        for piece in pieces:
            score = repeat_measures(piece, times)
            assert timeline(score) == naive_timeline(score), (piece.source_id, times)


class TestHandMade:
    def test_overlapping_voices_spell_one_midi_two_ways(self):
        score = one_measure(4, note(0, 2, "C#4", voice=1), note(1, 2, "Db4", voice=2))
        assert spelled(timeline(score)) == spelled(naive_timeline(score)) == [
            (0, 1, ["C#4"]), (1, 2, ["C#4"]), (2, 3, ["Db4"]), (3, 4, [])]

    def test_shorter_interval_wins_a_shared_start(self):
        score = one_measure(4, note(0, 3, "Db4", voice=1), note(0, 2, "C#4", voice=2))
        assert spelled(timeline(score)) == spelled(naive_timeline(score)) == [
            (0, 2, ["C#4"]), (2, 3, ["Db4"]), (3, 4, [])]

    def test_note_past_the_end_sounds_to_the_end(self):
        score = one_measure(4, note(0, 1, "C4"), note(3, 3, "G4", voice=2))
        assert spelled(timeline(score)) == spelled(naive_timeline(score)) == [
            (0, 1, ["C4"]), (1, 3, []), (3, 4, ["G4"])]

    def test_grace_notes_neither_cut_nor_sound(self):
        score = one_measure(
            2, note(Fraction(1, 2), Fraction(1, 8), "D5", grace=True),
            note(0, 1, "C4"), note(1, 1, "E4"))
        assert spelled(timeline(score)) == spelled(naive_timeline(score)) == [
            (0, 1, ["C4"]), (1, 2, ["E4"])]


# Spellings that collide on one midi number, so the tie-break is exercised.
NAMES = ["C4", "B#3", "C#4", "Db4", "D4", "E4", "Fb4", "F4", "E#4", "G4", "C5"]
GRID = Fraction(1, 6)


@st.composite
def scores(draw):
    lengths = draw(st.lists(st.integers(6, 24), min_size=1, max_size=4))
    measures = []
    start = Fraction(0)
    for index, length in enumerate(lengths):
        duration = length * GRID
        events = tuple(
            NoteEvent(onset=start + draw(st.integers(0, length - 1)) * GRID,
                      duration=draw(st.integers(1, 18)) * GRID,
                      pitch=Pitch.from_name(draw(st.sampled_from(NAMES))),
                      voice=draw(st.integers(1, 2)), staff=draw(st.integers(1, 2)),
                      tie_start=draw(st.booleans()), tie_stop=draw(st.booleans()),
                      grace=draw(st.integers(0, 4)) == 0)
            for _ in range(draw(st.integers(0, 6))))
        measures.append(Measure(index=index, start=start, duration=duration,
                                events=events))
        start += duration
    return Score(measures=tuple(measures), n_staves=2)


@settings(max_examples=300, deadline=None)
@given(scores())
def test_sweep_matches_all_pairs(score):
    assert timeline(score) == naive_timeline(score)
