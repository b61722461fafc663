"""The integer-tick timeline against Fraction references.

``reference_merged_sounding_intervals`` and ``reference_timeline`` are the
Fraction implementation the tick sweep replaced, kept here as the oracle;
``naive_timeline`` is the all-pairs definition built on the former.  The
references read the score in quarters (:func:`in_quarters`), and the
timeline's tick output is converted to quarters to compare.
"""

from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradus import analysis, style
from gradus.fixtures import generate_corpus
from gradus.score import TICKS_PER_QUARTER as Q
from gradus.score import (
    Measure,
    MusicXmlParseError,
    NoteEvent,
    Pitch,
    Score,
    TimelineSegment,
    merged_sounding_intervals,
    parse_musicxml,
    timeline,
)


def in_quarters(score):
    """``score`` with every time a Fraction of quarters, as the references read it."""
    return replace(score, measures=tuple(
        replace(m, start=Fraction(m.start, Q), duration=Fraction(m.duration, Q),
                events=tuple(replace(ev, onset=Fraction(ev.onset, Q),
                                     duration=Fraction(ev.duration, Q)) for ev in m.events))
        for m in score.measures))


def ticks(quarters):
    """A time in quarters as whole ticks; off the tick grid raises."""
    value = quarters * Q
    if value != int(value):
        raise ValueError(f"{quarters} quarters is off the tick grid")
    return int(value)


def in_ticks(score):
    """The inverse of :func:`in_quarters`; a time off the tick grid raises."""
    return replace(score, measures=tuple(
        replace(m, start=ticks(m.start), duration=ticks(m.duration),
                events=tuple(replace(ev, onset=ticks(ev.onset), duration=ticks(ev.duration))
                             for ev in m.events))
        for m in score.measures))


def segments_in_quarters(segments):
    return [replace(seg, start=Fraction(seg.start, Q), end=Fraction(seg.end, Q))
            for seg in segments]


def segments_in_ticks(segments):
    return [replace(seg, start=ticks(seg.start), end=ticks(seg.end)) for seg in segments]


def reference_merged_sounding_intervals(score):
    """Tie-merged intervals of pitched non-grace notes, on Fractions."""
    chains = {}
    for ev in score.notes():
        chains.setdefault((ev.voice, ev.staff, ev.pitch.midi_number), []).append(ev)
    out = []
    for evs in chains.values():
        evs.sort(key=lambda e: e.onset)
        open_start = open_pitch = prev = None
        for ev in evs:
            chained = (prev is not None and prev.tie_start and ev.tie_stop
                       and ev.onset == prev.end)
            if not chained:
                if open_start is not None:
                    out.append((open_start, prev.end, open_pitch))
                open_start, open_pitch = ev.onset, ev.pitch
            prev = ev
        if open_start is not None:
            out.append((open_start, prev.end, open_pitch))
    out.sort(key=lambda t: (t[0], t[1], t[2].midi_number))
    return out


def _reference_cuts(score, intervals):
    total = score.total_duration
    bounds = {Fraction(0), total}
    for start, end, _ in intervals:
        bounds.add(start)
        bounds.add(min(end, total))
    return sorted(bounds)


def reference_timeline(score):
    """The boundary sweep on Fractions."""
    if not score.measures:
        return []
    intervals = reference_merged_sounding_intervals(score)
    cuts = _reference_cuts(score, intervals)
    position = {cut: i for i, cut in enumerate(cuts)}
    n_segments = len(cuts) - 1
    starting = [[] for _ in range(n_segments)]
    stopping = [[] for _ in range(n_segments)]
    for index, (start, end, _) in enumerate(intervals):
        first = position[start]
        stop = position[end] if end in position else bisect_right(cuts, end) - 1
        if first < stop:
            starting[first].append(index)
            if stop < n_segments:
                stopping[stop].append(index)
    active = {}
    segments = []
    for i in range(n_segments):
        for index in stopping[i]:
            midi = intervals[index][2].midi_number
            held = active[midi]
            held.remove(index)
            if not held:
                del active[midi]
        for index in starting[i]:
            active.setdefault(intervals[index][2].midi_number, []).append(index)
        segments.append(TimelineSegment(
            start=cuts[i], end=cuts[i + 1],
            pitches=tuple(intervals[active[m][0]][2] for m in sorted(active))))
    return segments


def naive_timeline(score):
    """Test every merged interval against every segment between two cuts."""
    if not score.measures:
        return []
    intervals = reference_merged_sounding_intervals(score)
    cuts = _reference_cuts(score, intervals)
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


def assert_matches_references(score):
    quarters = in_quarters(score)
    assert ([(Fraction(start, Q), Fraction(end, Q), pitch)
             for start, end, pitch in merged_sounding_intervals(score)]
            == reference_merged_sounding_intervals(quarters))
    got = segments_in_quarters(timeline(score))
    assert got == reference_timeline(quarters)
    assert got == naive_timeline(quarters)


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
    """Each segment's bounds in quarters and its spelled pitches."""
    return [(Fraction(s.start, Q), Fraction(s.end, Q), [p.name for p in s.pitches])
            for s in segments]


def note(onset, dur, name, voice=1, staff=1, **kw):
    """A note whose onset and duration are given in quarters."""
    return NoteEvent(onset=ticks(onset), duration=ticks(dur),
                     pitch=Pitch.from_name(name), voice=voice, staff=staff, **kw)


def one_measure(duration, *events):
    return Score(measures=(Measure(index=0, start=0, duration=ticks(duration),
                                   events=tuple(events)),), n_staves=2)


class TestCorpus:
    @pytest.mark.parametrize("times", [1, 2, 4, 8])
    def test_generated_pieces_and_repeats(self, times):
        pieces = generate_corpus(12 if times == 1 else 3, seed=2718)
        for piece in pieces:
            assert_matches_references(repeat_measures(piece, times))


class TestHandMade:
    def test_overlapping_voices_spell_one_midi_two_ways(self):
        score = one_measure(4, note(0, 2, "C#4", voice=1), note(1, 2, "Db4", voice=2))
        assert_matches_references(score)
        assert spelled(timeline(score)) == [
            (0, 1, ["C#4"]), (1, 2, ["C#4"]), (2, 3, ["Db4"]), (3, 4, [])]

    def test_shorter_interval_wins_a_shared_start(self):
        score = one_measure(4, note(0, 3, "Db4", voice=1), note(0, 2, "C#4", voice=2))
        assert_matches_references(score)
        assert spelled(timeline(score)) == [
            (0, 2, ["C#4"]), (2, 3, ["Db4"]), (3, 4, [])]

    def test_note_past_the_end_sounds_to_the_end(self):
        score = one_measure(4, note(0, 1, "C4"), note(3, 3, "G4", voice=2))
        assert_matches_references(score)
        assert spelled(timeline(score)) == [
            (0, 1, ["C4"]), (1, 3, []), (3, 4, ["G4"])]

    def test_grace_notes_neither_cut_nor_sound(self):
        score = one_measure(
            2, note(Fraction(1, 2), Fraction(1, 8), "D5", grace=True),
            note(0, 1, "C4"), note(1, 1, "E4"))
        assert_matches_references(score)
        assert spelled(timeline(score)) == [
            (0, 1, ["C4"]), (1, 2, ["E4"])]

    def test_tick_unit_spans_triplets_quintuplets_and_sixteenths(self):
        # cuts at 1/3, 2/5, 3/4 and 16/15 quarter, each a whole number of ticks
        score = one_measure(
            Fraction(5, 4),
            note(Fraction(1, 3), Fraction(11, 15), "E4"),
            note(Fraction(2, 5), Fraction(7, 20), "C#4", voice=2),
            note(0, Fraction(3, 4), "Db4", voice=3))
        assert_matches_references(score)
        assert spelled(timeline(score)) == [
            (0, Fraction(1, 3), ["Db4"]),
            (Fraction(1, 3), Fraction(2, 5), ["Db4", "E4"]),
            (Fraction(2, 5), Fraction(3, 4), ["Db4", "E4"]),
            (Fraction(3, 4), Fraction(16, 15), ["E4"]),
            (Fraction(16, 15), Fraction(5, 4), [])]

    def test_tie_across_unequal_measures(self):
        tied = note(Fraction(3, 2), Fraction(1, 2), "G4", tie_start=True)
        held = note(Fraction(2), Fraction(1, 3), "G4", tie_stop=True)
        score = Score(measures=(
            Measure(index=0, start=0, duration=2 * Q, events=(tied,)),
            Measure(index=1, start=2 * Q, duration=5 * Q // 3,
                    events=(held,))), n_staves=2)
        assert merged_sounding_intervals(score) == [
            (3 * Q // 2, 7 * Q // 3, Pitch.from_name("G4"))]
        assert_matches_references(score)


# Spellings that collide on one midi number, so the tie-break is exercised.
NAMES = ["C4", "B#3", "C#4", "Db4", "D4", "E4", "Fb4", "F4", "E#4", "G4", "C5"]
# halves, triplets, quintuplets and sixteenths, mixed within one score
GRIDS = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 16)]
MEASURE_LENGTHS = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3),
                   Fraction(4), Fraction(5, 3), Fraction(9, 8), Fraction(6, 5)]


@st.composite
def grid_times(draw, below):
    """``k * grid`` for one of GRIDS, with ``0 <= k * grid < below``."""
    grid = draw(st.sampled_from(GRIDS))
    return grid * draw(st.integers(0, ceil(below / grid) - 1))


@st.composite
def grid_lengths(draw):
    return draw(st.sampled_from(GRIDS)) * draw(st.integers(1, 24))


@st.composite
def scores(draw):
    """Measures of unequal length and tie chains on mixed grids.

    A chain's links follow each other and may cross barlines; each
    junction is tied or not, and a chain may run past the last measure,
    where its later links start past the end.  Events are filed under the
    measure holding their onset (the last one past the end) in a drawn
    order, which sets the chains' order and so the spelling tie-break.
    Times are drawn in quarters and stored in ticks.
    """
    lengths = draw(st.lists(st.sampled_from(MEASURE_LENGTHS), min_size=1, max_size=4))
    starts = [sum(lengths[:i], Fraction(0)) for i in range(len(lengths))]
    total = starts[-1] + lengths[-1]
    events = []
    for _ in range(draw(st.integers(0, 8))):
        onset = draw(grid_times(total))
        pitch = Pitch.from_name(draw(st.sampled_from(NAMES)))
        voice, staff = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        n_links = draw(st.integers(1, 3))
        ties = [draw(st.booleans()) for _ in range(n_links - 1)]
        for j in range(n_links):
            duration = draw(grid_lengths())
            events.append(NoteEvent(
                onset=ticks(onset), duration=ticks(duration), pitch=pitch,
                voice=voice, staff=staff,
                tie_start=ties[j] if j < n_links - 1 else draw(st.booleans()),
                tie_stop=ties[j - 1] if j else draw(st.booleans()),
                grace=draw(st.integers(0, 5)) == 0))
            onset += duration
    by_measure = [[] for _ in lengths]
    for ev in draw(st.permutations(events)):
        by_measure[max(i for i, start in enumerate(starts)
                       if ticks(start) <= ev.onset or i == 0)].append(ev)
    return Score(measures=tuple(
        Measure(index=i, start=ticks(start), duration=ticks(length), events=tuple(evs))
        for i, (start, length, evs) in enumerate(zip(starts, lengths, by_measure))),
        n_staves=2)


@settings(max_examples=300, deadline=None)
@given(scores())
def test_sweep_matches_all_pairs(score):
    assert_matches_references(score)


class TestAnalysisOutputs:
    """Every timeline consumer gives bit-equal output on the reference."""

    @staticmethod
    def outputs(score):
        return {
            "skyline": analysis.skyline(score),
            "skyline_score": analysis.skyline_score(score),
            "profile": analysis.pitch_class_profile(score),
            "features": analysis.feature_vector(score),
            "embedding": style.baseline_embed(score),
        }

    @pytest.mark.parametrize("times", [1, 8])
    def test_outputs_equal_with_reference_timeline(self, times, monkeypatch):
        pieces = [repeat_measures(piece, times)
                  for piece in generate_corpus(6 if times == 1 else 2, seed=2718)]
        produced = [self.outputs(score) for score in pieces]

        def reference_tick_timeline(score):
            return segments_in_ticks(reference_timeline(in_quarters(score)))

        monkeypatch.setattr(analysis, "timeline", reference_tick_timeline)
        monkeypatch.setattr(style, "timeline", reference_tick_timeline)
        for score, got in zip(pieces, produced):
            want = self.outputs(score)
            for name in ("skyline", "skyline_score"):
                assert got[name] == want[name], (score.source_id, name)
            for name in ("profile", "features", "embedding"):
                assert got[name].dtype == want[name].dtype
                assert got[name].tobytes() == want[name].tobytes(), (score.source_id, name)


def test_off_grid_time_stops_at_the_parser():
    # the reference sweeps a cut at 1/7 quarter, which no whole number of ticks holds
    late = NoteEvent(onset=Fraction(1, 7), duration=Fraction(6, 7), pitch=Pitch.from_name("C4"))
    score = Score(measures=(Measure(index=0, start=Fraction(0), duration=Fraction(1),
                                    events=(late,)),), n_staves=2)
    segments = reference_timeline(score)
    assert [(s.start, s.end) for s in segments] == [(0, Fraction(1, 7)), (Fraction(1, 7), 1)]
    with pytest.raises(ValueError, match="^1/7 quarters is off the tick grid$"):
        segments_in_ticks(segments)
    # so the document that spells it is refused before any timeline is built
    doc = ('<score-partwise><part-list/><part id="P1"><measure number="1">'
           "<attributes><divisions>7</divisions></attributes>"
           "<forward><duration>1</duration></forward>"
           "<note><pitch><step>C</step><octave>4</octave></pitch><duration>6</duration></note>"
           "</measure></part></score-partwise>")
    with pytest.raises(MusicXmlParseError, match="^measure 1: 1 of 7 divisions is off "
                                                 "the 1/960-quarter grid$"):
        parse_musicxml(doc)
