"""Skyline, pitch profiles and feature extraction tests."""

from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import semantic_signature
from gradus.analysis import (
    AnalysisError,
    FEATURE_NAMES,
    SkylineNote,
    feature_vector,
    perturb_profile,
    pitch_class_profile,
    profile_from_skyline,
    skyline,
    skyline_score,
)
from gradus.score import TICKS_PER_QUARTER as Q
from gradus.score import (
    Measure,
    NoteEvent,
    Pitch,
    Score,
    merged_sounding_intervals,
)


def oracle_top_midi(score, t):
    """Highest midi sounding at tick time t, by direct interval scan.

    Tie chains are merged first so a held note spans its full length.
    """
    best = None
    for start, end, pitch in merged_sounding_intervals(score):
        if start <= t < end:
            if best is None or pitch.midi_number > best:
                best = pitch.midi_number
    return best


def check_skyline_against_oracle(score):
    notes = skyline(score)
    # segment midpoints are rational, so comparisons stay exact
    for sn in notes:
        mid = sn.onset + Fraction(sn.duration, 2)
        want = oracle_top_midi(score, mid)
        got = None if sn.pitch is None else sn.pitch.midi_number
        assert got == want, (sn.onset, got, want)
    # the sequence must tile [0, total) with no gaps
    cursor = 0
    for sn in notes:
        assert sn.onset == cursor
        cursor = sn.onset + sn.duration
    assert cursor == score.total_duration


class TestSkyline:
    def test_reference(self, reference_piece):
        names = [sn.pitch.name for sn in skyline(reference_piece)]
        assert names == ["C5", "E5", "G5", "D5"]

    def test_oracle_on_corpus(self, small_corpus):
        for score in small_corpus:
            check_skyline_against_oracle(score)

    def test_rest_segments_kept(self):
        def note(onset, name):
            return NoteEvent(onset=onset * Q, duration=Q,
                             pitch=Pitch.from_name(name))

        m = Measure(index=0, start=0, duration=4 * Q,
                    events=(note(0, "C4"), note(3, "D4")))
        score = Score(measures=(m,), n_staves=2)
        notes = skyline(score)
        assert [(sn.onset, sn.pitch is None) for sn in notes] == [
            (0, False), (Q, True), (3 * Q, False)]

    def test_adjacent_equal_pitches_merged(self):
        # C4 held under a higher voice that drops out: skyline stays C5
        def note(onset, dur, name, voice=1):
            return NoteEvent(onset=onset * Q, duration=dur * Q,
                             pitch=Pitch.from_name(name), voice=voice)

        m = Measure(index=0, start=0, duration=4 * Q,
                    events=(note(0, 4, "C5", 1), note(0, 2, "E4", 2),
                            note(2, 2, "G4", 2)))
        score = Score(measures=(m,), n_staves=2)
        notes = skyline(score)
        assert len(notes) == 1
        assert notes[0].pitch.name == "C5"
        assert notes[0].duration == 4 * Q

    def test_all_rests_rejected(self):
        m = Measure(index=0, start=0, duration=4 * Q,
                    events=(NoteEvent(onset=0, duration=4 * Q,
                                      pitch=None),))
        with pytest.raises(AnalysisError):
            skyline(Score(measures=(m,), n_staves=2))


class TestSkylineScore:
    def test_monophonic_staff_one(self, small_corpus):
        for score in small_corpus:
            mono = skyline_score(score)
            notes = list(mono.notes())
            assert all(e.staff == 1 and e.voice == 1 for e in mono.events())
            # no two notes sound at once
            by_onset = defaultdict(int)
            for e in notes:
                by_onset[e.onset] += 1
            assert all(v == 1 for v in by_onset.values())

    def test_same_top_line(self, small_corpus):
        for score in small_corpus:
            mono = skyline_score(score)
            check_skyline_against_oracle_mono(score, mono)

    def test_measure_boundaries_preserved(self, small_corpus):
        for score in small_corpus:
            mono = skyline_score(score)
            assert len(mono.measures) == len(score.measures)
            for a, b in zip(mono.measures, score.measures):
                assert a.start == b.start and a.duration == b.duration

    def test_round_trips_through_codec(self, small_corpus):
        from gradus.lmx import decode, encode
        for score in small_corpus:
            mono = skyline_score(score)
            back = decode(encode(mono))
            assert semantic_signature(back) == semantic_signature(mono)


def check_skyline_against_oracle_mono(orig, mono):
    """The re-notated score must sound the same top line as the original."""
    for start, end, pitch in merged_sounding_intervals(mono):
        step = Fraction(end - start, 4)
        for k in range(4):
            t = start + step * k + step / 2
            assert oracle_top_midi(orig, t) == pitch.midi_number


def line_profile_by_note_durations(notes):
    """The reference line profile: each note's pitch class weighted by its
    duration, rests skipped."""
    weights = [0] * 12
    for note in notes:
        if note.pitch is not None:
            weights[note.pitch.pitch_class] += note.duration
    total = sum(weights)
    if total == 0:
        raise AnalysisError("line has no sounding pitches")
    return np.array([float(Fraction(w, total)) for w in weights], dtype=np.float64)


def tiled_line(steps):
    """A line of ``(duration, pitch or None)`` steps, each starting where
    the previous one ends."""
    notes, onset = [], 0
    for duration, pitch in steps:
        notes.append(SkylineNote(onset, duration, pitch))
        onset += duration
    return notes


class TestProfiles:
    def oracle_profile(self, score):
        """Duration-weighted pitch-class mass, computed with Fractions."""
        mass = [0] * 12
        for start, end, pitch in merged_sounding_intervals(score):
            mass[pitch.midi_number % 12] += end - start
        total = sum(mass)
        return [Fraction(m, total) for m in mass]

    def test_matches_exact_oracle(self, small_corpus):
        for score in small_corpus:
            got = pitch_class_profile(score)
            want = self.oracle_profile(score)
            assert got.shape == (12,)
            np.testing.assert_allclose(got, [float(w) for w in want],
                                       atol=1e-12)

    def test_sums_to_one(self, small_corpus):
        for score in small_corpus:
            assert abs(pitch_class_profile(score).sum() - 1.0) < 1e-9

    def test_skyline_variant_consistent(self, small_corpus):
        for score in small_corpus:
            notes = skyline(score)
            assert np.array_equal(profile_from_skyline(notes),
                                  line_profile_by_note_durations(notes))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(Q // 12, 8 * Q),
        st.none() | st.integers(0, 127).map(Pitch.from_midi)), min_size=1, max_size=12))
    def test_matches_note_durations_on_lines_with_rests(self, steps):
        notes = tiled_line(steps)
        if all(note.pitch is None for note in notes):
            with pytest.raises(AnalysisError, match="^score has no sounding pitches"):
                profile_from_skyline(notes)
            return
        assert np.array_equal(profile_from_skyline(notes),
                              line_profile_by_note_durations(notes))

    def test_all_rest_line_is_refused(self):
        line = tiled_line([(Q, None), (3 * Q // 2, None)])
        with pytest.raises(AnalysisError, match="^score has no sounding pitches, "
                                                "profile is undefined$"):
            profile_from_skyline(line)


class TestPerturbation:
    def test_bounded_relative_noise(self):
        rng = np.random.default_rng(7)
        p = pitch_class_profile_from_array(
            [4, 0, 2, 0, 3, 1, 0, 2, 0, 1, 0, 3])
        for _ in range(500):
            q = perturb_profile(p, rng, noise_scale=0.2)
            assert q.shape == (12,)
            assert abs(q.sum() - 1.0) < 1e-9
            assert np.all(q >= 0)

    def test_zeros_stay_zero(self):
        rng = np.random.default_rng(11)
        p = np.zeros(12)
        p[0] = 0.5
        p[7] = 0.5
        for _ in range(200):
            q = perturb_profile(p, rng, noise_scale=0.3)
            zero_idx = [i for i in range(12) if i not in (0, 7)]
            assert np.all(q[zero_idx] == 0.0)

    def test_noise_scale_zero_is_identity(self):
        rng = np.random.default_rng(3)
        p = pitch_class_profile_from_array(
            [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1])
        np.testing.assert_array_equal(perturb_profile(p, rng, 0.0), p)

    def test_bad_inputs_rejected(self):
        rng = np.random.default_rng(0)
        good = np.full(12, 1 / 12)
        with pytest.raises(AnalysisError):
            perturb_profile(np.full(11, 1 / 11), rng, 0.1)
        with pytest.raises(AnalysisError):
            perturb_profile(good * 2, rng, 0.1)
        with pytest.raises(AnalysisError):
            perturb_profile(good, rng, -0.1)
        with pytest.raises(AnalysisError):
            perturb_profile(good, rng, 1.0)


def pitch_class_profile_from_array(weights):
    arr = np.asarray(weights, dtype=float)
    return arr / arr.sum()


class TestFeatures:
    def test_shape_and_names(self, small_corpus):
        assert len(FEATURE_NAMES) == 12
        for score in small_corpus:
            v = feature_vector(score)
            assert v.shape == (12,)
            assert np.all(np.isfinite(v))

    def test_reference_hand_computed(self, reference_piece):
        v = dict(zip(FEATURE_NAMES, feature_vector(reference_piece)))
        # 4 treble onsets over 8 quarters, 2 bass onsets
        assert v["rh_note_density"] == pytest.approx(0.5)
        assert v["lh_note_density"] == pytest.approx(0.25)
        # C5..G5 = 7 semitones; C3..G3 = 7
        assert v["rh_pitch_range"] == 7
        assert v["lh_pitch_range"] == 7
        # successive treble tops: C5->E5 (4), E5->G5 (3), G5->D5 (5)
        assert v["rh_mean_interval"] == pytest.approx(4.0)
        assert v["lh_mean_interval"] == pytest.approx(7.0)
        assert v["rh_chord_rate"] == 0.0
        assert v["lh_chord_rate"] == 0.0
        # pitch classes: C, E, G, D
        assert v["pitch_class_count"] == 4
        assert v["max_simultaneity"] == 2
        # distinct onsets at 0,1,2,4 give inter-onset gaps 1,1,2
        assert v["mean_ioi"] == pytest.approx(4 / 3)
        assert v["hand_span"] == 0.0

    def test_chords_raise_span_and_rate(self):
        def ev(onset, name, chord=False):
            return NoteEvent(onset=onset * Q, duration=Q,
                             pitch=Pitch.from_name(name), chord=chord)

        m = Measure(index=0, start=0, duration=2 * Q,
                    events=(ev(0, "C4"), ev(0, "G4", True), ev(1, "D4")))
        v = dict(zip(FEATURE_NAMES,
                     feature_vector(Score(measures=(m,), n_staves=2))))
        assert v["rh_chord_rate"] == pytest.approx(0.5)
        assert v["hand_span"] == 7
        assert v["max_simultaneity"] == 2

    def test_monotone_in_complexity(self):
        # fixture complexity drives density and span; check the trend over
        # a spread of generated pieces rather than strict monotonicity
        from gradus.fixtures import generate_corpus
        pieces = generate_corpus(n=9, seed=99)
        vecs = [feature_vector(p) for p in pieces]
        dens = [v[0] for v in vecs]
        assert np.corrcoef(np.arange(9), dens)[0, 1] > 0.5
