"""Score model, MusicXML I/O and timeline tests."""

import dataclasses
import gc
import re
import zipfile

import pytest

from conftest import semantic_signature
from gradus import lmx
from gradus import score as score_module
from gradus.score import TICKS_PER_QUARTER as Q
from gradus.score import (
    Measure,
    MusicXmlParseError,
    NoteEvent,
    Pitch,
    TUPLET_RATIOS,
    Score,
    UnsupportedStructureError,
    ValidationError,
    duration_for_type,
    merged_sounding_intervals,
    parse_musicxml,
    read_musicxml,
    serialize_musicxml,
    timeline,
    type_for_duration,
    validate_two_staff,
)


class TestPitch:
    def test_midi_spelling_consistency(self):
        p = Pitch.from_parts("C", 0, 4)
        assert p.midi_number == 60
        assert p.pitch_class == 0
        assert p.name == "C4"

    def test_sharp_and_flat_names(self):
        assert Pitch.from_name("F#3").midi_number == 54
        assert Pitch.from_name("Bb4").midi_number == 70
        assert Pitch.from_name("C##4").midi_number == 62
        assert Pitch.from_name("Dbb4").midi_number == 60

    def test_name_round_trip(self):
        for name in ("C4", "F#3", "Bb5", "G2", "A0", "E#6", "Cb5"):
            assert Pitch.from_name(name).name == name

    def test_from_midi_covers_all_keys(self):
        for midi in range(21, 109):
            p = Pitch.from_midi(midi)
            assert p.midi_number == midi
            assert p.pitch_class == midi % 12

    def test_from_midi_matches_the_two_loop_speller(self):
        # the reference: search the naturals, then the sharp of each step below
        step_to_pc = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

        def two_loop_speller(midi):
            octave, pc = divmod(midi, 12)
            for step, base in step_to_pc.items():
                if base == pc:
                    return Pitch(midi, pc, octave - 1, step, 0)
            for step, base in step_to_pc.items():
                if (base + 1) % 12 == pc:
                    return Pitch(midi, pc, octave - 1, step, 1)

        refused = 0
        for midi in range(-5, 136):
            try:
                want = two_loop_speller(midi)
            except ValueError as exc:
                refused += 1
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    Pitch.from_midi(midi)
            else:
                got = Pitch.from_midi(midi)
                assert dataclasses.astuple(got) == dataclasses.astuple(want)
        assert refused == 5 + 8

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ValueError):
            Pitch(midi_number=60, pitch_class=1, octave=4)
        with pytest.raises(ValueError):
            Pitch(midi_number=60, pitch_class=0, octave=5)
        with pytest.raises(ValueError):
            Pitch(midi_number=200, pitch_class=8, octave=15)

    def test_bad_names_rejected(self):
        for bad in ("H4", "C", "#4", "Cx4", "B#"):
            with pytest.raises(ValueError):
                Pitch.from_name(bad)

    @pytest.mark.parametrize("text", ["C+4", "C 4", "C4 ", "C\t4"])
    def test_names_the_token_decoder_refuses_are_refused(self, text):
        # one grammar, PITCH_NAME, reads a pitch name for the score model and the decoder
        with pytest.raises(ValueError, match=re.escape(f"bad pitch name {text!r}")):
            Pitch.from_name(text)
        assert lmx.decode_recoverable(["measure", text, "quarter"]).score.measures == ()

    def test_every_valid_spelling_is_one_shared_object(self):
        table = score_module._PITCHES
        valid = set()
        for key in ((s, a, o) for s in "CDEFGAB" for a in range(-3, 4) for o in range(-5, 15)):
            try:
                pitch = Pitch.from_parts(*key)
            except ValueError:
                continue
            valid.add(key)
            assert pitch is table[key] is Pitch.from_parts(*key)
        assert set(table) == valid and len(table) == 374
        assert {p.midi_number for p in table.values()} == set(range(128))
        for name in ("C4", "C04", "C004", "Bb-1", "B#-2", "G9"):
            pitch = Pitch.from_name(name)
            assert pitch is table[pitch.step, pitch.alter, pitch.octave]
        assert Pitch.from_parts("C", 0, 4) is Pitch.from_name("C0004") is Pitch.from_name("C٤")

    @pytest.mark.parametrize("parts, error", [
        (("C", 0, 10), "midi_number 132 out of range"),
        (("C", -1, -1), "midi_number -1 out of range"),
        (("C", 3, 4), "unsupported alter 3"),
    ])
    def test_invalid_spellings_raise_and_are_not_shared(self, parts, error):
        size = len(score_module._PITCHES)
        for _ in range(2):
            with pytest.raises(ValueError, match=error):
                Pitch.from_parts(*parts)
        assert len(score_module._PITCHES) == size
        with pytest.raises(KeyError):
            Pitch.from_parts("H", 0, 4)


class TestNoteEvent:
    def test_positive_duration_required(self):
        with pytest.raises(ValueError):
            NoteEvent(onset=0, duration=0, pitch=None)
        with pytest.raises(ValueError):
            NoteEvent(onset=0, duration=-Q, pitch=None)

    def test_staff_must_be_one_or_two(self):
        with pytest.raises(ValueError):
            NoteEvent(onset=0, duration=Q, pitch=None, staff=3)

    def test_rest_detection(self):
        rest = NoteEvent(onset=0, duration=Q, pitch=None)
        assert rest.is_rest
        note = NoteEvent(onset=0, duration=Q, pitch=Pitch.from_name("C4"))
        assert not note.is_rest
        assert note.end == Q

    @pytest.mark.parametrize("kwargs, message", [
        ({"onset": -Q // 3}, "onset must be >= 0"),
        ({"onset": -1}, "onset must be >= 0"),
        ({"duration": -Q}, "duration must be > 0"),
        ({"duration": -Q // 2}, "duration must be > 0"),
        ({"duration": 0}, "duration must be > 0"),
        ({"duration": -2}, "duration must be > 0"),
        ({"staff": 0}, "staff must be 1 or 2"),
        ({"staff": 3}, "staff must be 1 or 2"),
    ])
    def test_rejections_keep_their_messages(self, kwargs, message):
        fields = {"onset": Q // 2, "duration": Q, "pitch": None, **kwargs}
        with pytest.raises(ValueError, match=f"^{message}$"):
            NoteEvent(**fields)

    def test_int_times_are_accepted(self):
        ev = NoteEvent(onset=0, duration=2, pitch=None, staff=2)
        assert (ev.onset, ev.duration, ev.end, ev.staff) == (0, 2, 2, 2)

    def test_fields_are_frozen(self):
        ev = NoteEvent(onset=0, duration=Q, pitch=None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.voice = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            del ev.onset
        assert ev.voice == 1

    def test_equal_fields_give_equal_events_and_hashes(self):
        fields = dict(onset=3 * Q // 2, duration=Q // 3,
                      pitch=Pitch.from_name("F#3"), voice=2, staff=2, tie_start=True,
                      chord=True, hidden=False)
        a, b = NoteEvent(**fields), NoteEvent(**fields)
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != NoteEvent(**{**fields, "tie_stop": True})
        assert repr(a) == (
            "NoteEvent(onset=1440, duration=320, pitch=Pitch("
            "midi_number=54, pitch_class=6, octave=3, step='F', alter=1), voice=2, "
            "staff=2, tie_start=True, tie_stop=False, chord=True, grace=False, hidden=False)")

    def test_positional_construction_and_replace(self):
        c4 = Pitch.from_name("C4")
        ev = NoteEvent(1, 2, c4, 2, 2, True, False, True, False, True)
        assert ev == NoteEvent(onset=1, duration=2, pitch=c4, voice=2,
                               staff=2, tie_start=True, chord=True, hidden=True)
        moved = dataclasses.replace(ev, onset=5, staff=1)
        assert (moved.onset, moved.staff, moved.voice, moved.tie_start) == (5, 1, 2, True)
        assert ev.onset == 1
        with pytest.raises(ValueError, match="staff must be 1 or 2"):
            dataclasses.replace(ev, staff=3)


class TestDurationTypes:
    def test_plain_values(self):
        assert type_for_duration(Q) == ("quarter", 0, None)
        assert type_for_duration(4 * Q) == ("whole", 0, None)
        assert type_for_duration(Q // 4) == ("16th", 0, None)

    def test_dotted_values(self):
        assert type_for_duration(3 * Q // 2) == ("quarter", 1, None)
        assert type_for_duration(7 * Q // 4) == ("quarter", 2, None)
        assert type_for_duration(3 * Q) == ("half", 1, None)

    def test_tuplet_values(self):
        assert type_for_duration(Q // 3) == ("eighth", 0, (3, 2))
        assert type_for_duration(Q // 5) == ("16th", 0, (5, 4))

    def test_unrepresentable(self):
        assert type_for_duration(5 * Q // 2) is None
        assert type_for_duration(0) is None
        assert type_for_duration(Q // 48) is None

    def test_inverse_everywhere(self):
        for name in ("breve", "whole", "half", "quarter", "eighth", "16th",
                     "32nd", "64th"):
            for dots in (0, 1, 2):
                for tuplet in (None, (3, 2), (5, 4)):
                    q = duration_for_type(name, dots, tuplet)
                    decomposed = type_for_duration(q)
                    assert decomposed is not None
                    assert duration_for_type(*decomposed) == q


MINIMAL = """<?xml version="1.0" encoding="UTF-8"?>
<score-partwise version="4.0">
  <part-list><score-part id="P1"><part-name>Piano</part-name></score-part></part-list>
  <part id="P1">
    <measure number="1">
      <attributes>
        <divisions>{divisions}</divisions>
        <time><beats>4</beats><beat-type>4</beat-type></time>
        <staves>2</staves>
      </attributes>
      {body}
    </measure>
  </part>
</score-partwise>
"""


def _note(step, octave, duration, voice=1, staff=1, extra=""):
    return (f"<note><pitch><step>{step}</step><octave>{octave}</octave></pitch>"
            f"<duration>{duration}</duration><voice>{voice}</voice>"
            f"<staff>{staff}</staff>{extra}</note>")


class TestParsing:
    def test_divisions_scale_durations(self):
        for divisions in (1, 2, 4, 24, 480):
            doc = MINIMAL.format(divisions=divisions,
                                 body=_note("C", 4, divisions))
            score = parse_musicxml(doc)
            (ev,) = [e for e in score.events() if not e.hidden]
            assert ev.duration == Q

    def test_chord_shares_onset(self):
        body = _note("C", 4, 4) + "".join(
            _note(s, 4, 4, extra="") .replace("<note>", "<note><chord/>")
            for s in ("E", "G"))
        score = parse_musicxml(MINIMAL.format(divisions=4, body=body))
        notes = [e for e in score.events() if e.pitch]
        assert len(notes) == 3
        assert {n.onset for n in notes} == {0}
        assert [n.chord for n in notes] == [False, True, True]

    def test_backup_creates_second_voice(self):
        body = (_note("C", 5, 16) + "<backup><duration>16</duration></backup>"
                + _note("C", 3, 16, voice=2, staff=2))
        score = parse_musicxml(MINIMAL.format(divisions=4, body=body))
        notes = [e for e in score.events() if e.pitch]
        assert len(notes) == 2
        assert all(n.onset == 0 for n in notes)
        assert {n.voice for n in notes} == {1, 2}

    def test_forward_gap_filled_with_hidden_rest(self):
        body = (_note("C", 5, 4)
                + "<forward><duration>8</duration></forward>"
                + _note("D", 5, 4))
        score = parse_musicxml(MINIMAL.format(divisions=4, body=body))
        rests = [e for e in score.events() if e.is_rest and e.hidden]
        assert len(rests) == 1
        assert rests[0].onset == Q
        assert rests[0].duration == 2 * Q
        notes = [e for e in score.events() if e.pitch]
        assert notes[1].onset == 3 * Q

    def test_leading_and_trailing_gaps_filled(self):
        # voice 2 sounds only in the middle of the measure
        body = (_note("C", 5, 16)
                + "<backup><duration>12</duration></backup>"
                + _note("G", 3, 4, voice=2, staff=2))
        score = parse_musicxml(MINIMAL.format(divisions=4, body=body))
        v2 = sorted((e for e in score.events() if e.voice == 2),
                    key=lambda e: e.onset)
        assert [e.is_rest for e in v2] == [True, False, True]
        assert v2[0].onset == 0 and v2[0].duration == Q
        assert v2[2].onset == 2 * Q and v2[2].duration == 2 * Q

    def test_ties_preserved(self):
        body = (_note("C", 5, 8, extra='<tie type="start"/>')
                + _note("C", 5, 8, extra='<tie type="stop"/>'))
        score = parse_musicxml(MINIMAL.format(divisions=4, body=body))
        notes = [e for e in score.events() if e.pitch]
        assert notes[0].tie_start and not notes[0].tie_stop
        assert notes[1].tie_stop and not notes[1].tie_start

    def test_grace_note_takes_no_time(self):
        body = ("<note><grace/><pitch><step>D</step><octave>5</octave></pitch>"
                "<voice>1</voice><type>eighth</type><staff>1</staff></note>"
                + _note("C", 5, 16))
        score = parse_musicxml(MINIMAL.format(divisions=4, body=body))
        grace = [e for e in score.events() if e.grace]
        main = [e for e in score.events() if e.pitch and not e.grace]
        assert len(grace) == 1 and grace[0].onset == 0
        assert main[0].onset == 0 and main[0].duration == 4 * Q

    @pytest.mark.parametrize("marks, length", [
        ("<type>eighth</type><dot/>", 3 * Q // 4),
        ("<type>16th</type><dot/>", 3 * Q // 8),
        ("<type>eighth</type><time-modification><actual-notes>3</actual-notes>"
         "<normal-notes>2</normal-notes></time-modification>", Q // 3),
        ("<type>eighth</type><time-modification><actual-notes>5</actual-notes>"
         "<normal-notes>4</normal-notes></time-modification>", 2 * Q // 5),
        ("<type>16th</type><dot/><dot/>", 7 * Q // 16),
        ("", Q // 2),
        ("<type>maxima</type>", Q // 2),
    ], ids=["eighth-dot", "16th-dot", "eighth-triplet", "eighth-quintuplet",
            "16th-two-dots", "no-type", "unknown-type"])
    def test_grace_length_keeps_dots_and_tuplets(self, marks, length):
        body = ("<note><grace/><pitch><step>D</step><octave>5</octave></pitch>"
                f"<voice>1</voice>{marks}<staff>1</staff></note>" + _note("C", 5, 16))
        score = parse_musicxml(MINIMAL.format(divisions=4, body=body))
        (grace,) = [e for e in score.events() if e.grace]
        assert grace.duration == length and grace.onset == 0

    @pytest.mark.parametrize("marks", [
        "<type>eighth</type><dot/><dot/><dot/>",
        "<type>eighth</type><time-modification><actual-notes>three</actual-notes>"
        "<normal-notes>2</normal-notes></time-modification>",
        "<type>eighth</type><time-modification><normal-notes>2</normal-notes>"
        "</time-modification>",
        "<type>eighth</type><time-modification><actual-notes>0</actual-notes>"
        "<normal-notes>2</normal-notes></time-modification>",
        # 3/14 quarter, no whole number of ticks
        "<type>eighth</type><time-modification><actual-notes>7</actual-notes>"
        "<normal-notes>3</normal-notes></time-modification>",
    ], ids=["three-dots", "actual-text", "actual-missing", "actual-zero", "off-grid-tuplet"])
    def test_malformed_grace_marks_raise_parse_error(self, marks):
        body = ("<note><grace/><pitch><step>D</step><octave>5</octave></pitch>"
                f"<voice>1</voice>{marks}</note>" + _note("C", 5, 16))
        with pytest.raises(MusicXmlParseError, match="measure 1"):
            parse_musicxml(MINIMAL.format(divisions=4, body=body))

    def test_empty_measure_gets_nominal_duration(self):
        score = parse_musicxml(MINIMAL.format(divisions=4, body=""))
        assert score.measures[0].duration == 4 * Q

    def test_overfull_measure_extends_duration(self):
        body = _note("C", 4, 20)
        score = parse_musicxml(MINIMAL.format(divisions=4, body=body))
        assert score.measures[0].duration == 5 * Q

    def test_metadata_fields(self):
        doc = """<?xml version="1.0"?>
        <score-partwise version="4.0">
          <movement-title>Test Piece</movement-title>
          <identification><miscellaneous>
            <miscellaneous-field name="genre">waltz</miscellaneous-field>
            <miscellaneous-field name="source">piece007</miscellaneous-field>
          </miscellaneous></identification>
          <part-list><score-part id="P1"/></part-list>
          <part id="P1"><measure number="1">
            <attributes><divisions>1</divisions></attributes>
            <note><pitch><step>C</step><octave>4</octave></pitch>
            <duration>4</duration><voice>1</voice></note>
          </measure></part>
        </score-partwise>"""
        score = parse_musicxml(doc)
        assert score.title == "Test Piece"
        assert score.genre == "waltz"
        assert score.source_id == "piece007"

    def test_malformed_xml_rejected(self):
        with pytest.raises(MusicXmlParseError):
            parse_musicxml("<score-partwise><unclosed>")

    def test_timewise_rejected(self):
        with pytest.raises(UnsupportedStructureError):
            parse_musicxml("<score-timewise></score-timewise>")

    def test_multiple_parts_rejected(self):
        doc = """<score-partwise>
          <part-list/>
          <part id="P1"/><part id="P2"/>
        </score-partwise>"""
        with pytest.raises(UnsupportedStructureError):
            parse_musicxml(doc)

    def test_backup_before_measure_start_rejected(self):
        body = "<backup><duration>4</duration></backup>"
        with pytest.raises(MusicXmlParseError):
            parse_musicxml(MINIMAL.format(divisions=4, body=body))

    def test_overlap_within_voice_rejected(self):
        body = (_note("C", 4, 16)
                + "<backup><duration>8</duration></backup>"
                + _note("D", 4, 8))      # same voice 1, overlapping
        with pytest.raises(MusicXmlParseError):
            parse_musicxml(MINIMAL.format(divisions=4, body=body))

    def test_missing_divisions_rejected(self):
        doc = """<score-partwise><part-list/><part id="P1">
          <measure number="1">
            <note><pitch><step>C</step><octave>4</octave></pitch>
            <duration>4</duration><voice>1</voice></note>
          </measure></part></score-partwise>"""
        with pytest.raises(MusicXmlParseError):
            parse_musicxml(doc)

    @pytest.mark.parametrize("doc", [
        MINIMAL.format(divisions="four", body=_note("C", 4, 4)),
        MINIMAL.format(divisions=4, body=_note("C", 4, 4, voice="one")),
        MINIMAL.format(divisions=4, body=_note("C", 4, 4)).replace(
            "<beats>4</beats>", "<beats/>"),
        MINIMAL.format(divisions=0, body=_note("C", 4, 4)),
        MINIMAL.format(divisions=4, body=_note("H", 4, 4)),
        MINIMAL.format(divisions=4, body=_note("C", 40, 4)),
        MINIMAL.format(divisions=4, body=_note("C", 4, 0)),
    ], ids=["divisions-text", "voice-text", "empty-beats", "divisions-zero",
            "step-H", "octave-40", "duration-zero"])
    def test_malformed_values_raise_parse_error(self, doc):
        with pytest.raises(MusicXmlParseError, match="measure 1"):
            parse_musicxml(doc)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, enabled):
        good = MINIMAL.format(divisions=4, body=_note("C", 4, 4))
        bad = MINIMAL.format(divisions=4, body=_note("H", 4, 4))
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            parse_musicxml(good)
            assert gc.isenabled() is enabled
            with pytest.raises(MusicXmlParseError):
                parse_musicxml(bad)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("step, octave, message", [
        ("H", 4, "(KeyError: 'H')"),
        ("C", 40, "(ValueError: midi_number 492 out of range)"),
        ("C", "4.5", "(ValueError: invalid literal for int() with base 10: '4.5')"),
    ])
    def test_bad_pitch_raises_the_same_error_every_time(self, step, octave, message):
        doc = MINIMAL.format(divisions=4, body=_note("C", 4, 4) + _note(step, octave, 4))
        for _ in range(2):
            with pytest.raises(MusicXmlParseError) as exc:
                parse_musicxml(doc)
            assert str(exc.value) == f"measure 1: malformed value {message}"

    @pytest.mark.parametrize("doc, kind", [
        (MINIMAL.format(divisions=4, body=_note("C", 4, "1e400")), "OverflowError"),
        (MINIMAL.format(divisions=4, body=_note("C", 4, 4).replace(
            "<octave>", "<alter>1e400</alter><octave>")), "OverflowError"),
        (MINIMAL.format(divisions=4, body=_note("C", 4, 4)).replace(
            "<beat-type>4</beat-type>", "<beat-type>0</beat-type>"), "ValueError"),
        (MINIMAL.format(divisions=4, body=_note("C", 4, 4)).replace(
            "<beats>4</beats>", "<beats>-3</beats>"), "ValueError"),
    ], ids=["duration-1e400", "alter-1e400", "beat-type-zero", "beats-negative"])
    def test_unreadable_number_fails_at_its_measure(self, doc, kind):
        # the bad measure is followed by an empty one, whose length comes
        # from the time signature
        doc = doc.replace("</measure>", "</measure><measure number=\"2\"/>")
        with pytest.raises(MusicXmlParseError, match=f"^measure 1: malformed value \\({kind}: "):
            parse_musicxml(doc)

    @pytest.mark.parametrize("divisions", [0, -4])
    def test_divisions_below_one_fail_at_their_measure(self, divisions):
        # a <forward> under negative divisions would move back, and a measure
        # holding only that <forward> has no note to fail at
        doc = MINIMAL.format(divisions=divisions, body="<forward><duration>8</duration></forward>")
        with pytest.raises(MusicXmlParseError, match=r"^measure 1: malformed value \(ValueError: "
                           f"divisions must be positive, got {divisions}\\)$"):
            parse_musicxml(doc)

    def test_fractional_duration_fails_at_its_measure(self):
        for text in ("2", "2.0"):
            (ev,) = [e for e in parse_musicxml(MINIMAL.format(
                divisions=2, body=_note("C", 4, text))).events() if not e.hidden]
            assert ev.duration == Q
        doc = MINIMAL.format(divisions=2, body=_note("C", 4, "2.7"))
        with pytest.raises(MusicXmlParseError, match=r"^measure 1: malformed value "
                           r"\(ValueError: unsupported duration 2.7\)$"):
            parse_musicxml(doc)

    def test_fractional_alter_fails_at_its_measure(self):
        def doc(alter):
            return MINIMAL.format(divisions=2, body=_note("C", 4, 2).replace(
                "<octave>", f"<alter>{alter}</alter><octave>"))
        for text, name in (("1", "C#4"), ("-1.0", "Cb4")):
            (ev,) = [e for e in parse_musicxml(doc(text)).events() if not e.hidden]
            assert ev.pitch.name == name
        for text in ("0.5", "-0.5"):
            with pytest.raises(MusicXmlParseError, match=r"^measure 1: malformed value "
                               rf"\(ValueError: unsupported alter {text}\)$"):
                parse_musicxml(doc(text))

    def test_time_signature_rule(self):
        assert score_module.time_signature(6, 8) == (6, 8)
        assert score_module.measure_length((6, 8)) == 3 * Q
        assert score_module.measure_length(None) == 4 * Q
        for beats, beat_type in ((4, 0), (0, 4), (-3, 4)):
            with pytest.raises(ValueError, match=f"got {beats}/{beat_type}$"):
                score_module.time_signature(beats, beat_type)

    def test_time_signature_off_the_tick_grid_is_refused(self):
        assert score_module.measure_length((5, 3)) == 5 * 4 * Q // 3
        with pytest.raises(ValueError, match="^a measure of 4/7 is off the 1/960-quarter grid$"):
            score_module.time_signature(4, 7)
        doc = MINIMAL.format(divisions=4, body="").replace(
            "<beat-type>4</beat-type>", "<beat-type>7</beat-type>")
        with pytest.raises(MusicXmlParseError, match=r"^measure 1: malformed value "
                           r"\(ValueError: a measure of 4/7 is off"):
            parse_musicxml(doc)

    def test_additive_time_signature_reads_as_its_sum(self):
        doc = MINIMAL.format(divisions=2, body=_note("C", 4, 3) + _note("D", 4, 2)).replace(
            "<beats>4</beats><beat-type>4</beat-type>", "<beats>3+2</beats><beat-type>8</beat-type>")
        score = parse_musicxml(doc)
        assert score.measures[0].time_sig == (5, 8)
        assert "time:5/8" in lmx.encode(score)
        written = serialize_musicxml(score).decode()
        assert "<beats>5</beats>" in written and "+" not in written

    @pytest.mark.parametrize("beats", ["3+x", "3+", "3+2.5"])
    def test_additive_time_signature_with_a_bad_part_fails_at_its_measure(self, beats):
        doc = MINIMAL.format(divisions=2, body=_note("C", 4, 2)).replace(
            "<beats>4</beats>", f"<beats>{beats}</beats>")
        doc = doc.replace("</measure>", "</measure><measure number=\"2\"/>")
        with pytest.raises(MusicXmlParseError, match=r"^measure 1: malformed value "
                           r"\(ValueError: invalid literal for int\(\)"):
            parse_musicxml(doc)

    @pytest.mark.parametrize("body", [
        _note("C", 4, 1),
        _note("C", 4, 7) + "<forward><duration>1</duration></forward>",
        "<forward><duration>1</duration></forward>" + _note("C", 4, 7),
        "<note><grace/><pitch><step>D</step><octave>5</octave></pitch><voice>1</voice></note>"
        "<forward><duration>1</duration></forward>",
    ], ids=["duration", "measure-length", "onset", "grace-onset"])
    def test_position_off_the_tick_grid_fails_at_its_measure(self, body):
        # 1/7 quarter is no whole number of 1/960-quarter ticks
        doc = MINIMAL.format(divisions=7, body=body)
        with pytest.raises(MusicXmlParseError, match=r"^measure 1: \d+ of 7 divisions is off "
                           r"the 1/960-quarter grid$"):
            parse_musicxml(doc)

    def test_position_on_the_tick_grid_parses_at_any_divisions(self):
        # 1920 divisions per quarter: an even count is a whole number of ticks
        (ev,) = [e for e in parse_musicxml(MINIMAL.format(
            divisions=1920, body=_note("C", 4, 1922))).events() if not e.hidden]
        assert ev.duration == Q + 1
        with pytest.raises(MusicXmlParseError, match="^measure 1: 1921 of 1920 divisions"):
            parse_musicxml(MINIMAL.format(divisions=1920, body=_note("C", 4, 1921)))

    def test_quarter_text_is_in_lowest_terms(self):
        assert [score_module.quarter_text(t) for t in (0, Q, 3 * Q // 2, 5 * Q, Q // 3, 1, -Q // 2)] \
            == ["0", "1", "3/2", "5", "1/3", "1/960", "-1/2"]


class TestMxlContainer:
    def test_reads_compressed_archive(self, tmp_path, reference_piece):
        inner = serialize_musicxml(reference_piece)
        mxl = tmp_path / "piece.mxl"
        with zipfile.ZipFile(mxl, "w") as zf:
            zf.writestr("META-INF/container.xml",
                        '<container><rootfiles>'
                        '<rootfile full-path="score.xml"/>'
                        '</rootfiles></container>')
            zf.writestr("score.xml", inner)
        score = read_musicxml(str(mxl))
        assert semantic_signature(score) == semantic_signature(reference_piece)

    def test_archive_without_scores_rejected(self, tmp_path):
        mxl = tmp_path / "empty.mxl"
        with zipfile.ZipFile(mxl, "w") as zf:
            zf.writestr("readme.txt", "nothing here")
        with pytest.raises(MusicXmlParseError):
            read_musicxml(str(mxl))

    def test_member_over_the_cap_rejected(self, tmp_path, reference_piece, monkeypatch):
        inner = serialize_musicxml(reference_piece)
        mxl = tmp_path / "piece.mxl"
        with zipfile.ZipFile(mxl, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr("score.xml", inner)
        assert semantic_signature(read_musicxml(str(mxl))) == semantic_signature(reference_piece)
        monkeypatch.setattr(score_module, "MXL_MAX_MEMBER_BYTES", len(inner) - 1)
        with pytest.raises(MusicXmlParseError, match="cap"):
            read_musicxml(str(mxl))

    @pytest.mark.parametrize("method", [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED],
                             ids=["stored", "deflated"])
    def test_header_understating_the_size_rejected(self, tmp_path, monkeypatch, method):
        # a member of 64 KiB whose headers both claim 100 bytes, read under
        # a 1000-byte cap: the claim passes the check, the content must not;
        # zipfile stops at the claimed 100 bytes and their CRC then fails
        body = b"<score-partwise>" + b" " * 65536 + b"</score-partwise>"
        path = tmp_path / "liar.mxl"
        with zipfile.ZipFile(path, "w", method) as zf:
            zf.writestr("score.xml", body)
        blob = bytearray(path.read_bytes())
        local = blob.index(b"PK\x03\x04")
        central = blob.index(b"PK\x01\x02")
        blob[local + 22:local + 26] = (100).to_bytes(4, "little")
        blob[central + 24:central + 28] = (100).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with zipfile.ZipFile(path) as zf:
            assert zf.getinfo("score.xml").file_size == 100
        monkeypatch.setattr(score_module, "MXL_MAX_MEMBER_BYTES", 1000)
        with pytest.raises(MusicXmlParseError, match="score.xml"):
            read_musicxml(str(path))

    def test_missing_root_member_rejected(self, tmp_path):
        mxl = tmp_path / "dangling.mxl"
        with zipfile.ZipFile(mxl, "w") as zf:
            zf.writestr("META-INF/container.xml",
                        '<container><rootfiles>'
                        '<rootfile full-path="gone.xml"/>'
                        '</rootfiles></container>')
        with pytest.raises(MusicXmlParseError, match="gone.xml"):
            read_musicxml(str(mxl))


def test_unreadable_path_raises_parse_error_naming_it(tmp_path):
    folder = tmp_path / "a.musicxml"
    folder.mkdir()
    with pytest.raises(MusicXmlParseError, match=f"^{folder}: cannot read "
                       r"\((IsADirectoryError|PermissionError): "):
        read_musicxml(str(folder))
    with pytest.raises(MusicXmlParseError, match="cannot read .FileNotFoundError: "):
        read_musicxml(str(tmp_path / "missing.musicxml"))
    # an .mxl that is no zip is read as XML, and refused as such
    fake = tmp_path / "fake.mxl"
    fake.write_bytes(b"not a zip")
    with pytest.raises(MusicXmlParseError, match="^XML syntax error"):
        read_musicxml(str(fake))


class TestValidation:
    def test_two_staff_accepted(self, reference_piece):
        assert validate_two_staff(reference_piece) is reference_piece

    def test_single_staff_rejected(self):
        doc = """<score-partwise><part-list/><part id="P1">
          <measure number="1">
            <attributes><divisions>1</divisions></attributes>
            <note><pitch><step>C</step><octave>4</octave></pitch>
            <duration>4</duration><voice>1</voice></note>
          </measure></part></score-partwise>"""
        with pytest.raises(ValidationError):
            validate_two_staff(parse_musicxml(doc))

    def test_empty_score_rejected(self):
        with pytest.raises(ValidationError):
            validate_two_staff(Score(measures=()))


class TestSerialization:
    def test_reference_round_trip(self, reference_piece):
        xml = serialize_musicxml(reference_piece)
        back = parse_musicxml(xml)
        assert semantic_signature(back) == semantic_signature(reference_piece)
        assert back.measures[0].time_sig == (4, 4)
        assert back.measures[0].key_fifths == 0
        assert back.measures[0].clefs == ("G2", "F4")

    def test_corpus_round_trip(self, small_corpus):
        for score in small_corpus:
            back = parse_musicxml(serialize_musicxml(score))
            assert semantic_signature(back) == semantic_signature(score)
            assert back.genre == score.genre
            assert back.source_id == score.source_id

    def test_serialization_deterministic(self, small_corpus):
        for score in small_corpus[:3]:
            assert serialize_musicxml(score) == serialize_musicxml(score)

    def test_dotted_and_tuplet_grace_notes_survive_round_trip(self):
        lengths = [duration_for_type(name, dots, tuplet) for name in ("eighth", "16th")
                   for dots in range(3) for tuplet in (None,) + TUPLET_RATIOS]
        events = []
        for i, length in enumerate(lengths):
            events.append(NoteEvent(onset=i * Q, duration=length,
                                    pitch=Pitch.from_name("D5"), voice=1, staff=1, grace=True))
            events.append(NoteEvent(onset=i * Q, duration=Q,
                                    pitch=Pitch.from_name("C5"), voice=1, staff=1))
        score = Score(measures=(Measure(index=0, start=0,
                                        duration=len(lengths) * Q,
                                        events=tuple(events)),))
        back = parse_musicxml(serialize_musicxml(score))
        assert [(e.onset, e.duration) for e in back.events() if e.grace] == \
            [(i * Q, length) for i, length in enumerate(lengths)]
        assert back == score

    def test_ties_survive_round_trip(self, small_corpus):
        for score in small_corpus:
            back = parse_musicxml(serialize_musicxml(score))
            want = sorted((e.onset, e.pitch.midi_number)
                          for e in score.notes() if e.tie_start)
            got = sorted((e.onset, e.pitch.midi_number)
                         for e in back.notes() if e.tie_start)
            assert got == want


class TestTimeline:
    def test_reference_segments(self, reference_piece):
        segs = timeline(reference_piece)
        bounds = [(s.start, s.end) for s in segs]
        assert bounds == [(0, Q), (Q, 2 * Q), (2 * Q, 4 * Q), (4 * Q, 8 * Q)]
        tops = [[p.name for p in s.pitches] for s in segs]
        assert tops == [["C3", "C5"], ["C3", "E5"], ["C3", "G5"], ["G3", "D5"]]

    def test_partition_covers_score(self, small_corpus):
        for score in small_corpus:
            segs = timeline(score)
            assert segs[0].start == 0
            assert segs[-1].end == score.total_duration
            for a, b in zip(segs, segs[1:]):
                assert a.end == b.start
            assert all(s.end > s.start for s in segs)

    def test_pitches_sorted_and_unique(self, small_corpus):
        for score in small_corpus:
            for seg in timeline(score):
                midis = [p.midi_number for p in seg.pitches]
                assert midis == sorted(midis)
                assert len(midis) == len(set(midis))

    def test_tie_chain_merges_into_one_interval(self):
        def note(onset, dur, **kw):
            return NoteEvent(onset=onset * Q, duration=dur * Q,
                             pitch=Pitch.from_name("C4"), **kw)

        m1 = Measure(index=0, start=0, duration=4 * Q,
                     events=(note(0, 4, tie_start=True),))
        m2 = Measure(index=1, start=4 * Q, duration=4 * Q,
                     events=(note(4, 4, tie_stop=True),))
        score = Score(measures=(m1, m2), n_staves=2)
        intervals = merged_sounding_intervals(score)
        assert len(intervals) == 1
        assert intervals[0][:2] == (0, 8 * Q)
        segs = timeline(score)
        assert len(segs) == 1

    def test_repeated_notes_without_ties_stay_separate(self):
        def note(onset):
            return NoteEvent(onset=onset * Q, duration=Q,
                             pitch=Pitch.from_name("C4"))

        m = Measure(index=0, start=0, duration=2 * Q,
                    events=(note(0), note(1)))
        score = Score(measures=(m,), n_staves=2)
        assert len(merged_sounding_intervals(score)) == 2

    def test_empty_score_has_no_segments(self):
        assert timeline(Score(measures=())) == []
