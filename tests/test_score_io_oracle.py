"""MusicXML writing and the duration table against the ElementTree forms.

``serialize_musicxml`` writes its text directly, and ``type_for_duration``
looks a duration up in a table built at import.  The ElementTree writer and
the search they replaced live on here as oracles: every score must give the
same bytes, and every duration the same reading.  Parsing counts integer
ticks per measure; the hand-written documents below pin its results,
hidden rests and errors included.
"""

import io
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import semantic_signature
from gradus import analysis, lmx
from gradus.fixtures import generate_corpus
from gradus.score import (
    DURATION_TYPES,
    TUPLET_RATIOS,
    Measure,
    MusicXmlParseError,
    NoteEvent,
    Pitch,
    Score,
    duration_for_type,
    parse_musicxml,
    serialize_musicxml,
    type_for_duration,
)
from test_timeline_oracle import NAMES

GRID = Fraction(1, 6)   # the step of the strategies' non-grace onsets and lengths
_DOT_FACTORS = (Fraction(1), Fraction(3, 2), Fraction(7, 4))


def search_type_for_duration(quarters):
    """Try every tuplet ratio, dot count and type in turn; the first fit wins."""
    if quarters <= 0:
        return None
    for ratio in ((1, 1),) + TUPLET_RATIOS:
        actual, normal = ratio
        notated = quarters * actual / normal
        for dots, factor in enumerate(_DOT_FACTORS):
            base = notated / factor
            for name, length in DURATION_TYPES.items():
                if base == length:
                    tuplet = None if ratio == (1, 1) else ratio
                    return name, dots, tuplet
    return None


def tree_serialize(score):
    """Build the ElementTree, indent it and let ElementTree write the bytes."""
    root = ET.Element("score-partwise", version="4.0")
    if score.title:
        ET.SubElement(root, "movement-title").text = score.title
    misc_pairs = [(n, v) for n, v in (("genre", score.genre), ("source", score.source_id)) if v]
    if misc_pairs:
        ident = ET.SubElement(root, "identification")
        misc = ET.SubElement(ident, "miscellaneous")
        for name, value in misc_pairs:
            f = ET.SubElement(misc, "miscellaneous-field", name=name)
            f.text = value
    part_list = ET.SubElement(root, "part-list")
    sp = ET.SubElement(part_list, "score-part", id="P1")
    ET.SubElement(sp, "part-name").text = "Piano"
    part = ET.SubElement(root, "part", id="P1")

    prev_divisions = None
    for measure in score.measures:
        m_el = ET.SubElement(part, "measure", number=str(measure.index + 1))
        divisions = tree_measure_divisions(measure)
        attrs_needed = (divisions != prev_divisions or measure.key_fifths is not None
                        or measure.time_sig is not None or any(measure.clefs)
                        or measure.index == 0)
        if attrs_needed:
            attrs = ET.SubElement(m_el, "attributes")
            if divisions != prev_divisions:
                ET.SubElement(attrs, "divisions").text = str(divisions)
                prev_divisions = divisions
            if measure.key_fifths is not None:
                key = ET.SubElement(attrs, "key")
                ET.SubElement(key, "fifths").text = str(measure.key_fifths)
            if measure.time_sig is not None:
                time = ET.SubElement(attrs, "time")
                ET.SubElement(time, "beats").text = str(measure.time_sig[0])
                ET.SubElement(time, "beat-type").text = str(measure.time_sig[1])
            if measure.index == 0:
                ET.SubElement(attrs, "staves").text = str(score.n_staves)
            for staff_no, clef in enumerate(measure.clefs, start=1):
                if clef:
                    c = ET.SubElement(attrs, "clef", number=str(staff_no))
                    ET.SubElement(c, "sign").text = clef[:1]
                    if clef[1:]:
                        ET.SubElement(c, "line").text = clef[1:]
        tree_write_measure_events(m_el, measure, divisions)

    buf = io.BytesIO()
    ET.indent(root)
    tree = ET.ElementTree(root)
    tree.write(buf, encoding="UTF-8", xml_declaration=True)
    return buf.getvalue()


def tree_measure_divisions(measure):
    denoms = [1]
    for ev in measure.events:
        if ev.grace:
            continue
        denoms.append(ev.duration.denominator)
        denoms.append((ev.onset - measure.start).denominator)
    return lcm(*denoms)


def tree_write_measure_events(m_el, measure, divisions):
    voices = sorted({ev.voice for ev in measure.events})
    cursor = Fraction(0)  # in quarters, relative to measure start
    for voice in voices:
        if cursor != 0:
            backup = ET.SubElement(m_el, "backup")
            ET.SubElement(backup, "duration").text = str(int(cursor * divisions))
            cursor = Fraction(0)
        evs = [ev for ev in measure.events if ev.voice == voice]
        groups = {}
        for ev in evs:
            groups.setdefault(ev.onset, []).append(ev)
        for onset in sorted(groups):
            rel = onset - measure.start
            if rel > cursor:
                fwd = ET.SubElement(m_el, "forward")
                ET.SubElement(fwd, "duration").text = str(int((rel - cursor) * divisions))
                cursor = rel
            group = sorted(groups[onset], key=lambda e: (not e.grace, e.chord))
            first_sounding = True
            for ev in group:
                tree_write_note(m_el, ev, divisions, chord=not ev.grace and not first_sounding)
                if not ev.grace:
                    if first_sounding:
                        cursor = rel + ev.duration
                    first_sounding = False


def tree_write_note(m_el, ev, divisions, chord):
    note = ET.SubElement(m_el, "note")
    if ev.hidden:
        note.set("print-object", "no")
    if ev.grace:
        ET.SubElement(note, "grace")
    if chord:
        ET.SubElement(note, "chord")
    if ev.pitch is None:
        ET.SubElement(note, "rest")
    else:
        p = ET.SubElement(note, "pitch")
        ET.SubElement(p, "step").text = ev.pitch.step
        if ev.pitch.alter:
            ET.SubElement(p, "alter").text = str(ev.pitch.alter)
        ET.SubElement(p, "octave").text = str(ev.pitch.octave)
    if not ev.grace:
        ET.SubElement(note, "duration").text = str(int(ev.duration * divisions))
    for flag, kind in ((ev.tie_stop, "stop"), (ev.tie_start, "start")):
        if flag:
            ET.SubElement(note, "tie", type=kind)
    ET.SubElement(note, "voice").text = str(ev.voice)
    decomposed = search_type_for_duration(ev.duration)
    if decomposed is not None:
        name, dots, tuplet = decomposed
        ET.SubElement(note, "type").text = name
        for _ in range(dots):
            ET.SubElement(note, "dot")
        if tuplet is not None:
            tm = ET.SubElement(note, "time-modification")
            ET.SubElement(tm, "actual-notes").text = str(tuplet[0])
            ET.SubElement(tm, "normal-notes").text = str(tuplet[1])
    ET.SubElement(note, "staff").text = str(ev.staff)


# ---------------------------------------------------------------------------
# The duration table

def test_table_matches_the_search_on_a_fine_grid():
    for k in range(1, 2001):
        quarters = Fraction(k, 240)
        assert type_for_duration(quarters) == search_type_for_duration(quarters), quarters


@pytest.mark.parametrize("quarters", [Fraction(0), Fraction(-1), Fraction(-1, 3), -4])
def test_table_has_no_reading_for_zero_or_negative(quarters):
    assert type_for_duration(quarters) is None
    assert search_type_for_duration(quarters) is None


# ---------------------------------------------------------------------------
# Scores: the timeline strategy's measures, extended with what the writer
# distinguishes (hidden rests, chords, grace notes, dots, tuplets, empty
# measures, attributes and text that needs escaping)

TEXT = st.one_of(st.none(), st.text(st.sampled_from(list("&<>\"' aZé中Ω ")), max_size=12))
# every length a note can be written with: plain, dotted, twice dotted, 3:2 and 5:4
LENGTHS = sorted({duration_for_type(name, dots, tuplet)
                  for name in ("half", "quarter", "eighth", "16th")
                  for dots in range(3) for tuplet in (None,) + TUPLET_RATIOS})
# grace notes carry their dots and time modification too
GRACE_LENGTHS = sorted({duration_for_type(name, dots, tuplet)
                        for name in ("eighth", "16th", "32nd")
                        for dots in range(3) for tuplet in (None,) + TUPLET_RATIOS})
TIME_SIGS = (None, (4, 4), (3, 4), (6, 8), (7, 8))
CLEFS = (None, "G2", "F4", "C3", "G", "&<")


@st.composite
def voice_line(draw, start, voice, staff):
    """One voice laid end to end from ``start``; returns its events and end."""
    events, cursor = [], start

    def pitched(length, **kw):
        return NoteEvent(onset=cursor, duration=length,
                         pitch=Pitch.from_name(draw(st.sampled_from(NAMES))),
                         voice=voice, staff=staff, **kw)

    for _ in range(draw(st.integers(0, 5))):
        length = draw(st.sampled_from(LENGTHS))
        if draw(st.integers(0, 3)) == 0:
            events.append(pitched(draw(st.sampled_from(GRACE_LENGTHS)), grace=True))
        kind = draw(st.sampled_from(("note", "chord", "rest", "hidden rest")))
        if kind.endswith("rest"):
            events.append(NoteEvent(onset=cursor, duration=length, pitch=None, voice=voice,
                                    staff=staff, hidden=kind == "hidden rest"))
        else:
            events.append(pitched(length, tie_start=draw(st.booleans()),
                                  tie_stop=draw(st.booleans())))
            if kind == "chord":
                events.extend(pitched(length, chord=True)
                              for _ in range(draw(st.integers(1, 2))))
        cursor += length
    return events, cursor


@st.composite
def loose_events(draw, start, length):
    """Events on one 1/6 grid whose voices may overlap."""
    events = []
    for _ in range(draw(st.integers(0, 4))):
        grace = draw(st.integers(0, 3)) == 0
        # a grace note may sit off the grid the other notes set
        onset = (start + Fraction(draw(st.integers(0, 7 * length)), 7 * 6) if grace
                 else start + draw(st.integers(0, length - 1)) * GRID)
        events.append(NoteEvent(
            onset=onset, duration=draw(st.integers(1, 18)) * GRID,
            pitch=draw(st.one_of(st.none(), st.sampled_from(NAMES).map(Pitch.from_name))),
            voice=draw(st.integers(1, 3)), staff=draw(st.integers(1, 2)),
            tie_start=draw(st.booleans()), tie_stop=draw(st.booleans()),
            chord=draw(st.booleans()), grace=grace, hidden=draw(st.booleans())))
    return events


@st.composite
def scores(draw, loose=False):
    """Scores whose voices are laid end to end, so they survive a round trip.

    With ``loose``, some measures also get overlapping events, which only
    the byte comparison can take.
    """
    measures = []
    start = Fraction(0)
    time_sig = None
    for index in range(draw(st.integers(1, 4))):
        m_time = draw(st.sampled_from(TIME_SIGS))
        time_sig = m_time or time_sig
        events, end = [], start
        for voice in range(1, draw(st.integers(0, 3)) + 1):
            line, line_end = draw(voice_line(start, voice, draw(st.integers(1, 2))))
            events += line
            end = max(end, line_end)
        if loose and draw(st.booleans()):
            events += draw(loose_events(start, draw(st.integers(6, 24))))
            end = max([end] + [ev.end for ev in events if not ev.grace])
        if end > start:
            duration = end - start
        elif time_sig is not None:
            duration = Fraction(time_sig[0] * 4, time_sig[1])
        else:
            duration = Fraction(4)
        measures.append(Measure(
            index=index, start=start, duration=duration, events=tuple(events),
            time_sig=m_time, key_fifths=draw(st.one_of(st.none(), st.integers(-7, 7))),
            clefs=(draw(st.sampled_from(CLEFS)), draw(st.sampled_from(CLEFS)))))
        start += duration
    return Score(measures=tuple(measures), title=draw(TEXT), genre=draw(TEXT),
                 source_id=draw(TEXT), n_staves=draw(st.integers(1, 3)))


@settings(max_examples=300, deadline=None)
@given(scores(loose=True))
def test_writer_bytes_match_the_tree_writer(score):
    assert serialize_musicxml(score) == tree_serialize(score)


@settings(max_examples=200, deadline=None)
@given(scores())
def test_parse_of_serialize_keeps_the_semantic_signature(score):
    back = parse_musicxml(serialize_musicxml(score))
    assert semantic_signature(back) == semantic_signature(score)
    assert [m.start for m in back.measures] == [m.start for m in score.measures]


def test_fixture_corpus_and_its_derived_scores_match_the_tree_writer():
    for piece in generate_corpus(12, seed=9090):
        for score in (piece, analysis.skyline_score(piece), lmx.decode(lmx.encode(piece))):
            assert serialize_musicxml(score) == tree_serialize(score), piece.source_id


def test_text_the_encoder_cannot_take_becomes_a_character_reference():
    score = Score(measures=(), title="lone \ud800 surrogate", genre="tab\there\r\nnext",
                  source_id="a&b<c>d\"e'f")
    written = serialize_musicxml(score)
    assert written == tree_serialize(score)
    assert b"lone &#55296; surrogate" in written
    assert written.endswith(b'<part id="P1" />\n</score-partwise>')


# ---------------------------------------------------------------------------
# Parsing: hand-written documents, expected values from the Fraction-based
# parser that tick counting replaced

HEAD = """<?xml version="1.0" encoding="UTF-8"?>
<score-partwise version="4.0">
  <part-list><score-part id="P1"><part-name>Piano</part-name></score-part></part-list>
  <part id="P1">
{measures}
  </part>
</score-partwise>
"""


def note(step, octave, duration=None, voice=1, staff=1, pre="", post=""):
    dur = "" if duration is None else f"<duration>{duration}</duration>"
    return (f"<note>{pre}<pitch><step>{step}</step><octave>{octave}</octave></pitch>"
            f"{dur}<voice>{voice}</voice>{post}<staff>{staff}</staff></note>")


def move(kind, duration):
    return f"<{kind}><duration>{duration}</duration></{kind}>"


GAPS = HEAD.format(measures="".join([
    '<measure number="1"><attributes><divisions>4</divisions>'
    "<time><beats>4</beats><beat-type>4</beat-type></time><staves>2</staves></attributes>",
    note("C", 5, 4),
    move("forward", 2),
    note("D", 5, pre="<grace/>", post="<type>16th</type>"),
    move("forward", 2),
    note("E", 5, 4),
    note("G", 5, 4, pre="<chord/>"),
    move("backup", 8),
    note("C", 3, 8, voice=2, staff=2),
    "</measure>",
    '<measure number="2">',
    note("F", 5, 16, post='<tie type="start"/>'),
    move("backup", 16),
    move("forward", 12),
    # a chord note takes the onset of the last note before it, not the cursor
    note("A", 2, 2, voice=2, staff=2, pre="<chord/>"),
    "</measure>",
]))

# <divisions> changes inside measure 1; the position counted so far is read
# in the new divisions from then on
DIVISIONS = HEAD.format(measures="".join([
    '<measure number="1"><attributes><divisions>1</divisions><staves>2</staves></attributes>',
    note("C", 4, 1),
    "<attributes><divisions>3</divisions></attributes>",
    move("forward", 2),
    note("D", 4, 1),
    note("E", 4, 2),
    move("backup", 6),
    note("G", 3, 6, voice=2, staff=2),
    "</measure>",
    '<measure number="2"><attributes><time><beats>3</beats><beat-type>4</beat-type></time>'
    "</attributes>",
    note("C", 4, 1), note("D", 4, 1), note("E", 4, 1),
    move("forward", 5),
    "</measure>",
    '<measure number="3"><attributes><time><beats>7</beats><beat-type>8</beat-type></time>'
    "</attributes>",
    note("B", 4, pre="<grace/>", post="<type>eighth</type>"),
    "</measure>",
    '<measure number="4">',
    note("C", 4, 2, voice=2, staff=2),
    "</measure>",
]))


def summary(score):
    """Per measure: start, duration and each event as strings and flags."""
    flags = (("c", "chord"), ("g", "grace"), ("h", "hidden"), ("s", "tie_start"),
             ("t", "tie_stop"))
    return [(str(m.start), str(m.duration), [
        (str(ev.onset), str(ev.duration), ev.pitch.name if ev.pitch else None, ev.voice,
         ev.staff, "".join(c for c, name in flags if getattr(ev, name)))
        for ev in m.events]) for m in score.measures]


def test_forward_and_backup_gaps_grace_and_chords():
    assert summary(parse_musicxml(GAPS)) == [
        ("0", "3", [("0", "1", "C5", 1, 1, ""), ("0", "1", None, 2, 2, "h"),
                    ("1", "1", None, 1, 1, "h"), ("1", "2", "C3", 2, 2, ""),
                    ("3/2", "1/4", "D5", 1, 1, "g"), ("2", "1", "E5", 1, 1, ""),
                    ("2", "1", "G5", 1, 1, "c")]),
        ("3", "4", [("3", "4", "F5", 1, 1, "s"), ("3", "1/2", "A2", 2, 2, "c"),
                    ("7/2", "7/2", None, 2, 2, "h")]),
    ]


def test_divisions_changing_inside_a_measure():
    assert summary(parse_musicxml(DIVISIONS)) == [
        ("0", "2", [("0", "1", "C4", 1, 1, ""), ("0", "2", "G3", 2, 2, ""),
                    ("1", "1/3", "D4", 1, 1, ""), ("4/3", "2/3", "E4", 1, 1, "")]),
        ("2", "8/3", [("2", "1/3", "C4", 1, 1, ""), ("7/3", "1/3", "D4", 1, 1, ""),
                      ("8/3", "1/3", "E4", 1, 1, ""), ("3", "5/3", None, 1, 1, "h")]),
        ("14/3", "7/2", [("14/3", "1/2", "B4", 1, 1, "g")]),
        ("49/6", "2/3", [("49/6", "2/3", "C4", 2, 2, "")]),
    ]


def test_divisions_change_that_overlaps_an_earlier_note_is_rejected():
    doc = HEAD.format(measures="".join([
        '<measure number="1"><attributes><divisions>1</divisions></attributes>',
        note("C", 4, 1),
        "<attributes><divisions>3</divisions></attributes>",
        note("D", 4, 1),
        "</measure>"]))
    with pytest.raises(MusicXmlParseError, match="measure 1: overlapping events in voice 1"):
        parse_musicxml(doc)


def test_first_child_of_a_tag_is_the_one_read():
    doc = HEAD.format(measures="".join([
        '<measure number="1"><attributes><divisions>2</divisions></attributes>',
        "<note><pitch><step>D</step><octave>4</octave></pitch><duration>2</duration>"
        "<duration>6</duration><voice>2</voice><voice>1</voice><staff> </staff></note>",
        "</measure>"]))
    assert summary(parse_musicxml(doc)) == [("0", "1", [("0", "1", "D4", 2, 1, "")])]
