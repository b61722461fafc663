"""MusicXML writing, parsing and the duration table against their older forms.

``serialize_musicxml`` writes its text directly, and ``type_for_duration``
looks a duration up in a table built at import.  The ElementTree writer and
the search they replaced live on here as oracles: every score must give the
same bytes, and every duration the same reading.  Parsing counts integer
ticks per measure; the hand-written documents below pin its results,
hidden rests and errors included.  ``parse_musicxml`` reads each note's
children in one pass; the parser that built a dict of them per note lives
on here as ``reference_parse``, and both must read every document, mutated
ones included, to equal scores or to the same error.

The oracles count time in Fractions of a quarter and convert at their
boundary: the tree writer reads the score through ``in_quarters``, and the
reference parser's score is compared through ``in_ticks``.  The reference
parser turns each duration into quarters with the divisions current at
its element, as MusicXML defines them, and refuses a value off the
1/960-quarter tick grid there, with the parser's message.
"""

import copy
import io
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import isfinite
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import semantic_signature
from gradus import analysis, lmx
from gradus.fixtures import generate_corpus
from gradus.score import TICKS_PER_QUARTER as Q
from gradus.score import (
    DURATION_TYPES,
    TUPLET_RATIOS,
    Measure,
    MusicXmlParseError,
    NoteEvent,
    Pitch,
    Score,
    UnsupportedStructureError,
    duration_for_type,
    parse_musicxml,
    serialize_musicxml,
    type_for_duration,
)
from test_timeline_oracle import NAMES, in_quarters, in_ticks, ticks

GRID = Q // 6   # the step in ticks of the strategies' non-grace onsets and lengths
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
                if base == Fraction(length, Q):
                    tuplet = None if ratio == (1, 1) else ratio
                    return name, dots, tuplet
    return None


def tree_serialize(score):
    """Build the ElementTree, indent it and let ElementTree write the bytes."""
    score = in_quarters(score)
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

    for position, measure in enumerate(score.measures):
        m_el = ET.SubElement(part, "measure", number=str(measure.index + 1))
        attrs_needed = (position == 0 or measure.key_fifths is not None
                        or measure.time_sig is not None or any(measure.clefs)
                        or measure.index == 0)
        if attrs_needed:
            attrs = ET.SubElement(m_el, "attributes")
            if position == 0:
                # every duration is written in ticks
                ET.SubElement(attrs, "divisions").text = str(Q)
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
        tree_write_measure_events(m_el, measure)

    buf = io.BytesIO()
    ET.indent(root)
    tree = ET.ElementTree(root)
    tree.write(buf, encoding="UTF-8", xml_declaration=True)
    return buf.getvalue()


def tree_write_measure_events(m_el, measure):
    voices = sorted({ev.voice for ev in measure.events})
    cursor = Fraction(0)  # in quarters, relative to measure start
    for voice in voices:
        if cursor != 0:
            backup = ET.SubElement(m_el, "backup")
            ET.SubElement(backup, "duration").text = str(ticks(cursor))
            cursor = Fraction(0)
        evs = [ev for ev in measure.events if ev.voice == voice]
        groups = {}
        for ev in evs:
            groups.setdefault(ev.onset, []).append(ev)
        for onset in sorted(groups):
            rel = onset - measure.start
            if rel > cursor:
                fwd = ET.SubElement(m_el, "forward")
                ET.SubElement(fwd, "duration").text = str(ticks(rel - cursor))
                cursor = rel
            group = sorted(groups[onset], key=lambda e: (not e.grace, e.chord))
            first_sounding = True
            for ev in group:
                tree_write_note(m_el, ev, chord=not ev.grace and not first_sounding)
                if not ev.grace:
                    if first_sounding:
                        cursor = rel + ev.duration
                    first_sounding = False


def tree_write_note(m_el, ev, chord):
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
        ET.SubElement(note, "duration").text = str(ticks(ev.duration))
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
        assert type_for_duration(ticks(quarters)) == search_type_for_duration(quarters), quarters


@pytest.mark.parametrize("quarters", [Fraction(0), Fraction(-1), Fraction(-1, 3), -4])
def test_table_has_no_reading_for_zero_or_negative(quarters):
    assert type_for_duration(ticks(quarters)) is None
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
        # a grace note may sit off the grid the other notes set, on a 1/30 grid
        onset = (start + draw(st.integers(0, 5 * length)) * (Q // 30) if grace
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
    start = 0
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
            duration = time_sig[0] * 4 * Q // time_sig[1]
        else:
            duration = 4 * Q
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
# Parsing: hand-written documents and the readings MusicXML gives them

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

# <divisions> changes inside measure 1; it sets the unit of the durations
# after it, and the time counted before it stays as it was
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
    """Per measure: start, duration and each event as strings in quarters, and flags."""
    score = in_quarters(score)
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
    # Measure 1: C4 takes [0, 1) at divisions 1.  At divisions 3 the forward
    # of 2 moves to 1 + 2/3 = 5/3, D4 takes [5/3, 2) and E4 [2, 8/3); the
    # backup of 6 returns to 8/3 - 2 = 2/3, where G3 takes [2/3, 8/3).  The
    # measure is 8/3 long; hidden rests fill [1, 5/3) in voice 1 and
    # [0, 2/3) in voice 2.  Measure 2, still at divisions 3, starts at 8/3:
    # three notes of 1/3 and a forward of 5/3 make it 8/3 long, its hidden
    # rest filling [11/3, 16/3).  Measure 3 holds a grace note only, so it
    # is a full 7/8 measure, 7/2 long; measure 4 starts at 16/3 + 7/2 = 53/6.
    assert summary(parse_musicxml(DIVISIONS)) == [
        ("0", "8/3", [("0", "1", "C4", 1, 1, ""), ("0", "2/3", None, 2, 2, "h"),
                      ("2/3", "2", "G3", 2, 2, ""), ("1", "2/3", None, 1, 1, "h"),
                      ("5/3", "1/3", "D4", 1, 1, ""), ("2", "2/3", "E4", 1, 1, "")]),
        ("8/3", "8/3", [("8/3", "1/3", "C4", 1, 1, ""), ("3", "1/3", "D4", 1, 1, ""),
                        ("10/3", "1/3", "E4", 1, 1, ""), ("11/3", "5/3", None, 1, 1, "h")]),
        ("16/3", "7/2", [("16/3", "1/2", "B4", 1, 1, "g")]),
        ("53/6", "2/3", [("53/6", "2/3", "C4", 2, 2, "")]),
    ]


def test_divisions_change_that_overlaps_an_earlier_note_is_rejected():
    # C4 takes [0, 2); the backup of 3 at divisions 3 returns to 1, inside it
    doc = HEAD.format(measures="".join([
        '<measure number="1"><attributes><divisions>1</divisions></attributes>',
        note("C", 4, 2),
        "<attributes><divisions>3</divisions></attributes>",
        move("backup", 3),
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


# ---------------------------------------------------------------------------
# Parsing: the per-note dict parser as the oracle

def reference_parse(document: bytes | str) -> Score:
    """``parse_musicxml`` as it was before one pass per note: a dict of each
    note's children, ``findall("tie")`` and a pitch cache per document keyed
    by the raw texts.  Plain documents only.  Times are Fractions of a
    quarter, each duration read in the divisions current at its element."""
    if isinstance(document, str):
        document = document.encode("utf-8")
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise MusicXmlParseError(f"XML syntax error: {exc}") from exc
    if root.tag != "score-partwise":
        raise UnsupportedStructureError(f"expected score-partwise, found {root.tag!r}")

    parts = root.findall("part")
    if len(parts) != 1:
        raise UnsupportedStructureError(
            f"expected exactly one part, found {len(parts)}")
    part = parts[0]

    title = ref_first_text(root, ("movement-title", "work/work-title"))
    genre = ref_misc_field(root, "genre")
    source_id = ref_misc_field(root, "source")

    divisions: Optional[int] = None
    declared_staves = 1
    time_sig: Optional[tuple[int, int]] = None
    measures: list[Measure] = []
    cursor = Fraction(0)
    # equal spellings share one Pitch
    pitches: dict[tuple[Optional[str], ...], Pitch] = {}

    for m_index, m_elem in enumerate(part.findall("measure")):
        try:
            m_time: Optional[tuple[int, int]] = None
            m_key: Optional[int] = None
            m_clefs: list[Optional[str]] = [None, None]
            raw: list[NoteEvent] = []
            pos = Fraction(0)       # quarters from measure start
            maxpos = Fraction(0)
            last_onset = pos        # onset of the most recent non-chord note

            for elem in m_elem:
                tag = elem.tag
                if tag == "note":
                    # the first child of each tag, as find() would return it
                    children = {child.tag: child for child in reversed(elem)}
                    is_grace = "grace" in children
                    is_chord = "chord" in children
                    voice = int(ref_text(children.get("voice")) or 1)
                    staff = int(ref_text(children.get("staff")) or 1)
                    declared_staves = max(declared_staves, staff)
                    if staff > 2:
                        # keep parsing; validate_two_staff reports the violation
                        staff = 2
                    hidden = elem.get("print-object") == "no"
                    ties = {t.get("type") for t in elem.findall("tie")}

                    pitch = None
                    if "rest" not in children:
                        p_el = children.get("pitch")
                        if p_el is None:
                            raise MusicXmlParseError(
                                f"measure {m_index + 1}: note with neither pitch nor rest")
                        spelling = (p_el.findtext("step"), p_el.findtext("alter"),
                                    p_el.findtext("octave"))
                        pitch = pitches.get(spelling)
                        if pitch is None:
                            step, alter, octave = (t.strip() if t else None for t in spelling)
                            pitch = pitches[spelling] = Pitch.from_parts(
                                step or "C", ref_whole(alter or "0", "alter"), int(octave or 4))

                    if is_grace:
                        raw.append(NoteEvent(
                            onset=cursor + pos, duration=ref_grace_length(elem, children),
                            pitch=pitch, voice=voice, staff=staff,
                            grace=True, hidden=hidden))
                        continue

                    length = ref_required_duration(children.get("duration"), tag, m_index,
                                                   divisions)
                    raw.append(NoteEvent(
                        onset=cursor + (last_onset if is_chord else pos), duration=length,
                        pitch=pitch, voice=voice, staff=staff,
                        tie_start="start" in ties, tie_stop="stop" in ties,
                        chord=is_chord, hidden=hidden))
                    if not is_chord:
                        last_onset = pos
                        pos += length
                        maxpos = max(maxpos, pos)
                elif tag == "attributes":
                    div_el = elem.find("divisions")
                    if div_el is not None and div_el.text:
                        divisions = int(div_el.text)
                        if divisions < 1:
                            raise ValueError(f"divisions must be positive, got {divisions}")
                    staves_el = elem.find("staves")
                    if staves_el is not None and staves_el.text:
                        declared_staves = max(declared_staves, int(staves_el.text))
                    fifths = elem.find("key/fifths")
                    if fifths is not None and fifths.text:
                        m_key = int(fifths.text)
                    beats = elem.find("time/beats")
                    beat_type = elem.find("time/beat-type")
                    if beats is not None and beat_type is not None:
                        m_time = (int(beats.text), int(beat_type.text))
                        time_sig = m_time
                    for clef in elem.findall("clef"):
                        number = int(clef.get("number", "1"))
                        sign = ref_first_text(clef, ("sign",)) or "G"
                        line = ref_first_text(clef, ("line",)) or ""
                        if 1 <= number <= 2:
                            m_clefs[number - 1] = f"{sign}{line}"
                        declared_staves = max(declared_staves, number)
                elif tag == "backup":
                    pos -= ref_required_duration(elem.find("duration"), tag, m_index, divisions)
                    if pos < 0:
                        raise MusicXmlParseError(
                            f"measure {m_index + 1}: backup before measure start")
                elif tag == "forward":
                    pos += ref_required_duration(elem.find("duration"), tag, m_index, divisions)
                    maxpos = max(maxpos, pos)
                # directions, barlines, harmony, prints, sounds: no timing content

            if maxpos > 0:
                m_duration = maxpos
            elif time_sig is not None:
                m_duration = Fraction(time_sig[0] * 4, time_sig[1])
            else:
                m_duration = Fraction(4)

            events = ref_fill_voice_gaps(raw, cursor, m_duration, m_index)
            measures.append(Measure(
                index=m_index, start=cursor, duration=m_duration,
                events=tuple(events), time_sig=m_time, key_fifths=m_key,
                clefs=(m_clefs[0], m_clefs[1])))
            cursor += m_duration
        except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
            # int() of bad text, a missing <beats>, divisions below 1, an unknown
            # step, or a pitch or duration that Pitch/NoteEvent reject
            raise MusicXmlParseError(f"measure {m_index + 1}: malformed value "
                                     f"({type(exc).__name__}: {exc})") from exc

    observed = max((ev.staff for m in measures for ev in m.events), default=1)
    return Score(
        measures=tuple(measures), title=title, genre=genre, source_id=source_id,
        n_staves=max(declared_staves, observed))


def ref_required_duration(duration: Optional[ET.Element], tag: str, m_index: int,
                          divisions: Optional[int]) -> Fraction:
    """A ``<duration>`` in quarters: its units of ``1/divisions`` quarter;
    refused off the tick grid, as the parser refuses it."""
    text = ref_text(duration)
    if text is None:
        raise MusicXmlParseError(f"measure {m_index + 1}: <{tag}> without duration")
    value = ref_whole(text, "duration")
    if value < 0:
        raise MusicXmlParseError(f"measure {m_index + 1}: negative duration")
    if divisions is None:
        raise MusicXmlParseError(f"measure {m_index + 1}: missing divisions attribute")
    if value * Q % divisions:
        raise MusicXmlParseError(f"measure {m_index + 1}: {value} of {divisions} divisions "
                                 f"is off the 1/{Q}-quarter grid")
    return Fraction(value, divisions)


def ref_whole(text: str, what: str) -> int:
    """A whole number's text as an int; a fraction is refused, and an
    infinity or NaN fails in ``int``."""
    value = float(text)
    if isfinite(value) and not value.is_integer():
        raise ValueError(f"unsupported {what} {text}")
    return int(value)


def ref_grace_length(note: ET.Element, children: dict[str, ET.Element]) -> Fraction:
    """A grace note's notated length, from its ``<type>`` (an eighth when
    missing or unknown), ``<dot />`` count and ``<time-modification>``, as
    :func:`serialize_musicxml` writes them.  Bad counts raise ``ValueError``
    or ``TypeError``, which the measure loop reports as malformed."""
    name = ref_text(children.get("type"))
    if name not in DURATION_TYPES:
        name = "eighth"
    mod = children.get("time-modification")
    tuplet = None if mod is None else (int(ref_text(mod.find("actual-notes"))),
                                       int(ref_text(mod.find("normal-notes"))))
    return Fraction(duration_for_type(name, len(note.findall("dot")), tuplet), Q)


def ref_text(elem: Optional[ET.Element]) -> Optional[str]:
    """Stripped text of ``elem``; None when it is missing or has no text."""
    return elem.text.strip() if elem is not None and elem.text else None


def ref_first_text(elem: ET.Element, paths: Sequence[str]) -> Optional[str]:
    for path in paths:
        text = ref_text(elem.find(path))
        if text is not None:
            return text
    return None


def ref_misc_field(root: ET.Element, name: str) -> Optional[str]:
    for f in root.findall("identification/miscellaneous/miscellaneous-field"):
        if f.get("name") == name and f.text:
            return f.text.strip()
    return None


def ref_fill_voice_gaps(raw: list[NoteEvent], start: Fraction, duration: Fraction,
                        m_index: int) -> list[NoteEvent]:
    """Insert hidden rests so each voice is contiguous from measure start to end.

    Also rejects overlapping events within a voice (chord members excepted).
    Events are returned in a stable order: by onset, then staff, voice, with
    grace notes ahead of their principal and chord members after their root.
    """
    timed = list(raw)
    by_voice: dict[int, list[NoteEvent]] = {}
    for ev in raw:
        if not ev.grace:
            by_voice.setdefault(ev.voice, []).append(ev)
    for voice, evs in by_voice.items():
        groups: dict[Fraction, list[NoteEvent]] = {}
        for ev in evs:
            groups.setdefault(ev.onset, []).append(ev)
        cur = start
        staff_hint = evs[0].staff
        for onset in sorted(groups):
            group = groups[onset]
            if onset < cur:
                raise MusicXmlParseError(
                    f"measure {m_index + 1}: overlapping events in voice {voice}")
            if onset > cur:
                timed.append(ref_hidden_rest(cur, onset, voice, group[0].staff))
            root = next((ev for ev in group if not ev.chord), group[0])
            cur = onset + root.duration
            staff_hint = group[-1].staff
        if cur < start + duration:
            timed.append(ref_hidden_rest(cur, start + duration, voice, staff_hint))
    decorated = [(ev.onset, ev.staff, ev.voice, not ev.grace, ev.chord, i, ev)
                 for i, ev in enumerate(timed)]
    # the index is unique, so the events themselves are never compared
    decorated.sort()
    return [t[-1] for t in decorated]


def ref_hidden_rest(begin: Fraction, end: Fraction, voice: int, staff: int) -> NoteEvent:
    return NoteEvent(onset=begin, duration=end - begin, pitch=None, voice=voice, staff=staff,
                     hidden=True)


def outcome(parse, document):
    """The parsed score, or the type and message of what the parse raised."""
    try:
        return parse(document)
    except Exception as exc:   # the two parsers must fail alike, whatever the error
        return type(exc), str(exc)


def assert_same_reading(document):
    ours = outcome(parse_musicxml, document)
    theirs = outcome(lambda doc: in_ticks(reference_parse(doc)), document)
    assert ours == theirs


@settings(max_examples=300, deadline=None)
@given(scores(loose=True))
def test_parser_matches_the_reference_on_written_scores(score):
    assert_same_reading(serialize_musicxml(score))


def test_parser_matches_the_reference_on_the_fixture_corpus():
    for piece in generate_corpus(12, seed=9090):
        for score in (piece, analysis.skyline_score(piece), lmx.decode(lmx.encode(piece))):
            document = serialize_musicxml(score)
            assert parse_musicxml(document) == in_ticks(reference_parse(document)), \
                piece.source_id


TEXTS = ("", " ", "x", "-1", "0", "1.5")


@st.composite
def mutated_documents(draw):
    """A written score with one to three mutations of its notes or divisions."""
    root = ET.fromstring(serialize_musicxml(draw(scores(loose=True))))
    for _ in range(draw(st.integers(1, 3))):
        notes = root.findall("part/measure/note")
        kinds = ["divisions"] + (["drop", "duplicate", "reorder", "text", "tie", "first chord"]
                                 if notes else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "divisions":
            divisions = root.findall("part/measure/attributes/divisions")
            if divisions:
                # 0 or below, or 7, off the tick grid
                draw(st.sampled_from(divisions)).text = str(draw(st.sampled_from((-4, -3, -2, -1, 0, 7))))
            continue
        if kind == "first chord":
            firsts = [m.find("note") for m in root.iter("measure") if m.find("note") is not None]
            draw(st.sampled_from(firsts)).insert(0, ET.Element("chord"))
            continue
        note = draw(st.sampled_from(notes))
        children = list(note)
        if kind == "drop" and children:
            note.remove(draw(st.sampled_from(children)))
        elif kind == "duplicate" and children:
            twin = copy.deepcopy(draw(st.sampled_from(children)))
            note.insert(draw(st.integers(0, len(children))), twin)
        elif kind == "reorder":
            for child in children:
                note.remove(child)
            note.extend(draw(st.permutations(children)))
        elif kind == "text":
            draw(st.sampled_from(list(note.iter()))).text = draw(st.sampled_from(TEXTS))
        elif kind == "tie":
            tie = ET.Element("tie", type=draw(st.sampled_from(("start", "stop", "continue"))))
            note.insert(draw(st.integers(0, len(children))), tie)
    return ET.tostring(root)


# every text a note can hold, in a note with an alteration and a tuplet grace
SWEPT = HEAD.format(measures="".join([
    '<measure number="1"><attributes><divisions>6</divisions></attributes>',
    note("B", 4, pre="<grace/>", post="<type>16th</type><dot/><time-modification>"
         "<actual-notes>3</actual-notes><normal-notes>2</normal-notes></time-modification>"),
    "<note><pitch><step>F</step><alter>1</alter><octave>4</octave></pitch><duration>6</duration>"
    '<tie type="start"/><voice>1</voice><type>quarter</type><staff>1</staff></note>',
    "</measure>"]))


@pytest.mark.parametrize("text", TEXTS)
def test_parser_matches_the_reference_on_every_text_of_a_note(text):
    root = ET.fromstring(SWEPT)
    for index, elem in enumerate(root.iter()):
        if elem.text is not None and elem.text.strip():
            mutated = ET.fromstring(SWEPT)
            list(mutated.iter())[index].text = text
            assert_same_reading(ET.tostring(mutated))


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_parser_matches_the_reference_on_mutated_documents(document):
    assert_same_reading(document)


@pytest.mark.parametrize("body", [
    note("C", 4, 1),
    note("C", 4, 7) + move("forward", 1),
    move("forward", 1) + note("C", 4, 6),
    note("D", 5, pre="<grace/>") + move("forward", 1),
], ids=["duration", "measure-length", "onset", "grace-onset"])
def test_off_grid_document_is_refused_alike(body):
    # 1/7 quarter is no whole number of ticks; both parsers refuse it at measure 2,
    # where the duration that leaves the grid is read: a position or a measure
    # length can only leave it through one
    doc = HEAD.format(measures="".join([
        '<measure number="1"><attributes><divisions>7</divisions></attributes>',
        note("C", 4, 7), "</measure>",
        f'<measure number="2">{body}</measure>']))
    assert_same_reading(doc)
    with pytest.raises(MusicXmlParseError, match="^measure 2: 1 of 7 divisions is off "
                                                 "the 1/960-quarter grid$"):
        parse_musicxml(doc)
