"""The token codec against its older form.

``lmx`` decodes each measure with integer lane cursors (ticks of 1/960
quarter), files each event under its lane once when encoding, and orders
a decoded measure with ``score.measure_order``.  The codec it replaced,
with a ``Fraction`` cursor per lane, mutable draft objects and one scan of
the measure per lane, lives on here as ``reference_encode`` and
``reference_decode``.  Both must turn every token stream, mutated ones
included, into equal scores or the same error, and every score, mutated
ones included, into equal tokens or the same error.  The references work
in quarters and convert at their boundary: ``reference_encode`` reads the
score through ``in_quarters`` and ``reference_decode`` returns it through
``in_ticks``.
"""

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradus import analysis, lmx
from gradus.fixtures import generate_corpus
from gradus.lmx import DecodeError, EncodeError
from gradus.score import TICKS_PER_QUARTER as Q
from gradus.score import (
    DURATION_TYPES,
    Measure,
    MusicXmlParseError,
    NoteEvent,
    Pitch,
    Score,
    duration_for_type,
    parse_musicxml,
    serialize_musicxml,
)
from test_score_io_oracle import search_type_for_duration
from test_timeline_oracle import in_quarters, in_ticks

_PITCH_RE = re.compile(r"^([A-G])(#{1,2}|b{1,2})?(-?\d+)$")
_DEFAULT_VOICE = {1: 1, 2: 2}
_TUPLET_TOKENS = {(3, 2): "triplet", (5, 4): "quintuplet"}
_TOKEN_TUPLETS = {v: k for k, v in _TUPLET_TOKENS.items()}
_LENGTHS = {(name, dots, tuplet): Fraction(duration_for_type(name, dots, tuplet), Q)
            for name in DURATION_TYPES for dots in range(3)
            for tuplet in (None, *_TUPLET_TOKENS)}


# ---------------------------------------------------------------------------
# The reference encoder: one scan of the measure per (staff, voice) lane

def reference_encode(score: Score) -> list[str]:
    return reference_encode_quarters(in_quarters(score))


def reference_encode_quarters(score: Score) -> list[str]:
    """The reference encoder on a score whose times are Fractions of quarters."""
    tokens: list[str] = []
    for measure in score.measures:
        tokens.append("measure")
        if measure.key_fifths is not None:
            tokens.append(f"key:{measure.key_fifths}")
        if measure.time_sig is not None:
            tokens.append(f"time:{measure.time_sig[0]}/{measure.time_sig[1]}")
        for clef in measure.clefs:
            if clef:
                tokens.append(f"clef:{clef}")
        cur_staff, cur_voice = 1, _DEFAULT_VOICE[1]
        for staff, voice in sorted({(ev.staff, ev.voice) for ev in measure.events}):
            if staff != cur_staff:
                tokens.append(f"staff:{staff}")
                cur_staff, cur_voice = staff, _DEFAULT_VOICE[staff]
            if voice != cur_voice:
                tokens.append(f"voice:{voice}")
                cur_voice = voice
            evs = [ev for ev in measure.events if (ev.staff, ev.voice) == (staff, voice)]
            tokens.extend(reference_encode_lane(evs, measure))
    return tokens


def reference_encode_lane(evs: Sequence[NoteEvent], measure: Measure) -> list[str]:
    tokens: list[str] = []
    groups: dict[Fraction, list[NoteEvent]] = {}
    graces: dict[Fraction, list[NoteEvent]] = {}
    for ev in evs:
        (graces if ev.grace else groups).setdefault(ev.onset, []).append(ev)
    cursor = measure.start
    for onset in sorted(set(groups) | set(graces)):
        if onset != cursor:
            raise EncodeError(
                f"measure {measure.index + 1}: staff {evs[0].staff} voice {evs[0].voice} "
                f"has an event at {onset - measure.start} quarters but its previous "
                f"events end at {cursor - measure.start}")
        for g in graces.get(onset, []):
            tokens.append("grace")
            tokens.append(g.pitch.name if g.pitch else "rest")
            tokens.extend(reference_duration_tokens(g.duration, measure))
        group = groups.get(onset, [])
        roots = [e for e in group if not e.chord]
        members = [e for e in group if e.chord]
        if len(roots) > 1:
            raise EncodeError(
                f"measure {measure.index + 1}: simultaneous non-chord events "
                f"in staff {evs[0].staff} voice {evs[0].voice}")
        if roots:
            cursor += roots[0].duration
        for i, ev in enumerate(roots + members):
            if i > 0:
                tokens.append("chord")
            tokens.append(ev.pitch.name if ev.pitch else "rest")
            tokens.extend(reference_duration_tokens(ev.duration, measure))
            if ev.tie_stop:
                tokens.append("tie:stop")
            if ev.tie_start:
                tokens.append("tie:start")
    return tokens


def reference_duration_tokens(quarters: Fraction, measure: Measure) -> list[str]:
    decomposed = search_type_for_duration(quarters)
    if decomposed is None:
        raise EncodeError(
            f"measure {measure.index + 1}: duration {quarters} is not notatable")
    name, dots, tuplet = decomposed
    tokens = [name] + ["dot"] * dots
    if tuplet is not None:
        tokens.append(_TUPLET_TOKENS[tuplet])
    return tokens


# ---------------------------------------------------------------------------
# The reference decoder: draft objects and a Fraction cursor per lane

@dataclass
class _Lane:
    staff: int
    voice: int
    cursor: Fraction
    events: list[NoteEvent] = field(default_factory=list)


@dataclass
class _MeasureDraft:
    start: Fraction
    key_fifths: Optional[int] = None
    time_sig: Optional[tuple[int, int]] = None
    clefs: list[Optional[str]] = field(default_factory=lambda: [None, None])
    clef_slot: int = 0
    lanes: dict[tuple[int, int], _Lane] = field(default_factory=dict)


def reference_decode(tokens: Sequence[str], recover: bool = False) -> tuple[Score, list[str]]:
    score, skipped = reference_decode_quarters(tokens, recover)
    return in_ticks(score), skipped


def reference_decode_quarters(tokens: Sequence[str], recover: bool) -> tuple[Score, list[str]]:
    measures: list[Measure] = []
    skipped: list[str] = []
    start = Fraction(0)
    time_sig: Optional[tuple[int, int]] = None
    i = 0
    n = len(tokens)
    if n == 0 or tokens[0] != "measure":
        if not recover:
            raise DecodeError("stream must begin with 'measure'", 0)
        if n:
            skipped.append("tokens before first 'measure' dropped")
        while i < n and tokens[i] != "measure":
            i += 1
    while i < n:
        try:
            measure, time_sig, i = reference_decode_measure(
                tokens, i, len(measures), start, time_sig)
        except DecodeError as exc:
            if not recover:
                raise
            skipped.append(str(exc))
            i = exc.position + 1
            while i < n and tokens[i] != "measure":
                i += 1
            continue
        measures.append(measure)
        start = measure.end
    observed = max((ev.staff for m in measures for ev in m.events), default=2)
    return Score(measures=tuple(measures), n_staves=max(2, observed)), skipped


def reference_decode_measure(tokens, i, index, start, time_sig):
    assert tokens[i] == "measure"
    i += 1
    draft = _MeasureDraft(start)
    lane = lane_for(draft, 1, _DEFAULT_VOICE[1])
    notes_seen = False
    n = len(tokens)
    while i < n and tokens[i] != "measure":
        tok = tokens[i]
        if tok.startswith("key:"):
            if notes_seen:
                raise DecodeError("attribute token after notes", i)
            draft.key_fifths = parse_int(tok[4:], "key signature", i)
        elif tok.startswith("time:"):
            if notes_seen:
                raise DecodeError("attribute token after notes", i)
            m = re.fullmatch(r"(\d+)/(\d+)", tok[5:])
            if m is None:
                raise DecodeError(f"bad time signature {tok!r}", i)
            draft.time_sig = (int(m.group(1)), int(m.group(2)))
        elif tok.startswith("clef:"):
            if notes_seen:
                raise DecodeError("attribute token after notes", i)
            if draft.clef_slot >= 2:
                raise DecodeError("more than two clef tokens", i)
            draft.clefs[draft.clef_slot] = tok[5:]
            draft.clef_slot += 1
        elif tok.startswith("staff:"):
            staff = parse_int(tok[6:], "staff", i)
            if staff not in (1, 2):
                raise DecodeError(f"staff must be 1 or 2, got {staff}", i)
            lane = lane_for(draft, staff, _DEFAULT_VOICE[staff])
        elif tok.startswith("voice:"):
            voice = parse_int(tok[6:], "voice", i)
            if voice < 1:
                raise DecodeError(f"voice must be positive, got {voice}", i)
            lane = lane_for(draft, lane.staff, voice)
        elif tok == "grace":
            i, ev = reference_decode_note(tokens, i + 1, lane, grace=True, chord=False)
            lane.events.append(ev)
            notes_seen = True
            continue
        elif tok == "chord":
            if not lane.events or lane.events[-1].grace or lane.events[-1].is_rest:
                raise DecodeError("'chord' without a preceding note", i)
            i, ev = reference_decode_note(tokens, i + 1, lane, grace=False, chord=True)
            if ev.is_rest:
                raise DecodeError("'chord' followed by a rest", i - 1)
            lane.events.append(ev)
            notes_seen = True
            continue
        elif tok == "rest" or _PITCH_RE.match(tok):
            i, ev = reference_decode_note(tokens, i, lane, grace=False, chord=False)
            lane.cursor += ev.duration
            lane.events.append(ev)
            notes_seen = True
            continue
        else:
            raise DecodeError(f"unexpected token {tok!r}", i)
        i += 1

    if draft.time_sig is not None:
        time_sig = draft.time_sig
    # a measure with no timed event is a full measure, and its lanes, grace
    # notes aside, are empty: no hidden rest fills them
    end = max([l.cursor for l in draft.lanes.values()], default=start)
    if end > start:
        duration = end - start
    elif time_sig is not None:
        duration = Fraction(time_sig[0] * 4, time_sig[1])
    else:
        duration = Fraction(4)
    events: list[NoteEvent] = []
    for key in sorted(draft.lanes):
        lane_obj = draft.lanes[key]
        events.extend(lane_obj.events)
        if lane_obj.events and lane_obj.cursor < end:
            events.append(NoteEvent(
                onset=lane_obj.cursor, duration=end - lane_obj.cursor,
                pitch=None, voice=lane_obj.voice, staff=lane_obj.staff, hidden=True))
    events.sort(key=lambda ev: (ev.onset, ev.staff, ev.voice, not ev.grace, ev.chord))
    measure = Measure(
        index=index, start=start, duration=duration, events=tuple(events),
        time_sig=draft.time_sig, key_fifths=draft.key_fifths,
        clefs=(draft.clefs[0], draft.clefs[1]))
    return measure, time_sig, i


def lane_for(draft: _MeasureDraft, staff: int, voice: int) -> _Lane:
    key = (staff, voice)
    if key not in draft.lanes:
        draft.lanes[key] = _Lane(staff=staff, voice=voice, cursor=draft.start)
    return draft.lanes[key]


def reference_decode_note(tokens, i, lane, grace, chord):
    n = len(tokens)
    if i >= n:
        raise DecodeError("stream ends where a pitch was expected", n - 1)
    tok = tokens[i]
    pitch = None
    if tok != "rest":
        m = _PITCH_RE.match(tok)
        if m is None:
            raise DecodeError(f"expected a pitch or 'rest', got {tok!r}", i)
        try:
            pitch = Pitch.from_name(tok)
        except ValueError as exc:
            raise DecodeError(str(exc), i) from exc
    i += 1
    if i >= n or tokens[i] not in DURATION_TYPES:
        raise DecodeError("pitch must be followed by a duration type", min(i, n - 1))
    name = tokens[i]
    i += 1
    dots = 0
    while i < n and tokens[i] == "dot":
        dots += 1
        if dots > 2:
            raise DecodeError("more than two dots", i)
        i += 1
    tuplet = None
    if i < n and tokens[i] in _TOKEN_TUPLETS:
        tuplet = _TOKEN_TUPLETS[tokens[i]]
        i += 1
    duration = _LENGTHS[name, dots, tuplet]
    tie_start = tie_stop = False
    while i < n and tokens[i] in ("tie:start", "tie:stop"):
        if grace:
            raise DecodeError("grace notes cannot carry ties", i)
        if tokens[i] == "tie:start":
            if tie_start:
                raise DecodeError("duplicate tie:start", i)
            tie_start = True
        else:
            if tie_stop:
                raise DecodeError("duplicate tie:stop", i)
            tie_stop = True
        i += 1
    if (tie_start or tie_stop) and pitch is None:
        raise DecodeError("rests cannot carry ties", i - 1)
    onset = lane.events[-1].onset if chord else lane.cursor
    ev = NoteEvent(onset=onset, duration=duration, pitch=pitch, voice=lane.voice,
                   staff=lane.staff, tie_start=tie_start, tie_stop=tie_stop,
                   chord=chord, grace=grace)
    return i, ev


def parse_int(text: str, what: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise DecodeError(f"bad {what} {text!r}", pos) from exc


# ---------------------------------------------------------------------------
# Comparisons

def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:   # the two codecs must fail alike, whatever the error
        return type(exc), str(exc)


def assert_same_decoding(tokens: Sequence[str]) -> None:
    """Strict and lenient decodes agree, and so do the recovered scores' bytes and tokens."""
    strict = outcome(lmx.decode, tokens)
    expected = outcome(lambda: reference_decode(tokens)[0])
    assert strict == expected
    report = lmx.decode_recoverable(tokens)
    score, skipped = reference_decode(tokens, recover=True)
    assert report.score == score
    assert list(report.skipped) == skipped
    assert serialize_musicxml(report.score) == serialize_musicxml(score)
    assert outcome(lmx.encode, report.score) == outcome(reference_encode, score)


def assert_same_encoding(score: Score) -> None:
    tokens = outcome(lmx.encode, score)
    assert tokens == outcome(reference_encode, score)
    if isinstance(tokens, list):
        assert_same_decoding(tokens)


CORPUS = generate_corpus(12, seed=9090)
STREAMS = [lmx.encode(piece) for piece in CORPUS]
# the fixture vocabulary plus structure, duration, lane, tie and attribute
# tokens, well-formed or not
POOL = tuple(sorted(set(lmx.Vocabulary.from_corpus(STREAMS).tokens) | {
    "measure", "chord", "grace", "rest", "dot", "triplet", "quintuplet", "breve", "64th",
    "staff:1", "staff:2", "staff:3", "staff:x", "voice:1", "voice:2", "voice:3", "voice:0",
    "tie:start", "tie:stop", "key:0", "key:-7", "key:x", "time:3/4", "time:5/8", "time:3",
    "clef:G2", "clef:F4", "clef:", "C-5", "G#9", "C##4", "Dbb04", "C4 ", "H4"}))


def test_fixture_corpus_codes_alike():
    for piece in CORPUS:
        for score in (piece, analysis.skyline_score(piece)):
            assert_same_encoding(score)


@st.composite
def mutated_streams(draw):
    """A fixture piece's tokens with one to four insertions, deletions or replacements."""
    tokens = list(draw(st.sampled_from(STREAMS)))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        if kind == "insert":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(POOL)))
        elif tokens:
            at = draw(st.integers(0, len(tokens) - 1))
            if kind == "delete":
                del tokens[at]
            else:
                tokens[at] = draw(st.sampled_from(POOL))
    return tokens


@settings(max_examples=400, deadline=None)
@given(mutated_streams())
@example("measure time:4/4 grace C4 eighth measure C4 whole".split())
def test_decoders_agree_on_mutated_streams(tokens):
    assert_same_decoding(tokens)


# in ticks: k/12 quarter, and lengths one note cannot spell but for 1/3 and 1/5
SHIFTS = tuple(k * Q // 12 for k in (-12, -6, -4, -3, 3, 4, 6, 12))
ODD_LENGTHS = (Q // 3, 5 * Q // 4, 7 * Q // 8, Q // 5, 3 * Q // 10, 5 * Q // 3, 1, 7 * Q // 12)


@st.composite
def mutated_scores(draw):
    """A fixture piece, or its decoded form, with one to three measures mutated."""
    piece = draw(st.sampled_from(CORPUS))
    score = lmx.decode(lmx.encode(piece)) if draw(st.booleans()) else piece
    measures = list(score.measures)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(measures) - 1))
        events = list(measures[at].events)
        if not events:
            continue
        j = draw(st.integers(0, len(events) - 1))
        ev = events[j]
        kind = draw(st.sampled_from(
            ("shift", "chord", "grace", "staff", "voice", "duplicate", "shuffle")))
        if kind == "shift":
            events[j] = replace(ev, onset=max(0, ev.onset + draw(st.sampled_from(SHIFTS))))
        elif kind == "chord":
            events[j] = replace(ev, chord=not ev.chord)
        elif kind == "grace":
            events[j] = replace(ev, grace=not ev.grace)
        elif kind == "staff":
            events[j] = replace(ev, staff=3 - ev.staff)
        elif kind == "voice":
            events[j] = replace(ev, voice=draw(st.integers(1, 4)))
        elif kind == "duplicate":
            events.insert(draw(st.integers(0, len(events))),
                          replace(ev, duration=draw(st.sampled_from(ODD_LENGTHS))))
        else:
            events = draw(st.permutations(events))
        measures[at] = replace(measures[at], events=tuple(events))
    return replace(score, measures=tuple(measures))


@settings(max_examples=400, deadline=None)
@given(mutated_scores())
def test_encoders_agree_on_mutated_scores(score):
    assert_same_encoding(score)


def test_off_grid_length_never_reaches_the_codec():
    # the reference encoder refuses a 1/7-quarter note, as encode did before
    # scores held ticks; now the parser refuses the document that spells it
    note = NoteEvent(onset=Fraction(0), duration=Fraction(1, 7), pitch=Pitch.from_name("C4"))
    score = Score(measures=(Measure(index=0, start=Fraction(0), duration=Fraction(1, 7),
                                    events=(note,)),))
    with pytest.raises(EncodeError, match="^measure 1: duration 1/7 is not notatable$"):
        reference_encode_quarters(score)
    doc = ('<score-partwise><part-list/><part id="P1"><measure number="1">'
           "<attributes><divisions>7</divisions></attributes>"
           "<note><pitch><step>C</step><octave>4</octave></pitch><duration>1</duration></note>"
           "</measure></part></score-partwise>")
    with pytest.raises(MusicXmlParseError, match="^measure 1: 1 of 7 divisions is off "
                                                 "the 1/960-quarter grid$"):
        parse_musicxml(doc)
