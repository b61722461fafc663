"""Structured model of two-staff piano scores and MusicXML I/O.

A :class:`Score` is an immutable sequence of measures holding
:class:`NoteEvent` objects with exact rational onsets and durations
(fractions of a quarter note).  Time is never represented as a float, so
onset arithmetic stays exact across ``<divisions>`` changes.

The module reads partwise MusicXML (plain ``.musicxml``/``.xml`` or
compressed ``.mxl``), writes it back, and exposes a time-ordered
:func:`timeline` view of which pitches sound in each segment of the piece.
The timeline sweeps one integer tick grid per score, the lcm of the
denominators of its note times, and turns only its cuts back into
fractions, so it stays exact without comparing fractions.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
import zipfile
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterator, Optional, Sequence

__all__ = [
    "ScoreError",
    "MusicXmlParseError",
    "UnsupportedStructureError",
    "ValidationError",
    "Pitch",
    "NoteEvent",
    "Measure",
    "Score",
    "TimelineSegment",
    "parse_musicxml",
    "read_musicxml",
    "serialize_musicxml",
    "write_musicxml",
    "validate_two_staff",
    "timeline",
    "merged_sounding_intervals",
    "type_for_duration",
    "duration_for_type",
    "DURATION_TYPES",
    "TUPLET_RATIOS",
]


class ScoreError(Exception):
    """Base class for score-model failures."""


class MusicXmlParseError(ScoreError):
    """Raised for malformed or unreadable MusicXML input."""


class UnsupportedStructureError(ScoreError):
    """Raised when a document is well-formed but outside the supported corpus shape."""


class ValidationError(ScoreError):
    """Raised when a parsed score fails corpus eligibility checks."""


_STEP_TO_PC = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
_ALTER_TEXT = {-2: "bb", -1: "b", 0: "", 1: "#", 2: "##"}
_TEXT_ALTER = {v: k for k, v in _ALTER_TEXT.items()}

# Note type names (MusicXML vocabulary) and their length in quarter notes.
DURATION_TYPES: dict[str, Fraction] = {
    "breve": Fraction(8),
    "whole": Fraction(4),
    "half": Fraction(2),
    "quarter": Fraction(1),
    "eighth": Fraction(1, 2),
    "16th": Fraction(1, 4),
    "32nd": Fraction(1, 8),
    "64th": Fraction(1, 16),
}

# Supported time-modification ratios as (actual, normal) note counts.
TUPLET_RATIOS: tuple[tuple[int, int], ...] = ((3, 2), (5, 4))

_DOT_FACTORS = (Fraction(1), Fraction(3, 2), Fraction(7, 4))


def _notated_readings() -> dict[Fraction, tuple[str, int, Optional[tuple[int, int]]]]:
    """Every notatable duration and its reading.

    Filled in search order (plain before tuplet, fewer dots first, longer
    types first); the first reading of a duration wins.
    """
    table: dict[Fraction, tuple[str, int, Optional[tuple[int, int]]]] = {}
    for ratio in ((1, 1),) + TUPLET_RATIOS:
        actual, normal = ratio
        for dots, factor in enumerate(_DOT_FACTORS):
            for name, length in DURATION_TYPES.items():
                table.setdefault(length * factor * normal / actual,
                                 (name, dots, None if ratio == (1, 1) else ratio))
    return table


_NOTATED = _notated_readings()


def type_for_duration(quarters: Fraction) -> Optional[tuple[str, int, Optional[tuple[int, int]]]]:
    """Decompose a rational duration into ``(type, dots, tuplet)``.

    Returns None when the duration is not representable as a single notated
    value (plain, dotted once or twice, optionally under a supported tuplet
    ratio).  Plain values are preferred over tuplet readings.
    """
    return _NOTATED.get(quarters)


def duration_for_type(name: str, dots: int = 0, tuplet: Optional[tuple[int, int]] = None) -> Fraction:
    """Inverse of :func:`type_for_duration`."""
    if name not in DURATION_TYPES:
        raise ValueError(f"unknown note type {name!r}")
    if not 0 <= dots < len(_DOT_FACTORS):
        raise ValueError(f"unsupported dot count {dots}")
    q = DURATION_TYPES[name] * _DOT_FACTORS[dots]
    if tuplet is not None:
        actual, normal = tuplet
        q = q * normal / actual
    return q


@dataclass(frozen=True)
class Pitch:
    """A notated pitch with its sounding MIDI number.

    ``pitch_class`` is always ``midi_number % 12`` and ``octave`` is the
    notated (MusicXML) octave, which matches ``midi_number // 12 - 1`` for
    natural and sharp/flat spellings that stay within the octave.
    """

    midi_number: int
    pitch_class: int
    octave: int
    step: str = "C"
    alter: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.midi_number <= 127:
            raise ValueError(f"midi_number {self.midi_number} out of range")
        if self.pitch_class != self.midi_number % 12:
            raise ValueError("pitch_class inconsistent with midi_number")
        if self.step not in _STEP_TO_PC:
            raise ValueError(f"bad step {self.step!r}")
        if self.alter not in _ALTER_TEXT:
            raise ValueError(f"unsupported alter {self.alter}")
        spelled = 12 * (self.octave + 1) + _STEP_TO_PC[self.step] + self.alter
        if spelled != self.midi_number:
            raise ValueError("spelling inconsistent with midi_number")

    @classmethod
    def from_parts(cls, step: str, alter: int, octave: int) -> "Pitch":
        midi = 12 * (octave + 1) + _STEP_TO_PC[step] + alter
        return cls(midi, midi % 12, octave, step, alter)

    @classmethod
    def from_midi(cls, midi: int) -> "Pitch":
        """Sharp-spelled pitch for a MIDI number."""
        octave, pc = divmod(midi, 12)
        octave -= 1
        for step, base in _STEP_TO_PC.items():
            if base == pc:
                return cls(midi, pc, octave, step, 0)
        for step, base in _STEP_TO_PC.items():
            if (base + 1) % 12 == pc:
                # sharp of the step below
                return cls(midi, pc, octave, step, 1)
        raise AssertionError("unreachable")

    @property
    def name(self) -> str:
        """Compact spelling such as ``C4``, ``F#3`` or ``Bb5``."""
        return f"{self.step}{_ALTER_TEXT[self.alter]}{self.octave}"

    @classmethod
    def from_name(cls, text: str) -> "Pitch":
        step = text[:1]
        rest = text[1:]
        alter_text = ""
        while rest and rest[0] in "#b" and alter_text + rest[0] in _TEXT_ALTER:
            alter_text += rest[0]
            rest = rest[1:]
        if step not in _STEP_TO_PC or not rest:
            raise ValueError(f"bad pitch name {text!r}")
        try:
            octave = int(rest)
        except ValueError as exc:
            raise ValueError(f"bad pitch name {text!r}") from exc
        return cls.from_parts(step, _TEXT_ALTER[alter_text], octave)


@dataclass(frozen=True)
class NoteEvent:
    """One note or rest.

    Onset and duration are in quarter notes from the start of the score.
    ``pitch`` is None for rests.  Grace notes carry the duration implied by
    their notated type but do not occupy time (they are skipped by the
    timeline and by onset accounting).  ``hidden`` marks gap-filling rests
    that were not literally present in the source.
    """

    onset: Fraction
    duration: Fraction
    pitch: Optional[Pitch]
    voice: int = 1
    staff: int = 1
    tie_start: bool = False
    tie_stop: bool = False
    chord: bool = False
    grace: bool = False
    hidden: bool = False

    def __post_init__(self) -> None:
        if self.onset < 0:
            raise ValueError("onset must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.staff not in (1, 2):
            raise ValueError("staff must be 1 or 2")

    @property
    def is_rest(self) -> bool:
        return self.pitch is None

    @property
    def end(self) -> Fraction:
        return self.onset + self.duration


@dataclass(frozen=True)
class Measure:
    index: int
    start: Fraction
    duration: Fraction
    events: tuple[NoteEvent, ...] = ()
    time_sig: Optional[tuple[int, int]] = None
    key_fifths: Optional[int] = None
    clefs: tuple[Optional[str], Optional[str]] = (None, None)

    @property
    def end(self) -> Fraction:
        return self.start + self.duration


@dataclass(frozen=True)
class Score:
    """An in-memory two-staff piano piece."""

    measures: tuple[Measure, ...]
    title: Optional[str] = None
    genre: Optional[str] = None
    source_id: Optional[str] = None
    n_staves: int = 2

    def events(self) -> Iterator[NoteEvent]:
        for m in self.measures:
            yield from m.events

    def notes(self, include_grace: bool = False) -> Iterator[NoteEvent]:
        """Pitched events, grace notes excluded unless requested."""
        for ev in self.events():
            if ev.pitch is None:
                continue
            if ev.grace and not include_grace:
                continue
            yield ev

    @property
    def total_duration(self) -> Fraction:
        if not self.measures:
            return Fraction(0)
        return self.measures[-1].end


# ---------------------------------------------------------------------------
# Parsing

def read_musicxml(path: str) -> Score:
    """Read ``.musicxml``/``.xml`` or a compressed ``.mxl`` container."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"PK" or str(path).endswith(".mxl"):
        data = _unzip_mxl(data)
    return parse_musicxml(data)


# the largest member of an .mxl container that is ever decompressed
MXL_MAX_MEMBER_BYTES = 64 * 2 ** 20


def _unzip_mxl(data: bytes) -> bytes:
    try:
        zf = zipfile.ZipFile(io.BytesIO(data))
    except zipfile.BadZipFile as exc:
        raise MusicXmlParseError(f"not a valid mxl container: {exc}") from exc
    with zf:
        root_name = None
        if "META-INF/container.xml" in zf.namelist():
            try:
                container = ET.fromstring(_read_member(zf, "META-INF/container.xml"))
            except ET.ParseError as exc:
                raise MusicXmlParseError(f"mxl container.xml syntax error: {exc}") from exc
            rootfile = container.find("rootfiles/rootfile")
            if rootfile is not None:
                root_name = rootfile.get("full-path")
        if root_name is None:
            candidates = [n for n in zf.namelist()
                          if n.endswith((".xml", ".musicxml")) and not n.startswith("META-INF")]
            if not candidates:
                raise MusicXmlParseError("mxl container holds no MusicXML document")
            root_name = candidates[0]
        return _read_member(zf, root_name)


def _read_member(zf: zipfile.ZipFile, name: str) -> bytes:
    """One member, refused above ``MXL_MAX_MEMBER_BYTES`` whatever its header says."""
    try:
        info = zf.getinfo(name)
    except KeyError as exc:
        raise MusicXmlParseError(f"mxl container has no member {name!r}") from exc
    if info.file_size > MXL_MAX_MEMBER_BYTES:
        raise MusicXmlParseError(f"mxl member {name!r} is {info.file_size} bytes, "
                                 f"over the {MXL_MAX_MEMBER_BYTES}-byte cap")
    # zipfile stops at file_size and checks the CRC, so a header that
    # understates the size fails as BadZipFile instead of reading past the cap
    try:
        return zf.read(info)
    except (zipfile.BadZipFile, zlib.error, NotImplementedError, EOFError) as exc:
        raise MusicXmlParseError(f"mxl member {name!r} is unreadable: {exc}") from exc


def parse_musicxml(document: bytes | str) -> Score:
    """Parse a partwise MusicXML document into a :class:`Score`.

    Preserves pitch spelling, rational durations, voices, staves, ties and
    chord grouping.  Within each voice, gaps left by ``<forward>`` or
    ``<backup>`` are filled with hidden rests so that every voice is
    contiguous inside each measure it appears in.  Malformed input raises
    a :class:`ScoreError` subclass.

    Positions inside a measure are counted in integer ticks; a
    :class:`~fractions.Fraction` is built only for the onset and the
    duration of each event.
    """
    if isinstance(document, str):
        document = document.encode("utf-8")
    if document[:2] == b"PK":
        document = _unzip_mxl(document)
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

    title = _first_text(root, ("movement-title", "work/work-title"))
    genre = _misc_field(root, "genre")
    source_id = _misc_field(root, "source")

    divisions: Optional[int] = None
    declared_staves = 1
    time_sig: Optional[tuple[int, int]] = None
    measures: list[Measure] = []
    cursor = Fraction(0)
    # equal values share one object: Pitch and Fraction are immutable
    pitches: dict[tuple[Optional[str], ...], Pitch] = {}
    lengths: dict[tuple[int, int], Fraction] = {}   # quarters from 0

    for m_index, m_elem in enumerate(part.findall("measure")):
        try:
            m_time: Optional[tuple[int, int]] = None
            m_key: Optional[int] = None
            m_clefs: list[Optional[str]] = [None, None]
            # (onset, length, divisions, event): onset and length in the
            # divisions current at the note, length 0 for grace notes
            raw: list[tuple[int, int, int, NoteEvent]] = []
            onsets: dict[tuple[int, int], Fraction] = {}   # quarters from cursor
            pos = 0                 # divisions from measure start
            maxpos = 0
            last_onset = 0          # onset of the most recent non-chord note

            for elem in m_elem:
                tag = elem.tag
                if tag == "note":
                    # the first child of each tag, as find() would return it
                    children = {child.tag: child for child in reversed(elem)}
                    is_grace = "grace" in children
                    is_chord = "chord" in children
                    voice = int(_text(children.get("voice")) or 1)
                    staff = int(_text(children.get("staff")) or 1)
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
                                step or "C", int(float(alter or 0)), int(octave or 4))

                    if is_grace:
                        raw.append((pos, 0, divisions, NoteEvent(
                            onset=_shared_q(onsets, pos, divisions, m_index, cursor),
                            duration=_grace_length(elem, children),
                            pitch=pitch, voice=voice, staff=staff,
                            grace=True, hidden=hidden)))
                        continue

                    dur_divs = _required_duration(children.get("duration"), tag, m_index)
                    if divisions is None:
                        raise MusicXmlParseError(
                            f"measure {m_index + 1}: missing divisions attribute")
                    onset_divs = last_onset if is_chord else pos
                    raw.append((onset_divs, dur_divs, divisions, NoteEvent(
                        onset=_shared_q(onsets, onset_divs, divisions, m_index, cursor),
                        duration=_shared_q(lengths, dur_divs, divisions, m_index),
                        pitch=pitch, voice=voice, staff=staff,
                        tie_start="start" in ties, tie_stop="stop" in ties,
                        chord=is_chord, hidden=hidden)))
                    if not is_chord:
                        last_onset = pos
                        pos += dur_divs
                        maxpos = max(maxpos, pos)
                elif tag == "attributes":
                    div_el = elem.find("divisions")
                    if div_el is not None and div_el.text:
                        divisions = int(div_el.text)
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
                        sign = _first_text(clef, ("sign",)) or "G"
                        line = _first_text(clef, ("line",)) or ""
                        if 1 <= number <= 2:
                            m_clefs[number - 1] = f"{sign}{line}"
                        declared_staves = max(declared_staves, number)
                elif tag == "backup":
                    pos -= _required_duration(elem.find("duration"), tag, m_index)
                    if pos < 0:
                        raise MusicXmlParseError(
                            f"measure {m_index + 1}: backup before measure start")
                elif tag == "forward":
                    pos += _required_duration(elem.find("duration"), tag, m_index)
                    maxpos = max(maxpos, pos)
                # directions, barlines, harmony, prints, sounds: no timing content

            if maxpos > 0:
                m_duration = _q(maxpos, divisions, m_index)
            elif time_sig is not None:
                m_duration = Fraction(time_sig[0] * 4, time_sig[1])
            else:
                m_duration = Fraction(4)

            events = _fill_voice_gaps(raw, cursor, m_duration, m_index)
            measures.append(Measure(
                index=m_index, start=cursor, duration=m_duration,
                events=tuple(events), time_sig=m_time, key_fifths=m_key,
                clefs=(m_clefs[0], m_clefs[1])))
            cursor += m_duration
        except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
            # int() of bad text, a missing <beats>, divisions 0, an unknown
            # step, or a pitch or duration that Pitch/NoteEvent reject
            raise MusicXmlParseError(f"measure {m_index + 1}: malformed value "
                                     f"({type(exc).__name__}: {exc})") from exc

    observed = max((ev.staff for m in measures for ev in m.events), default=1)
    return Score(
        measures=tuple(measures), title=title, genre=genre, source_id=source_id,
        n_staves=max(declared_staves, observed))


def _q(divs: int, divisions: Optional[int], m_index: int,
       start: Fraction = Fraction(0)) -> Fraction:
    """``start + divs / divisions`` quarters, built as one Fraction."""
    if divisions is None:
        raise MusicXmlParseError(f"measure {m_index + 1}: missing divisions attribute")
    return Fraction(start.numerator * divisions + divs * start.denominator,
                    start.denominator * divisions)


def _shared_q(shared: dict[tuple[int, int], Fraction], divs: int,
              divisions: Optional[int], m_index: int,
              start: Fraction = Fraction(0)) -> Fraction:
    """:func:`_q`, built once per ``(divs, divisions)`` in ``shared``.

    ``shared`` must hold values for this ``start`` only.
    """
    value = shared.get((divs, divisions))
    if value is None:
        value = shared[divs, divisions] = _q(divs, divisions, m_index, start)
    return value


def _required_duration(duration: Optional[ET.Element], tag: str, m_index: int) -> int:
    text = _text(duration)
    if text is None:
        raise MusicXmlParseError(f"measure {m_index + 1}: <{tag}> without duration")
    value = int(float(text))
    if value < 0:
        raise MusicXmlParseError(f"measure {m_index + 1}: negative duration")
    return value


def _grace_length(note: ET.Element, children: dict[str, ET.Element]) -> Fraction:
    """A grace note's notated length, from its ``<type>`` (an eighth when
    missing or unknown), ``<dot />`` count and ``<time-modification>``, as
    :func:`serialize_musicxml` writes them.  Bad counts raise ``ValueError``
    or ``TypeError``, which the measure loop reports as malformed."""
    name = _text(children.get("type"))
    if name not in DURATION_TYPES:
        name = "eighth"
    mod = children.get("time-modification")
    tuplet = None if mod is None else (int(_text(mod.find("actual-notes"))),
                                       int(_text(mod.find("normal-notes"))))
    return duration_for_type(name, len(note.findall("dot")), tuplet)


def _text(elem: Optional[ET.Element]) -> Optional[str]:
    """Stripped text of ``elem``; None when it is missing or has no text."""
    return elem.text.strip() if elem is not None and elem.text else None


def _first_text(elem: ET.Element, paths: Sequence[str]) -> Optional[str]:
    for path in paths:
        text = _text(elem.find(path))
        if text is not None:
            return text
    return None


def _misc_field(root: ET.Element, name: str) -> Optional[str]:
    for f in root.findall("identification/miscellaneous/miscellaneous-field"):
        if f.get("name") == name and f.text:
            return f.text.strip()
    return None


def _fill_voice_gaps(raw: list[tuple[int, int, int, NoteEvent]], start: Fraction,
                     duration: Fraction, m_index: int) -> list[NoteEvent]:
    """Insert hidden rests so each voice is contiguous from measure start to end.

    Also rejects overlapping events within a voice (chord members excepted).
    Events are returned in a stable order: by onset, then staff, voice, with
    grace notes ahead of their principal and chord members after their root.
    All positions are compared as integer ticks of ``1/unit`` quarter from
    the measure start, where ``unit`` is a multiple of every divisions value
    the measure used and of the denominator of its duration.
    """
    unit = lcm(duration.denominator, *{divisions for _, _, divisions, _ in raw})
    end = duration.numerator * (unit // duration.denominator)
    timed: list[tuple[int, int, NoteEvent]] = []
    by_voice: dict[int, list[tuple[int, int, NoteEvent]]] = {}
    for divs, length, divisions, ev in raw:
        scale = unit // divisions
        item = (divs * scale, length * scale, ev)
        timed.append(item)
        if not ev.grace:
            by_voice.setdefault(ev.voice, []).append(item)
    for voice, items in by_voice.items():
        groups: dict[int, list[tuple[int, int, NoteEvent]]] = {}
        for item in items:
            groups.setdefault(item[0], []).append(item)
        cur = 0
        staff_hint = items[0][2].staff
        for onset in sorted(groups):
            group = groups[onset]
            if onset < cur:
                raise MusicXmlParseError(
                    f"measure {m_index + 1}: overlapping events in voice {voice}")
            if onset > cur:
                timed.append((cur, onset - cur, _hidden_rest(
                    start, cur, onset - cur, unit, voice, group[0][2].staff, m_index)))
            root = next((item for item in group if not item[2].chord), group[0])
            cur = onset + root[1]
            staff_hint = group[-1][2].staff
        if cur < end:
            timed.append((cur, end - cur, _hidden_rest(
                start, cur, end - cur, unit, voice, staff_hint, m_index)))
    decorated = [(tick, ev.staff, ev.voice, not ev.grace, ev.chord, i, ev)
                 for i, (tick, _, ev) in enumerate(timed)]
    # the index is unique, so the events themselves are never compared
    decorated.sort()
    return [t[-1] for t in decorated]


def _hidden_rest(start: Fraction, tick: int, length: int, unit: int, voice: int,
                 staff: int, m_index: int) -> NoteEvent:
    return NoteEvent(onset=_q(tick, unit, m_index, start), duration=Fraction(length, unit),
                     pitch=None, voice=voice, staff=staff, hidden=True)


# ---------------------------------------------------------------------------
# Validation

def validate_two_staff(score: Score) -> Score:
    """Accept exactly the corpus shape (one part, two staves, nonempty); return ``score``."""
    if not score.measures:
        raise ValidationError("degenerate score: no measures")
    if score.n_staves != 2:
        raise ValidationError(
            f"corpus requires exactly two staves, found {score.n_staves}")
    staves = {ev.staff for ev in score.events()}
    if not staves <= {1, 2}:
        raise ValidationError(f"events on unsupported staves {sorted(staves)}")
    return score


# ---------------------------------------------------------------------------
# Serialization

def serialize_musicxml(score: Score) -> bytes:
    """Write partwise MusicXML (UTF-8) that re-parses to an equivalent score.

    The text is written directly in one fixed layout: the XML declaration,
    then one element per line indented by two spaces a level, ``<tag />``
    for an element without content, and ``&``, ``<`` and ``>`` escaped in
    text.  These are the bytes ElementTree writes for the same tree after
    ``ET.indent``.
    """
    out = ["<?xml version='1.0' encoding='UTF-8'?>", '<score-partwise version="4.0">']
    if score.title:
        out.append(f"  <movement-title>{_escape(score.title)}</movement-title>")
    misc_pairs = [(n, v) for n, v in (("genre", score.genre), ("source", score.source_id)) if v]
    if misc_pairs:
        out += ("  <identification>", "    <miscellaneous>")
        for name, value in misc_pairs:
            out.append(f'      <miscellaneous-field name="{name}">{_escape(value)}'
                       "</miscellaneous-field>")
        out += ("    </miscellaneous>", "  </identification>")
    out += ("  <part-list>", '    <score-part id="P1">', "      <part-name>Piano</part-name>",
            "    </score-part>", "  </part-list>")
    if not score.measures:
        out.append('  <part id="P1" />')
    else:
        out.append('  <part id="P1">')
        prev_divisions = None
        for measure in score.measures:
            divisions = _measure_divisions(measure)
            attrs_needed = (divisions != prev_divisions or measure.key_fifths is not None
                            or measure.time_sig is not None or any(measure.clefs)
                            or measure.index == 0)
            if not attrs_needed and not measure.events:
                out.append(f'    <measure number="{measure.index + 1}" />')
                continue
            out.append(f'    <measure number="{measure.index + 1}">')
            if attrs_needed:
                out.append("      <attributes>")
                if divisions != prev_divisions:
                    out.append(f"        <divisions>{divisions}</divisions>")
                    prev_divisions = divisions
                if measure.key_fifths is not None:
                    out.append(f"        <key>\n          <fifths>{measure.key_fifths}</fifths>"
                               "\n        </key>")
                if measure.time_sig is not None:
                    beats, beat_type = measure.time_sig
                    out.append(f"        <time>\n          <beats>{beats}</beats>\n"
                               f"          <beat-type>{beat_type}</beat-type>\n        </time>")
                if measure.index == 0:
                    out.append(f"        <staves>{score.n_staves}</staves>")
                for staff_no, clef in enumerate(measure.clefs, start=1):
                    if clef:
                        out.append(f'        <clef number="{staff_no}">\n'
                                   f"          <sign>{_escape(clef[:1])}</sign>")
                        if clef[1:]:
                            out.append(f"          <line>{_escape(clef[1:])}</line>")
                        out.append("        </clef>")
                out.append("      </attributes>")
            _write_measure_events(out, measure, divisions)
            out.append("    </measure>")
        out.append("  </part>")
    out.append("</score-partwise>")
    return "\n".join(out).encode("utf-8", "xmlcharrefreplace")


def write_musicxml(score: Score, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_musicxml(score))


def _escape(text: str) -> str:
    """Text content escaped as ElementTree escapes it (quotes stay as they are)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _measure_divisions(measure: Measure) -> int:
    denoms = [1]
    for ev in measure.events:
        if ev.grace:
            continue
        denoms.append(ev.duration.denominator)
        denoms.append((ev.onset - measure.start).denominator)
    return lcm(*denoms)


def _write_measure_events(out: list[str], measure: Measure, divisions: int) -> None:
    voices = sorted({ev.voice for ev in measure.events})
    cursor = Fraction(0)  # in quarters, relative to measure start
    for voice in voices:
        if cursor != 0:
            out.append(f"      <backup>\n        <duration>{int(cursor * divisions)}"
                       "</duration>\n      </backup>")
            cursor = Fraction(0)
        evs = [ev for ev in measure.events if ev.voice == voice]
        groups: dict[Fraction, list[NoteEvent]] = {}
        for ev in evs:
            groups.setdefault(ev.onset, []).append(ev)
        for onset in sorted(groups):
            rel = onset - measure.start
            if rel > cursor:
                out.append(f"      <forward>\n        <duration>{int((rel - cursor) * divisions)}"
                           "</duration>\n      </forward>")
                cursor = rel
            group = sorted(groups[onset], key=lambda e: (not e.grace, e.chord))
            first_sounding = True
            for ev in group:
                _write_note(out, ev, divisions, chord=not ev.grace and not first_sounding)
                if not ev.grace:
                    if first_sounding:
                        cursor = rel + ev.duration
                    first_sounding = False


def _write_note(out: list[str], ev: NoteEvent, divisions: int, chord: bool) -> None:
    out.append('      <note print-object="no">' if ev.hidden else "      <note>")
    if ev.grace:
        out.append("        <grace />")
    if chord:
        out.append("        <chord />")
    pitch = ev.pitch
    if pitch is None:
        out.append("        <rest />")
    elif pitch.alter:
        out.append(f"        <pitch>\n          <step>{pitch.step}</step>\n"
                   f"          <alter>{pitch.alter}</alter>\n"
                   f"          <octave>{pitch.octave}</octave>\n        </pitch>")
    else:
        out.append(f"        <pitch>\n          <step>{pitch.step}</step>\n"
                   f"          <octave>{pitch.octave}</octave>\n        </pitch>")
    if not ev.grace:
        # a duration is positive, so floor division truncates as int() does
        ticks = ev.duration.numerator * divisions // ev.duration.denominator
        out.append(f"        <duration>{ticks}</duration>")
    if ev.tie_stop:
        out.append('        <tie type="stop" />')
    if ev.tie_start:
        out.append('        <tie type="start" />')
    out.append(f"        <voice>{ev.voice}</voice>")
    decomposed = _NOTATED.get(ev.duration)
    if decomposed is not None:
        name, dots, tuplet = decomposed
        out.append(f"        <type>{name}</type>")
        out += ("        <dot />",) * dots
        if tuplet is not None:
            out.append(f"        <time-modification>\n"
                       f"          <actual-notes>{tuplet[0]}</actual-notes>\n"
                       f"          <normal-notes>{tuplet[1]}</normal-notes>\n"
                       f"        </time-modification>")
    out.append(f"        <staff>{ev.staff}</staff>\n      </note>")


# ---------------------------------------------------------------------------
# Timeline

@dataclass(frozen=True)
class TimelineSegment:
    start: Fraction
    end: Fraction
    pitches: tuple[Pitch, ...]  # sorted by midi number, deduplicated


_first = itemgetter(0)
_first_three = itemgetter(0, 1, 2)


def _sounding_ticks(score: Score) -> tuple[int, int, list[tuple[int, int, int, Pitch]]]:
    """The score's tick unit, its length in ticks and its merged intervals.

    The unit is the lcm of the denominators of ``total_duration`` and of
    every onset and duration of a pitched, non-grace note, so each of
    those times is a whole number of ``1/unit`` quarter ticks.  Intervals
    are ``(start, end, midi, pitch)`` in ticks, in
    :func:`merged_sounding_intervals` order.
    """
    notes = list(score.notes())
    total = score.total_duration
    denominators = {ev.onset.denominator for ev in notes}
    denominators.update(ev.duration.denominator for ev in notes)
    unit = lcm(total.denominator, *denominators)
    chains: dict[tuple[int, int, int], list[tuple[int, int, NoteEvent]]] = {}
    for ev in notes:
        onset, duration = ev.onset, ev.duration
        start = onset.numerator * (unit // onset.denominator)
        chains.setdefault((ev.voice, ev.staff, ev.pitch.midi_number), []).append(
            (start, start + duration.numerator * (unit // duration.denominator), ev))
    out: list[tuple[int, int, int, Pitch]] = []
    for (_, _, midi), links in chains.items():
        links.sort(key=_first)
        start, end, prev = links[0]
        pitch = prev.pitch
        for onset, stop, ev in links[1:]:
            if not (prev.tie_start and ev.tie_stop and onset == end):
                out.append((start, end, midi, pitch))
                start, pitch = onset, ev.pitch
            end, prev = stop, ev
        out.append((start, end, midi, pitch))
    out.sort(key=_first_three)
    return unit, total.numerator * (unit // total.denominator), out


def merged_sounding_intervals(score: Score) -> list[tuple[Fraction, Fraction, Pitch]]:
    """Sounding intervals of pitched notes with tie chains merged.

    A chain of tied events (same voice, staff and midi number, each link
    starting where the previous one ends) counts as one interval.  Grace
    notes are excluded.  Intervals are sorted by start, end and midi
    number; equal keys keep the order of their chains' first notes.
    """
    unit, _, intervals = _sounding_ticks(score)
    return [(Fraction(start, unit), Fraction(end, unit), pitch)
            for start, end, _, pitch in intervals]


def timeline(score: Score) -> list[TimelineSegment]:
    """Partition ``[0, total_duration)`` at every note onset and offset.

    Each segment lists the distinct pitches sounding throughout it, sorted
    by midi number.  Returns an empty list for an empty score.

    The segments come from one boundary sweep on the score's integer tick
    grid (see :func:`_sounding_ticks`): every merged interval is filed
    under the cut where it starts and the cut where it stops, and a walk
    over the sorted cuts keeps the set of active intervals, so the cost is
    O(n log n) in the number of intervals rather than one test per
    interval and segment.  Only the cuts become fractions, one each.  An
    interval ending past ``total_duration`` stays active to the last cut.
    When two active intervals share a midi number but differ in spelling,
    the segment keeps the one that comes first in
    :func:`merged_sounding_intervals` order.
    """
    if not score.measures:
        return []
    unit, total, intervals = _sounding_ticks(score)
    bounds = {0, total}
    for start, end, _, _ in intervals:
        bounds.add(start)
        bounds.add(min(end, total))
    cuts = sorted(bounds)
    position = {cut: i for i, cut in enumerate(cuts)}
    n_segments = len(cuts) - 1
    starting: list[list[int]] = [[] for _ in range(n_segments)]
    stopping: list[list[int]] = [[] for _ in range(n_segments)]
    for index, (start, end, _, _) in enumerate(intervals):
        first = position[start]
        # the first segment that does not end by ``end``; ``end`` is a cut
        # unless it lies past ``total``
        stop = position[end] if end in position else bisect_right(cuts, end) - 1
        if first < stop:
            starting[first].append(index)
            if stop < n_segments:
                stopping[stop].append(index)
    times = [Fraction(cut, unit) for cut in cuts]
    # midi number -> indices of its active intervals, ascending: intervals
    # are sorted by start, so each newly started one has the largest index
    active: dict[int, list[int]] = {}
    segments = []
    for i in range(n_segments):
        for index in stopping[i]:
            midi = intervals[index][2]
            held = active[midi]
            held.remove(index)
            if not held:
                del active[midi]
        for index in starting[i]:
            active.setdefault(intervals[index][2], []).append(index)
        segments.append(TimelineSegment(
            start=times[i], end=times[i + 1],
            pitches=tuple(intervals[active[m][0]][3] for m in sorted(active))))
    return segments
