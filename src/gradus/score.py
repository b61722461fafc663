"""Structured model of two-staff piano scores and MusicXML I/O.

A :class:`Score` is an immutable sequence of measures holding
:class:`NoteEvent` objects.  Every onset and duration is a whole number of
ticks, :data:`TICKS_PER_QUARTER` to the quarter note, so time arithmetic
is exact integer arithmetic.  Every length the token codec can spell, down
to a double-dotted 64th under 5:4, is a whole number of ticks.

The module reads partwise MusicXML (plain ``.musicxml``/``.xml`` or
compressed ``.mxl``), converting ``<divisions>`` units to ticks as it
reads them, writes it back, and exposes a time-ordered :func:`timeline`
view of which pitches sound in each segment of the piece.
"""

from __future__ import annotations

import gc
import io
import re
import xml.etree.ElementTree as ET
import zipfile
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from math import gcd
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
    "TICKS_PER_QUARTER",
    "quarter_text",
    "time_signature",
    "measure_length",
    "parse_musicxml",
    "read_musicxml",
    "serialize_musicxml",
    "write_musicxml",
    "validate_two_staff",
    "timeline",
    "merged_sounding_intervals",
    "measure_order",
    "type_for_duration",
    "duration_for_type",
    "DURATION_TYPES",
    "TUPLET_RATIOS",
    "PITCH_NAME",
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
# the sharp spelling (step, alter) of each pitch class
_SHARP_SPELLING = (("C", 0), ("C", 1), ("D", 0), ("D", 1), ("E", 0), ("F", 0),
                   ("F", 1), ("G", 0), ("G", 1), ("A", 0), ("A", 1), ("B", 0))
# a pitch name: step, up to two sharps or two flats, octave
PITCH_NAME = re.compile(r"^([A-G])(#{1,2}|b{1,2})?(-?\d+)$")

# The one time unit: ticks per quarter note.
TICKS_PER_QUARTER = 960

# Note type names (MusicXML vocabulary) and their length in ticks.
DURATION_TYPES: dict[str, int] = {
    "breve": 8 * TICKS_PER_QUARTER,
    "whole": 4 * TICKS_PER_QUARTER,
    "half": 2 * TICKS_PER_QUARTER,
    "quarter": TICKS_PER_QUARTER,
    "eighth": TICKS_PER_QUARTER // 2,
    "16th": TICKS_PER_QUARTER // 4,
    "32nd": TICKS_PER_QUARTER // 8,
    "64th": TICKS_PER_QUARTER // 16,
}

# Supported time-modification ratios as (actual, normal) note counts.
TUPLET_RATIOS: tuple[tuple[int, int], ...] = ((3, 2), (5, 4))

# the length of a note with 0, 1 or 2 dots, as (numerator, denominator) of its type's
_DOT_FACTORS = ((1, 1), (3, 2), (7, 4))


def quarter_text(ticks: int) -> str:
    """``ticks`` as quarters in lowest terms, such as ``3/2`` or ``5``."""
    g = gcd(ticks, TICKS_PER_QUARTER)
    num, den = ticks // g, TICKS_PER_QUARTER // g
    return str(num) if den == 1 else f"{num}/{den}"


def _notated_readings() -> dict[int, tuple[str, int, Optional[tuple[int, int]]]]:
    """Every notatable duration, in ticks, and its reading.

    Filled in search order (plain before tuplet, fewer dots first, longer
    types first); the first reading of a duration wins.
    """
    table: dict[int, tuple[str, int, Optional[tuple[int, int]]]] = {}
    for ratio in ((1, 1),) + TUPLET_RATIOS:
        for dots in range(len(_DOT_FACTORS)):
            for name in DURATION_TYPES:
                table.setdefault(duration_for_type(name, dots, ratio),
                                 (name, dots, None if ratio == (1, 1) else ratio))
    return table


def type_for_duration(ticks: int) -> Optional[tuple[str, int, Optional[tuple[int, int]]]]:
    """Decompose a duration in ticks into ``(type, dots, tuplet)``.

    Returns None when the duration is not representable as a single notated
    value (plain, dotted once or twice, optionally under a supported tuplet
    ratio).  Plain values are preferred over tuplet readings.
    """
    return _NOTATED.get(ticks)


def duration_for_type(name: str, dots: int = 0, tuplet: Optional[tuple[int, int]] = None) -> int:
    """Inverse of :func:`type_for_duration`, in ticks."""
    if name not in DURATION_TYPES:
        raise ValueError(f"unknown note type {name!r}")
    if not 0 <= dots < len(_DOT_FACTORS):
        raise ValueError(f"unsupported dot count {dots}")
    num, den = _DOT_FACTORS[dots]
    actual, normal = tuplet or (1, 1)
    ticks, rest = divmod(DURATION_TYPES[name] * num * normal, den * actual)
    if rest:   # never for a supported ratio
        raise ValueError(f"{name} with {dots} dots under {actual}:{normal} "
                         f"is off the 1/{TICKS_PER_QUARTER}-quarter grid")
    return ticks


_NOTATED = _notated_readings()


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
        """The pitch of a spelling; equal spellings share one object."""
        key = (step, alter, octave)
        pitch = _PITCHES.get(key)
        if pitch is None:
            midi = 12 * (octave + 1) + _STEP_TO_PC[step] + alter
            # an invalid spelling raises here, so it is never stored
            pitch = _PITCHES[key] = cls(midi, midi % 12, octave, step, alter)
        return pitch

    @classmethod
    def from_midi(cls, midi: int) -> "Pitch":
        """Sharp-spelled pitch for a MIDI number."""
        step, alter = _SHARP_SPELLING[midi % 12]
        return cls.from_parts(step, alter, midi // 12 - 1)

    @property
    def name(self) -> str:
        """Compact spelling such as ``C4``, ``F#3`` or ``Bb5``."""
        return f"{self.step}{_ALTER_TEXT[self.alter]}{self.octave}"

    @classmethod
    def from_name(cls, text: str) -> "Pitch":
        """The pitch a :data:`PITCH_NAME` spells, such as ``C4`` or ``Bb-1``."""
        m = PITCH_NAME.match(text)
        if m is None:
            raise ValueError(f"bad pitch name {text!r}")
        step, alter, octave = m.groups()
        return cls.from_parts(step, _TEXT_ALTER[alter or ""], int(octave))


# (step, alter, octave) -> its Pitch, filled by Pitch.from_parts.  Keyed by
# value, so the tokens "C4" and "C04" share one Pitch; only valid spellings
# are stored, 374 at most (7 steps x 5 alterations, octaves -2 to 9 in midi range).
_PITCHES: dict[tuple[str, int, int], Pitch] = {}


@dataclass(frozen=True, init=False)
class NoteEvent:
    """One note or rest.

    Onset and duration are in ticks from the start of the score.
    ``pitch`` is None for rests.  Grace notes carry the duration implied by
    their notated type but do not occupy time (they are skipped by the
    timeline and by onset accounting).  ``hidden`` marks gap-filling rests
    that were not literally present in the source.
    """

    onset: int
    duration: int
    pitch: Optional[Pitch]
    voice: int = 1
    staff: int = 1
    tie_start: bool = False
    tie_stop: bool = False
    chord: bool = False
    grace: bool = False
    hidden: bool = False

    def __init__(self, onset: int, duration: int, pitch: Optional[Pitch],
                 voice: int = 1, staff: int = 1, tie_start: bool = False,
                 tie_stop: bool = False, chord: bool = False, grace: bool = False,
                 hidden: bool = False) -> None:
        if onset < 0:
            raise ValueError("onset must be >= 0")
        if duration <= 0:
            raise ValueError("duration must be > 0")
        if staff != 1 and staff != 2:
            raise ValueError("staff must be 1 or 2")
        # one write of every field; frozen dataclasses block setattr
        self.__dict__.update(
            onset=onset, duration=duration, pitch=pitch, voice=voice, staff=staff,
            tie_start=tie_start, tie_stop=tie_stop, chord=chord, grace=grace,
            hidden=hidden)

    @property
    def is_rest(self) -> bool:
        return self.pitch is None

    @property
    def end(self) -> int:
        return self.onset + self.duration


@dataclass(frozen=True)
class Measure:
    """One measure; ``start`` and ``duration`` in ticks."""

    index: int
    start: int
    duration: int
    events: tuple[NoteEvent, ...] = ()
    time_sig: Optional[tuple[int, int]] = None
    key_fifths: Optional[int] = None
    clefs: tuple[Optional[str], Optional[str]] = (None, None)

    @property
    def end(self) -> int:
        return self.start + self.duration


_WHOLE = DURATION_TYPES["whole"]


def time_signature(beats: int, beat_type: int) -> tuple[int, int]:
    """``(beats, beat_type)``; ``ValueError`` unless both are positive and a
    full measure is a whole number of ticks."""
    if beats < 1 or beat_type < 1:
        raise ValueError(f"beats and beat type must be positive, "
                         f"got {beats}/{beat_type}")
    if beats * _WHOLE % beat_type:
        raise ValueError(f"a measure of {beats}/{beat_type} is off the "
                         f"1/{TICKS_PER_QUARTER}-quarter grid")
    return beats, beat_type


def measure_length(time_sig: Optional[tuple[int, int]]) -> int:
    """Ticks in a full measure of ``time_sig``; a whole note without a signature."""
    return _WHOLE if time_sig is None else time_sig[0] * _WHOLE // time_sig[1]


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

    def notes(self) -> Iterator[NoteEvent]:
        """Pitched events other than grace notes."""
        for ev in self.events():
            if ev.pitch is not None and not ev.grace:
                yield ev

    @property
    def total_duration(self) -> int:
        """Length in ticks."""
        if not self.measures:
            return 0
        return self.measures[-1].end


# ---------------------------------------------------------------------------
# Parsing

def read_musicxml(path: str) -> Score:
    """Read ``.musicxml``/``.xml`` or a compressed ``.mxl`` container."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MusicXmlParseError(
            f"{path}: cannot read ({type(exc).__name__}: {exc.strerror})") from exc
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

    Preserves pitch spelling, exact durations, voices, staves, ties and
    chord grouping.  Within each voice, gaps left by ``<forward>`` or
    ``<backup>`` are filled with hidden rests so that every voice is
    contiguous inside each measure it appears in.  Malformed input raises
    a :class:`ScoreError` subclass.

    Positions inside a measure are counted in ticks: each note, ``<backup>``
    and ``<forward>`` duration is converted from the ``<divisions>`` current
    at it as it is read.  A ``<divisions>`` below 1, or a duration off the
    tick grid (``<divisions>7</divisions>`` and a duration of 1), raises
    :class:`MusicXmlParseError` at its measure.

    The cyclic garbage collector is paused while the parse runs.  The
    element tree is acyclic and lives until the score is built, so no
    collection could free any of it, yet its tens of thousands of tracked
    elements would be promoted to the oldest generation and set off full
    collections.  Reference counting frees the tree when the parse returns.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_musicxml(document)
    finally:
        if enabled:
            gc.enable()


def _parse_musicxml(document: bytes | str) -> Score:
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
    cursor = 0   # ticks

    for m_index, m_elem in enumerate(part.findall("measure")):
        try:
            m_time: Optional[tuple[int, int]] = None
            m_key: Optional[int] = None
            m_clefs: list[Optional[str]] = [None, None]
            events: list[NoteEvent] = []
            pos = 0                 # ticks from measure start
            maxpos = 0
            last_onset = 0          # onset of the most recent non-chord note

            for elem in m_elem:
                tag = elem.tag
                if tag == "note":
                    # one pass over the children; the first child of each
                    # tag is the one read, as find() would return it
                    p_el = dur_el = voice_el = staff_el = None
                    is_rest = is_chord = is_grace = tie_start = tie_stop = False
                    for child in elem:
                        ctag = child.tag
                        if ctag == "pitch":
                            if p_el is None:
                                p_el = child
                        elif ctag == "duration":
                            if dur_el is None:
                                dur_el = child
                        elif ctag == "voice":
                            if voice_el is None:
                                voice_el = child
                        elif ctag == "staff":
                            if staff_el is None:
                                staff_el = child
                        elif ctag == "tie":
                            kind = child.get("type")
                            if kind == "start":
                                tie_start = True
                            elif kind == "stop":
                                tie_stop = True
                        elif ctag == "rest":
                            is_rest = True
                        elif ctag == "chord":
                            is_chord = True
                        elif ctag == "grace":
                            is_grace = True
                    voice = int(_text(voice_el) or 1)
                    staff = int(_text(staff_el) or 1)
                    declared_staves = max(declared_staves, staff)
                    if staff > 2:
                        # keep parsing; validate_two_staff reports the violation
                        staff = 2
                    hidden = elem.get("print-object") == "no"

                    pitch = None
                    if not is_rest:
                        if p_el is None:
                            raise MusicXmlParseError(
                                f"measure {m_index + 1}: note with neither pitch nor rest")
                        # a missing or blank text reads as its default
                        step = p_el.findtext("step")
                        alter = p_el.findtext("alter")
                        octave = p_el.findtext("octave")
                        pitch = Pitch.from_parts((step and step.strip()) or "C",
                                                 _whole((alter and alter.strip()) or "0", "alter"),
                                                 int((octave and octave.strip()) or 4))

                    if is_grace:
                        events.append(NoteEvent(
                            onset=cursor + pos, duration=_grace_length(elem), pitch=pitch,
                            voice=voice, staff=staff, grace=True, hidden=hidden))
                        continue

                    duration = _required_duration(dur_el, tag, m_index, divisions)
                    events.append(NoteEvent(
                        onset=cursor + (last_onset if is_chord else pos), duration=duration,
                        pitch=pitch, voice=voice, staff=staff,
                        tie_start=tie_start, tie_stop=tie_stop,
                        chord=is_chord, hidden=hidden))
                    if not is_chord:
                        last_onset = pos
                        pos += duration
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
                        m_time = time_signature(_beats(beats.text), int(beat_type.text))
                        time_sig = m_time
                    for clef in elem.findall("clef"):
                        number = int(clef.get("number", "1"))
                        sign = _first_text(clef, ("sign",)) or "G"
                        line = _first_text(clef, ("line",)) or ""
                        if 1 <= number <= 2:
                            m_clefs[number - 1] = f"{sign}{line}"
                        declared_staves = max(declared_staves, number)
                elif tag == "backup":
                    pos -= _required_duration(elem.find("duration"), tag, m_index, divisions)
                    if pos < 0:
                        raise MusicXmlParseError(
                            f"measure {m_index + 1}: backup before measure start")
                elif tag == "forward":
                    pos += _required_duration(elem.find("duration"), tag, m_index, divisions)
                    maxpos = max(maxpos, pos)
                # directions, barlines, harmony, prints, sounds: no timing content

            m_duration = maxpos or measure_length(time_sig)
            measures.append(Measure(
                index=m_index, start=cursor, duration=m_duration,
                events=tuple(_fill_voice_gaps(events, cursor, m_duration, m_index)),
                time_sig=m_time, key_fifths=m_key,
                clefs=(m_clefs[0], m_clefs[1])))
            cursor += m_duration
        except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
            # bad number text, a fractional duration or alter, a missing <beats>,
            # an overflowing number, an unknown step, or a value that Pitch,
            # NoteEvent, time_signature or duration_for_type reject
            raise MusicXmlParseError(f"measure {m_index + 1}: malformed value "
                                     f"({type(exc).__name__}: {exc})") from exc

    return Score(
        measures=tuple(measures), title=title, genre=genre, source_id=source_id,
        n_staves=declared_staves)


def _required_duration(duration: Optional[ET.Element], tag: str, m_index: int,
                       divisions: Optional[int]) -> int:
    """A ``<duration>`` of ``1/divisions`` quarter units, in ticks; off the grid raises."""
    text = _text(duration)
    if text is None:
        raise MusicXmlParseError(f"measure {m_index + 1}: <{tag}> without duration")
    value = _whole(text, "duration")
    if value < 0:
        raise MusicXmlParseError(f"measure {m_index + 1}: negative duration")
    if divisions is None:
        raise MusicXmlParseError(f"measure {m_index + 1}: missing divisions attribute")
    ticks, rest = divmod(value * TICKS_PER_QUARTER, divisions)
    if rest:
        raise MusicXmlParseError(
            f"measure {m_index + 1}: {value} of {divisions} divisions is off the "
            f"1/{TICKS_PER_QUARTER}-quarter grid")
    return ticks


def _whole(text: str, what: str) -> int:
    """``text`` as an int if it names a whole number (``2``, ``2.0``), else ``ValueError``."""
    value = float(text)
    whole = int(value)
    if whole != value:
        raise ValueError(f"unsupported {what} {text}")
    return whole


def _beats(text: Optional[str]) -> int:
    """A ``<beats>`` text; an additive one such as ``3+2`` reads as its sum."""
    return sum(map(int, text.split("+"))) if text and "+" in text else int(text)


def _grace_length(note: ET.Element) -> int:
    """A grace note's notated length, from its ``<type>`` (an eighth when
    missing or unknown), ``<dot />`` count and ``<time-modification>``, as
    :func:`serialize_musicxml` writes them.  Bad counts raise ``ValueError``
    or ``TypeError``, which the measure loop reports as malformed."""
    name = _text(note.find("type"))
    if name not in DURATION_TYPES:
        name = "eighth"
    mod = note.find("time-modification")
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


def _fill_voice_gaps(events: list[NoteEvent], start: int, duration: int,
                     m_index: int) -> list[NoteEvent]:
    """Insert hidden rests so each voice is contiguous from measure start to end.

    Also rejects overlapping events within a voice (chord members excepted).
    Events are returned in :func:`measure_order`.
    """
    filled = list(events)
    by_voice: dict[int, dict[int, list[NoteEvent]]] = {}
    for ev in events:
        if not ev.grace:
            by_voice.setdefault(ev.voice, {}).setdefault(ev.onset, []).append(ev)
    for voice, groups in by_voice.items():
        cur = start
        for onset in sorted(groups):
            group = groups[onset]
            if onset < cur:
                raise MusicXmlParseError(
                    f"measure {m_index + 1}: overlapping events in voice {voice}")
            if onset > cur:
                filled.append(NoteEvent(onset=cur, duration=onset - cur, pitch=None,
                                        voice=voice, staff=group[0].staff, hidden=True))
            # the first non-chord event, else the first
            cur = onset + next((ev for ev in group if not ev.chord), group[0]).duration
        if cur < start + duration:
            filled.append(NoteEvent(onset=cur, duration=start + duration - cur, pitch=None,
                                    voice=voice, staff=group[-1].staff, hidden=True))
    return measure_order(filled)


def measure_order(events: Sequence[NoteEvent]) -> list[NoteEvent]:
    """The events of one measure in measure order.

    The order is by onset, then staff and voice, with grace notes ahead of
    their principal and chord members after their root; ties keep the
    order of ``events``.
    """
    decorated = [(ev.onset, ev.staff, ev.voice, not ev.grace, ev.chord, i, ev)
                 for i, ev in enumerate(events)]
    # the index is unique, so the events themselves are never compared
    decorated.sort()
    return [t[-1] for t in decorated]


# ---------------------------------------------------------------------------
# Validation

def validate_two_staff(score: Score) -> Score:
    """Accept exactly the corpus shape (one part, two staves, nonempty); return ``score``."""
    if not score.measures:
        raise ValidationError("degenerate score: no measures")
    if score.n_staves != 2:
        raise ValidationError(
            f"corpus requires exactly two staves, found {score.n_staves}")
    return score


# ---------------------------------------------------------------------------
# Serialization

def serialize_musicxml(score: Score) -> bytes:
    """Write partwise MusicXML (UTF-8) that re-parses to an equivalent score.

    The text is written directly in one fixed layout: the XML declaration,
    then one element per line indented by two spaces a level, ``<tag />``
    for an element without content, and ``&``, ``<`` and ``>`` escaped in
    text.  These are the bytes ElementTree writes for the same tree after
    ``ET.indent``.  Durations are written in ticks: the first measure sets
    ``<divisions>`` to :data:`TICKS_PER_QUARTER`, and no later one changes it.
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
        first = score.measures[0]
        for measure in score.measures:
            attrs_needed = (measure is first or measure.key_fifths is not None
                            or measure.time_sig is not None or any(measure.clefs)
                            or measure.index == 0)
            if not attrs_needed and not measure.events:
                out.append(f'    <measure number="{measure.index + 1}" />')
                continue
            out.append(f'    <measure number="{measure.index + 1}">')
            if attrs_needed:
                out.append("      <attributes>")
                if measure is first:
                    out.append(f"        <divisions>{TICKS_PER_QUARTER}</divisions>")
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
            _write_measure_events(out, measure)
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


def _write_measure_events(out: list[str], measure: Measure) -> None:
    voices = sorted({ev.voice for ev in measure.events})
    cursor = 0  # in ticks, relative to measure start
    for voice in voices:
        if cursor != 0:
            out.append(f"      <backup>\n        <duration>{cursor}</duration>\n      </backup>")
            cursor = 0
        evs = [ev for ev in measure.events if ev.voice == voice]
        groups: dict[int, list[NoteEvent]] = {}
        for ev in evs:
            groups.setdefault(ev.onset, []).append(ev)
        for onset in sorted(groups):
            rel = onset - measure.start
            if rel > cursor:
                out.append(f"      <forward>\n        <duration>{rel - cursor}</duration>\n"
                           "      </forward>")
                cursor = rel
            group = sorted(groups[onset], key=lambda e: (not e.grace, e.chord))
            first_sounding = True
            for ev in group:
                _write_note(out, ev, chord=not ev.grace and not first_sounding)
                if not ev.grace:
                    if first_sounding:
                        cursor = rel + ev.duration
                    first_sounding = False


def _write_note(out: list[str], ev: NoteEvent, chord: bool) -> None:
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
        out.append(f"        <duration>{ev.duration}</duration>")
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
    start: int   # ticks
    end: int
    pitches: tuple[Pitch, ...]  # sorted by midi number, deduplicated


_first = itemgetter(0)
_first_three = itemgetter(0, 1, 2)


def _sounding_intervals(score: Score) -> list[tuple[int, int, int, Pitch]]:
    """The merged intervals as ``(start, end, midi, pitch)``, in
    :func:`merged_sounding_intervals` order."""
    chains: dict[tuple[int, int, int], list[tuple[int, int, NoteEvent]]] = {}
    for ev in score.notes():
        chains.setdefault((ev.voice, ev.staff, ev.pitch.midi_number), []).append(
            (ev.onset, ev.onset + ev.duration, ev))
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
    return out


def merged_sounding_intervals(score: Score) -> list[tuple[int, int, Pitch]]:
    """Sounding intervals of pitched notes with tie chains merged, in ticks.

    A chain of tied events (same voice, staff and midi number, each link
    starting where the previous one ends) counts as one interval.  Grace
    notes are excluded.  Intervals are sorted by start, end and midi
    number; equal keys keep the order of their chains' first notes.
    """
    return [(start, end, pitch) for start, end, _, pitch in _sounding_intervals(score)]


def timeline(score: Score) -> list[TimelineSegment]:
    """Partition ``[0, total_duration)`` at every note onset and offset.

    Each segment lists the distinct pitches sounding throughout it, sorted
    by midi number.  Returns an empty list for an empty score.

    The segments come from one boundary sweep: every merged interval is
    filed under the cut where it starts and the cut where it stops, and a
    walk over the sorted cuts keeps the set of active intervals, so the
    cost is O(n log n) in the number of intervals rather than one test per
    interval and segment.  An interval ending past ``total_duration`` stays
    active to the last cut.  When two active intervals share a midi number
    but differ in spelling, the segment keeps the one that comes first in
    :func:`merged_sounding_intervals` order.
    """
    if not score.measures:
        return []
    total = score.total_duration
    intervals = _sounding_intervals(score)
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
            start=cuts[i], end=cuts[i + 1],
            pitches=tuple(intervals[active[m][0]][3] for m in sorted(active))))
    return segments
