"""Flat token codec for two-staff scores.

A score is linearized measure by measure into a whitespace-separable token
stream: attribute tokens first (key, time, clefs), then the notes of each
staff and voice in onset order.  The stream is an order of magnitude
shorter than the MusicXML it came from and decodes back to an equivalent
score (same pitches, onsets, durations, voices and staves).

Context rules keep the stream short.  ``measure`` resets the writer to
staff 1, and each ``staff:N`` token resets the voice to that staff's
default (voice 1 on staff 1, voice 2 on staff 2), so ``staff:`` and
``voice:`` tokens appear only at changes.  Within one voice, consecutive
events need no onset markers because each note advances an implicit
cursor, exactly like MusicXML's own duration accounting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .score import (
    DURATION_TYPES,
    Measure,
    NoteEvent,
    Pitch,
    Score,
    duration_for_type,
    type_for_duration,
)

__all__ = [
    "EncodeError",
    "DecodeError",
    "VocabularyError",
    "encode",
    "decode",
    "decode_recoverable",
    "DecodeReport",
    "Vocabulary",
    "PAD",
    "BOS",
    "EOS",
    "SEP",
    "HARMONY",
    "LEVEL_TOKENS",
    "SPECIAL_TOKENS",
    "MAX_VOCAB_SIZE",
]

PAD = "[PAD]"
BOS = "[BOS]"
EOS = "[EOS]"
SEP = "[SEP]"
HARMONY = "[HARM]"
LEVEL_TOKENS = tuple(f"[LEVEL-{i}]" for i in range(1, 10))
SPECIAL_TOKENS = (PAD, BOS, EOS, SEP, HARMONY) + LEVEL_TOKENS

MAX_VOCAB_SIZE = 512

_PITCH_RE = re.compile(r"^([A-G])(#{1,2}|b{1,2})?(-?\d+)$")
_DEFAULT_VOICE = {1: 1, 2: 2}
_TUPLET_TOKENS = {(3, 2): "triplet", (5, 4): "quintuplet"}
_TOKEN_TUPLETS = {v: k for k, v in _TUPLET_TOKENS.items()}


class EncodeError(Exception):
    """Raised when a score cannot be expressed in the token grammar."""


class DecodeError(Exception):
    """Raised for token streams that violate the grammar.

    ``position`` is the index of the offending token.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"token {position}: {message}")
        self.position = position


class VocabularyError(Exception):
    pass


# ---------------------------------------------------------------------------
# Encoding

def encode(score: Score) -> list[str]:
    """Linearize a score into tokens.

    Raises :class:`EncodeError` if any duration is not notatable as a
    single (possibly dotted, possibly tuplet) value, or if the events of
    a (staff, voice) lane do not follow each other from the measure start
    without gap or overlap (as when a voice crosses staves), since the
    decoder could then not reconstruct the timing.
    """
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
        tokens.extend(_encode_measure_events(measure))
    return tokens


def _encode_measure_events(measure: Measure) -> list[str]:
    tokens: list[str] = []
    cur_staff, cur_voice = 1, _DEFAULT_VOICE[1]
    for staff, voice in sorted({(ev.staff, ev.voice) for ev in measure.events}):
        if staff != cur_staff:
            tokens.append(f"staff:{staff}")
            cur_staff, cur_voice = staff, _DEFAULT_VOICE[staff]
        if voice != cur_voice:
            tokens.append(f"voice:{voice}")
            cur_voice = voice
        evs = [ev for ev in measure.events if (ev.staff, ev.voice) == (staff, voice)]
        tokens.extend(_encode_lane(evs, measure))
    return tokens


def _encode_lane(evs: Sequence[NoteEvent], measure: Measure) -> list[str]:
    tokens: list[str] = []
    groups: dict[Fraction, list[NoteEvent]] = {}
    graces: dict[Fraction, list[NoteEvent]] = {}
    for ev in evs:
        (graces if ev.grace else groups).setdefault(ev.onset, []).append(ev)
    cursor = measure.start   # where the decoder will place the next event
    for onset in sorted(set(groups) | set(graces)):
        if onset != cursor:
            raise EncodeError(
                f"measure {measure.index + 1}: staff {evs[0].staff} voice {evs[0].voice} "
                f"has an event at {onset - measure.start} quarters but its previous "
                f"events end at {cursor - measure.start}")
        for g in graces.get(onset, []):
            tokens.append("grace")
            tokens.append(g.pitch.name if g.pitch else "rest")
            tokens.extend(_duration_tokens(g.duration, measure))
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
            tokens.extend(_duration_tokens(ev.duration, measure))
            if ev.tie_stop:
                tokens.append("tie:stop")
            if ev.tie_start:
                tokens.append("tie:start")
    return tokens


def _duration_tokens(quarters: Fraction, measure: Measure) -> list[str]:
    decomposed = type_for_duration(quarters)
    if decomposed is None:
        raise EncodeError(
            f"measure {measure.index + 1}: duration {quarters} is not notatable")
    name, dots, tuplet = decomposed
    tokens = [name] + ["dot"] * dots
    if tuplet is not None:
        tokens.append(_TUPLET_TOKENS[tuplet])
    return tokens


# ---------------------------------------------------------------------------
# Decoding

@dataclass
class _Lane:
    """Write cursor for one (staff, voice) within the open measure."""
    staff: int
    voice: int
    cursor: Fraction  # onset of the lane's next event, in quarters from the score start
    events: list[NoteEvent] = field(default_factory=list)


@dataclass
class _MeasureDraft:
    start: Fraction
    key_fifths: Optional[int] = None
    time_sig: Optional[tuple[int, int]] = None
    clefs: list[Optional[str]] = field(default_factory=lambda: [None, None])
    clef_slot: int = 0
    lanes: dict[tuple[int, int], _Lane] = field(default_factory=dict)


@dataclass(frozen=True)
class DecodeReport:
    """Outcome of a lenient decode: the score plus skipped-region notes."""
    score: Score
    skipped: tuple[str, ...]


def decode(tokens: Sequence[str]) -> Score:
    """Strict inverse of :func:`encode`; any grammar violation raises."""
    score, skipped = _decode(tokens, recover=False)
    assert not skipped
    return score


def decode_recoverable(tokens: Sequence[str]) -> DecodeReport:
    """Lenient decode: on error, drop tokens up to the next ``measure``.

    Measures decoded before and after the bad region are kept.  The report
    lists one human-readable line per skipped region.
    """
    score, skipped = _decode(tokens, recover=True)
    return DecodeReport(score=score, skipped=tuple(skipped))


def _decode(tokens: Sequence[str], recover: bool) -> tuple[Score, list[str]]:
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
            measure, time_sig, i = _decode_measure(
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


def _decode_measure(tokens: Sequence[str], i: int, index: int, start: Fraction,
                    time_sig: Optional[tuple[int, int]],
                    ) -> tuple[Measure, Optional[tuple[int, int]], int]:
    assert tokens[i] == "measure"
    i += 1
    draft = _MeasureDraft(start)
    lane = _lane_for(draft, 1, _DEFAULT_VOICE[1])
    notes_seen = False
    n = len(tokens)
    while i < n and tokens[i] != "measure":
        tok = tokens[i]
        if tok.startswith("key:"):
            if notes_seen:
                raise DecodeError("attribute token after notes", i)
            draft.key_fifths = _parse_int(tok[4:], "key signature", i)
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
            staff = _parse_int(tok[6:], "staff", i)
            if staff not in (1, 2):
                raise DecodeError(f"staff must be 1 or 2, got {staff}", i)
            lane = _lane_for(draft, staff, _DEFAULT_VOICE[staff])
        elif tok.startswith("voice:"):
            voice = _parse_int(tok[6:], "voice", i)
            if voice < 1:
                raise DecodeError(f"voice must be positive, got {voice}", i)
            lane = _lane_for(draft, lane.staff, voice)
        elif tok == "grace":
            i, ev = _decode_note(tokens, i + 1, lane, grace=True, chord=False)
            lane.events.append(ev)
            notes_seen = True
            continue
        elif tok == "chord":
            if not lane.events or lane.events[-1].grace or lane.events[-1].is_rest:
                raise DecodeError("'chord' without a preceding note", i)
            i, ev = _decode_note(tokens, i + 1, lane, grace=False, chord=True)
            if ev.is_rest:
                raise DecodeError("'chord' followed by a rest", i - 1)
            lane.events.append(ev)
            notes_seen = True
            continue
        elif tok == "rest" or _PITCH_RE.match(tok):
            i, ev = _decode_note(tokens, i, lane, grace=False, chord=False)
            lane.cursor += ev.duration
            lane.events.append(ev)
            notes_seen = True
            continue
        else:
            raise DecodeError(f"unexpected token {tok!r}", i)
        i += 1

    if draft.time_sig is not None:
        time_sig = draft.time_sig
    filled_lanes = [l for l in draft.lanes.values() if l.events]
    if filled_lanes:
        duration = max(l.cursor for l in filled_lanes) - start
    elif time_sig is not None:
        duration = Fraction(time_sig[0] * 4, time_sig[1])
    else:
        duration = Fraction(4)
    end = start + duration
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


def _lane_for(draft: _MeasureDraft, staff: int, voice: int) -> _Lane:
    key = (staff, voice)
    if key not in draft.lanes:
        draft.lanes[key] = _Lane(staff=staff, voice=voice, cursor=draft.start)
    return draft.lanes[key]


def _decode_note(tokens: Sequence[str], i: int, lane: _Lane,
                 grace: bool, chord: bool) -> tuple[int, NoteEvent]:
    n = len(tokens)
    if i >= n:
        raise DecodeError("stream ends where a pitch was expected", n - 1)
    tok = tokens[i]
    pitch: Optional[Pitch] = None
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
    duration = duration_for_type(name, dots, tuplet)
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


def _parse_int(text: str, what: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise DecodeError(f"bad {what} {text!r}", pos) from exc


# ---------------------------------------------------------------------------
# Vocabulary

class Vocabulary:
    """Token-to-id table with fixed special tokens at the front.

    Ids are assigned by file line order; the specials always occupy
    ids ``0..len(SPECIAL_TOKENS)-1``.
    """

    def __init__(self, tokens: Iterable[str]) -> None:
        ordered: list[str] = list(SPECIAL_TOKENS)
        seen = set(ordered)
        for tok in tokens:
            if tok in seen:
                continue
            seen.add(tok)
            ordered.append(tok)
        if len(ordered) > MAX_VOCAB_SIZE:
            excess = ordered[MAX_VOCAB_SIZE:]
            raise VocabularyError(
                f"vocabulary needs {len(ordered)} entries, limit is "
                f"{MAX_VOCAB_SIZE}; first excess tokens: {excess[:10]}")
        self._tokens: tuple[str, ...] = tuple(ordered)
        self._ids: dict[str, int] = {t: i for i, t in enumerate(ordered)}

    @classmethod
    def from_corpus(cls, streams: Iterable[Sequence[str]]) -> "Vocabulary":
        """Build from token streams; corpus tokens are sorted for stability."""
        corpus: set[str] = set()
        for stream in streams:
            corpus.update(stream)
        return cls(sorted(corpus))

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def id(self, token: str) -> int:
        if token not in self._ids:
            raise VocabularyError(f"token {token!r} not in vocabulary")
        return self._ids[token]

    def token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise VocabularyError(f"id {token_id} out of range")
        return self._tokens[token_id]

    def encode_ids(self, tokens: Sequence[str]) -> list[int]:
        return [self.id(t) for t in tokens]

    def decode_ids(self, ids: Sequence[int]) -> list[str]:
        return [self.token(i) for i in ids]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self._tokens:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
        while lines and not lines[-1]:
            lines.pop()
        if lines[:len(SPECIAL_TOKENS)] != list(SPECIAL_TOKENS):
            raise VocabularyError("vocabulary file does not start with the special tokens")
        vocab = cls(lines[len(SPECIAL_TOKENS):])
        if list(vocab.tokens) != lines:
            raise VocabularyError("vocabulary file contains duplicates")
        return vocab
