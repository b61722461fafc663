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
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .score import (
    DURATION_TYPES,
    PITCH_NAME,
    Measure,
    NoteEvent,
    Pitch,
    Score,
    duration_for_type,
    measure_length,
    measure_order,
    quarter_text,
    time_signature,
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

_DEFAULT_VOICE = {1: 1, 2: 2}
_TUPLET_TOKENS = {(3, 2): "triplet", (5, 4): "quintuplet"}
_TOKEN_TUPLETS = {v: k for k, v in _TUPLET_TOKENS.items()}
# the length in ticks of every (type, dots, tuplet) a note's tokens can spell
_LENGTHS = {(name, dots, tuplet): duration_for_type(name, dots, tuplet)
            for name in DURATION_TYPES for dots in range(3)
            for tuplet in (None, *_TUPLET_TOKENS)}


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
    # (staff, voice) -> onset -> its grace notes, chord roots and chord members
    lanes: dict[tuple[int, int], dict[int, tuple[list, list, list]]] = {}
    for ev in measure.events:
        groups = lanes.setdefault((ev.staff, ev.voice), {})
        group = groups.setdefault(ev.onset, ([], [], []))
        group[0 if ev.grace else 2 if ev.chord else 1].append(ev)
    tokens: list[str] = []
    cur_staff, cur_voice = 1, _DEFAULT_VOICE[1]
    for (staff, voice), groups in sorted(lanes.items()):
        if staff != cur_staff:
            tokens.append(f"staff:{staff}")
            cur_staff, cur_voice = staff, _DEFAULT_VOICE[staff]
        if voice != cur_voice:
            tokens.append(f"voice:{voice}")
            cur_voice = voice
        cursor = measure.start   # where the decoder will place the next event
        for onset in sorted(groups):
            if onset != cursor:
                raise EncodeError(
                    f"measure {measure.index + 1}: staff {staff} voice {voice} "
                    f"has an event at {quarter_text(onset - measure.start)} quarters but "
                    f"its previous events end at {quarter_text(cursor - measure.start)}")
            graces, roots, members = groups[onset]
            for g in graces:
                tokens.append("grace")
                tokens.append(g.pitch.name if g.pitch else "rest")
                tokens.extend(_duration_tokens(g.duration, measure))
            if len(roots) > 1:
                raise EncodeError(
                    f"measure {measure.index + 1}: simultaneous non-chord events "
                    f"in staff {staff} voice {voice}")
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


def _duration_tokens(ticks: int, measure: Measure) -> list[str]:
    decomposed = type_for_duration(ticks)
    if decomposed is None:
        raise EncodeError(f"measure {measure.index + 1}: duration "
                          f"{quarter_text(ticks)} is not notatable")
    name, dots, tuplet = decomposed
    tokens = [name] + ["dot"] * dots
    if tuplet is not None:
        tokens.append(_TUPLET_TOKENS[tuplet])
    return tokens


# ---------------------------------------------------------------------------
# Decoding

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
    start = 0
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
    return Score(measures=tuple(measures)), skipped


def _decode_measure(tokens: Sequence[str], i: int, index: int, start: int,
                    time_sig: Optional[tuple[int, int]],
                    ) -> tuple[Measure, Optional[tuple[int, int]], int]:
    assert tokens[i] == "measure"
    i += 1
    key_fifths: Optional[int] = None
    m_time: Optional[tuple[int, int]] = None
    clefs: list[str] = []
    # (staff, voice) -> [cursor, [event, ...]], the cursor in ticks from the score start
    staff, voice = 1, _DEFAULT_VOICE[1]
    lane: list = [start, []]
    lanes = {(staff, voice): lane}
    notes_seen = False
    n = len(tokens)
    while i < n and tokens[i] != "measure":
        tok = tokens[i]
        if tok.startswith("key:"):
            if notes_seen:
                raise DecodeError("attribute token after notes", i)
            key_fifths = _parse_int(tok[4:], "key signature", i)
        elif tok.startswith("time:"):
            if notes_seen:
                raise DecodeError("attribute token after notes", i)
            m = re.fullmatch(r"(\d+)/(\d+)", tok[5:])
            if m is None:
                raise DecodeError(f"bad time signature {tok!r}", i)
            try:   # a zero, or more digits than int() reads
                m_time = time_signature(int(m.group(1)), int(m.group(2)))
            except ValueError as exc:
                raise DecodeError(f"bad time signature {tok!r}: {exc}", i) from exc
        elif tok.startswith("clef:"):
            if notes_seen:
                raise DecodeError("attribute token after notes", i)
            if len(clefs) >= 2:
                raise DecodeError("more than two clef tokens", i)
            clefs.append(tok[5:])
        elif tok.startswith("staff:"):
            staff = _parse_int(tok[6:], "staff", i)
            if staff not in (1, 2):
                raise DecodeError(f"staff must be 1 or 2, got {staff}", i)
            voice = _DEFAULT_VOICE[staff]
            lane = lanes.setdefault((staff, voice), [start, []])
        elif tok.startswith("voice:"):
            voice = _parse_int(tok[6:], "voice", i)
            if voice < 1:
                raise DecodeError(f"voice must be positive, got {voice}", i)
            lane = lanes.setdefault((staff, voice), [start, []])
        elif tok in ("grace", "chord", "rest") or PITCH_NAME.match(tok):
            grace, chord = tok == "grace", tok == "chord"
            placed = lane[1]
            if chord and (not placed or placed[-1].grace or placed[-1].is_rest):
                raise DecodeError("'chord' without a preceding note", i)
            i, pitch, length, tie_start, tie_stop = _decode_note(
                tokens, i + 1 if grace or chord else i, grace)
            if chord and pitch is None:
                raise DecodeError("'chord' followed by a rest", i - 1)
            onset = placed[-1].onset if chord else lane[0]
            if not grace and not chord:
                lane[0] += length
            placed.append(NoteEvent(
                onset=onset, duration=length, pitch=pitch,
                voice=voice, staff=staff, tie_start=tie_start, tie_stop=tie_stop,
                chord=chord, grace=grace))
            notes_seen = True
            continue
        else:
            raise DecodeError(f"unexpected token {tok!r}", i)
        i += 1

    if m_time is not None:
        time_sig = m_time
    # a measure with no timed event is a full measure, as the parser reads it
    end = max(cursor for cursor, _ in lanes.values())
    duration = end - start or measure_length(time_sig)
    events: list[NoteEvent] = []
    for (staff, voice), (cursor, placed) in lanes.items():
        events += placed
        if placed and cursor < end:
            events.append(NoteEvent(onset=cursor, duration=end - cursor, pitch=None,
                                    voice=voice, staff=staff, hidden=True))
    measure = Measure(
        index=index, start=start, duration=duration, events=tuple(measure_order(events)),
        time_sig=m_time, key_fifths=key_fifths,
        clefs=(*clefs, None, None)[:2])
    return measure, time_sig, i


def _decode_note(tokens: Sequence[str], i: int, grace: bool,
                 ) -> tuple[int, Optional[Pitch], int, bool, bool]:
    """The note whose pitch or ``rest`` is ``tokens[i]``: the index after it,
    its pitch, its length in ticks, and its ties."""
    n = len(tokens)
    if i >= n:
        raise DecodeError("stream ends where a pitch was expected", n - 1)
    tok = tokens[i]
    pitch: Optional[Pitch] = None
    if tok != "rest":
        try:
            pitch = Pitch.from_name(tok)
        except ValueError as exc:
            if PITCH_NAME.match(tok) is None:
                raise DecodeError(f"expected a pitch or 'rest', got {tok!r}", i) from None
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
    return i, pitch, _LENGTHS[name, dots, tuplet], tie_start, tie_stop


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
        """The vocabulary :meth:`save` wrote to ``path``; any fault in the
        file raises :class:`VocabularyError` naming ``path``."""
        try:
            with open(path, encoding="utf-8") as fh:
                lines = [line.rstrip("\n") for line in fh]
            while lines and not lines[-1]:
                lines.pop()
            if lines[:len(SPECIAL_TOKENS)] != list(SPECIAL_TOKENS):
                raise VocabularyError("vocabulary file does not start with the special tokens")
            vocab = cls(lines[len(SPECIAL_TOKENS):])
            if list(vocab.tokens) != lines:
                raise VocabularyError("vocabulary file contains duplicates")
        except OSError as exc:
            raise VocabularyError(
                f"{path}: cannot read ({type(exc).__name__}: {exc.strerror})") from exc
        except (UnicodeDecodeError, VocabularyError) as exc:
            raise VocabularyError(f"{path}: {exc}") from exc
        return vocab
