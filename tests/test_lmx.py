"""Token codec and vocabulary tests."""

from fractions import Fraction

import pytest

from conftest import build_reference_piece, semantic_signature
from gradus.lmx import (
    DecodeError,
    EncodeError,
    SPECIAL_TOKENS,
    Vocabulary,
    VocabularyError,
    decode,
    decode_recoverable,
    encode,
)
from gradus.score import Measure, NoteEvent, Pitch, Score, parse_musicxml, serialize_musicxml


class TestEncode:
    def test_reference_token_budget(self, reference_piece):
        tokens = encode(reference_piece)
        assert 19 <= len(tokens) <= 27

    def test_reference_compression(self, reference_piece):
        tokens = encode(reference_piece)
        xml_chars = len(serialize_musicxml(reference_piece))
        token_chars = len(" ".join(tokens))
        assert xml_chars / token_chars >= 5.0

    def test_reference_exact_stream(self, reference_piece):
        tokens = encode(reference_piece)
        assert tokens[:5] == ["measure", "key:0", "time:4/4",
                              "clef:G2", "clef:F4"]
        # staff 1 is implicit at measure start; staff 2 is not
        assert "staff:1" not in tokens
        assert "C5" in tokens and "staff:2" in tokens

    def test_attribute_tokens_only_when_changed(self, reference_piece):
        tokens = encode(reference_piece)
        # second measure keeps meter and key, so no attribute repeats
        second = tokens[tokens.index("measure", 1):]
        assert "time:4/4" not in second
        assert "key:0" not in second

    def test_voice_token_only_off_default(self):
        # two voices on staff 1: second one needs an explicit voice token
        def ev(onset, name, voice):
            return NoteEvent(onset=Fraction(onset), duration=Fraction(1),
                             pitch=Pitch.from_name(name), voice=voice, staff=1)

        m = Measure(index=0, start=Fraction(0), duration=Fraction(1),
                    events=(ev(0, "C5", 1), ev(0, "E4", 2)),
                    time_sig=(1, 4), key_fifths=0, clefs=("G2", "F4"))
        tokens = encode(Score(measures=(m,), n_staves=2))
        assert "voice:2" in tokens
        assert "voice:1" not in tokens

    def test_unrepresentable_duration_rejected(self):
        ev = NoteEvent(onset=Fraction(0), duration=Fraction(5, 2),
                       pitch=Pitch.from_name("C4"))
        m = Measure(index=0, start=Fraction(0), duration=Fraction(5, 2),
                    events=(ev,), time_sig=(4, 4))
        with pytest.raises(EncodeError):
            encode(Score(measures=(m,), n_staves=2))

    def test_voice_crossing_staves_rejected(self):
        # voice 1 plays C5 (staff 1), C3 (staff 2), E5 (staff 1): the
        # staff-1 lane has a gap at beat 2 that the token stream cannot say
        def ev(onset, duration, name, voice, staff):
            return NoteEvent(onset=Fraction(onset), duration=Fraction(duration),
                             pitch=Pitch.from_name(name), voice=voice, staff=staff)

        m = Measure(index=0, start=Fraction(0), duration=Fraction(4),
                    events=(ev(0, 1, "C5", 1, 1), ev(0, 4, "C2", 2, 2),
                            ev(1, 1, "C3", 1, 2), ev(2, 2, "E5", 1, 1)),
                    time_sig=(4, 4), key_fifths=0, clefs=("G2", "F4"))
        score = parse_musicxml(serialize_musicxml(Score(measures=(m,), n_staves=2)))
        with pytest.raises(EncodeError, match="measure 1: staff 1 voice 1"):
            encode(score)

    def test_lane_entering_late_rejected(self):
        ev = NoteEvent(onset=Fraction(5), duration=Fraction(1),
                       pitch=Pitch.from_name("C4"), voice=1, staff=1)
        m = Measure(index=1, start=Fraction(4), duration=Fraction(4),
                    events=(ev,), time_sig=(4, 4))
        with pytest.raises(EncodeError, match="measure 2: staff 1 voice 1"):
            encode(Score(measures=(m,), n_staves=2))


class TestRoundTrip:
    def test_reference(self, reference_piece):
        back = decode(encode(reference_piece))
        assert semantic_signature(back) == semantic_signature(reference_piece)

    def test_small_corpus(self, small_corpus):
        for score in small_corpus:
            back = decode(encode(score))
            assert semantic_signature(back) == semantic_signature(score)

    def test_attributes_survive(self, small_corpus):
        for score in small_corpus:
            back = decode(encode(score))
            for want, got in zip(score.measures, back.measures):
                assert got.time_sig == want.time_sig
                assert got.duration == want.duration

    def test_encode_deterministic(self, small_corpus):
        for score in small_corpus[:4]:
            assert encode(score) == encode(score)

    def test_chords_survive(self):
        ref = build_reference_piece()
        back = decode(encode(ref))
        # no chords in the reference, so synthesize one
        def ev(name, chord):
            return NoteEvent(onset=Fraction(0), duration=Fraction(1),
                             pitch=Pitch.from_name(name), chord=chord)

        m = Measure(index=0, start=Fraction(0), duration=Fraction(1),
                    events=(ev("C4", False), ev("E4", True), ev("G4", True)),
                    time_sig=(1, 4), key_fifths=0, clefs=("G2", "F4"))
        score = Score(measures=(m,), n_staves=2)
        tokens = encode(score)
        assert tokens.count("chord") == 2
        back = decode(tokens)
        assert semantic_signature(back) == semantic_signature(score)

    def test_ties_and_tuplets_survive(self):
        def ev(onset, dur, **kw):
            return NoteEvent(onset=Fraction(onset), duration=Fraction(dur),
                             pitch=Pitch.from_name("A4"), **kw)

        m = Measure(index=0, start=Fraction(0), duration=Fraction(2),
                    events=(ev(0, Fraction(1, 3)),
                            ev(Fraction(1, 3), Fraction(1, 3)),
                            ev(Fraction(2, 3), Fraction(1, 3)),
                            ev(1, 1, tie_start=True)),
                    time_sig=(2, 4), key_fifths=0, clefs=("G2", "F4"))
        m2 = Measure(index=1, start=Fraction(2), duration=Fraction(2),
                     events=(ev(2, 2, tie_stop=True),), time_sig=(2, 4))
        score = Score(measures=(m, m2), n_staves=2)
        tokens = encode(score)
        assert "triplet" in tokens
        assert "tie:start" in tokens and "tie:stop" in tokens
        back = decode(tokens)
        assert semantic_signature(back) == semantic_signature(score)
        starts = [e for e in back.notes() if e.tie_start]
        assert len(starts) == 1 and starts[0].onset == 1


class TestDecodeErrors:
    def test_empty_stream(self):
        with pytest.raises(DecodeError):
            decode([])

    def test_must_start_with_measure(self):
        with pytest.raises(DecodeError) as exc:
            decode(["C4", "quarter"])
        assert exc.value.position == 0

    def test_unknown_token_position(self):
        with pytest.raises(DecodeError) as exc:
            decode(["measure", "time:4/4", "C4", "blorp"])
        assert exc.value.position == 3

    def test_pitch_without_duration(self):
        with pytest.raises(DecodeError):
            decode(["measure", "time:4/4", "C4", "D4", "quarter"])

    def test_chord_without_anchor(self):
        with pytest.raises(DecodeError):
            decode(["measure", "time:4/4", "chord", "C4", "quarter"])

    def test_attribute_after_notes(self):
        with pytest.raises(DecodeError):
            decode(["measure", "C4", "quarter", "time:3/4"])

    def test_recoverable_skips_bad_measure(self):
        good = ["measure", "time:4/4", "C4", "whole"]
        bad = ["measure", "blorp"]
        report = decode_recoverable(good + bad + good)
        assert len(report.skipped) == 1
        assert "blorp" in report.skipped[0]
        assert len(report.score.measures) == 2

    def test_recoverable_all_bad(self):
        report = decode_recoverable(["measure", "blorp"])
        assert report.score.measures == ()
        assert len(report.skipped) == 1

    def test_recoverable_clean_input(self, reference_piece):
        report = decode_recoverable(encode(reference_piece))
        assert report.skipped == ()
        assert semantic_signature(report.score) == \
            semantic_signature(reference_piece)


class TestVocabulary:
    def test_specials_first_and_stable(self):
        vocab = Vocabulary.from_corpus([["measure", "C4", "quarter"]])
        for i, tok in enumerate(SPECIAL_TOKENS):
            assert vocab.id(tok) == i
        assert vocab.id("[PAD]") == 0
        assert vocab.id("[BOS]") == 1
        assert vocab.id("[EOS]") == 2
        assert vocab.id("[SEP]") == 3
        assert vocab.id("[HARM]") == 4
        assert vocab.id("[LEVEL-1]") == 5
        assert vocab.id("[LEVEL-9]") == 13

    def test_corpus_tokens_sorted(self):
        vocab = Vocabulary.from_corpus([["zz", "aa", "mm"], ["aa"]])
        base = len(SPECIAL_TOKENS)
        assert vocab.token(base) == "aa"
        assert vocab.token(base + 1) == "mm"
        assert vocab.token(base + 2) == "zz"

    def test_ids_round_trip(self, small_corpus):
        from gradus.lmx import encode as enc
        streams = [enc(s) for s in small_corpus]
        vocab = Vocabulary.from_corpus(streams)
        for stream in streams:
            assert vocab.decode_ids(vocab.encode_ids(stream)) == stream

    def test_unknown_token_raises(self):
        vocab = Vocabulary.from_corpus([["measure"]])
        with pytest.raises(VocabularyError):
            vocab.id("nonexistent")
        with pytest.raises(VocabularyError):
            vocab.token(9999)

    def test_save_load(self, tmp_path, small_corpus):
        from gradus.lmx import encode as enc
        vocab = Vocabulary.from_corpus([enc(s) for s in small_corpus])
        path = tmp_path / "vocab.txt"
        vocab.save(str(path))
        loaded = Vocabulary.load(str(path))
        assert loaded.tokens == vocab.tokens
        lines = path.read_text().splitlines()
        assert lines == list(vocab.tokens)

    def test_size_cap(self):
        streams = [[f"tok{i:04d}" for i in range(600)]]
        with pytest.raises(VocabularyError):
            Vocabulary.from_corpus(streams)

    def test_load_rejects_duplicates(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(list(SPECIAL_TOKENS) + ["a", "a"]) + "\n")
        with pytest.raises(VocabularyError):
            Vocabulary.load(str(path))

    def test_load_rejects_missing_specials(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\nc\n")
        with pytest.raises(VocabularyError):
            Vocabulary.load(str(path))
