"""Style embedding and similarity tests."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradus import analysis, style
from gradus.analysis import feature_vector, pitch_class_profile
from gradus.cli import main
from gradus.fixtures import generate_corpus
from gradus.score import Measure, NoteEvent, Pitch, Score, timeline, write_musicxml
from gradus.style import (
    EMBEDDING_DIM,
    StyleError,
    baseline_embed,
    cosine_similarity,
    load_embeddings,
    save_embeddings,
    style_distance,
)

mpmath.mp.dps = 40


def transpose(score, semitones):
    measures = []
    for m in score.measures:
        events = tuple(
            ev if ev.pitch is None else
            NoteEvent(onset=ev.onset, duration=ev.duration,
                      pitch=Pitch.from_midi(ev.pitch.midi_number + semitones),
                      voice=ev.voice, staff=ev.staff, tie_start=ev.tie_start,
                      tie_stop=ev.tie_stop, chord=ev.chord, grace=ev.grace,
                      hidden=ev.hidden)
            for ev in m.events)
        measures.append(Measure(index=m.index, start=m.start,
                                duration=m.duration, events=events,
                                time_sig=m.time_sig, key_fifths=m.key_fifths,
                                clefs=m.clefs))
    return Score(measures=tuple(measures), title=score.title,
                 genre=score.genre, source_id=score.source_id,
                 n_staves=score.n_staves)


class TestCosine:
    def test_against_mpmath(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            a = rng.normal(size=16)
            b = rng.normal(size=16)
            got = cosine_similarity(a, b)
            num = mpmath.mpf(0)
            na = mpmath.mpf(0)
            nb = mpmath.mpf(0)
            for x, y in zip(a, b):
                num += mpmath.mpf(float(x)) * mpmath.mpf(float(y))
                na += mpmath.mpf(float(x)) ** 2
                nb += mpmath.mpf(float(y)) ** 2
            want = float(num / (mpmath.sqrt(na) * mpmath.sqrt(nb)))
            assert got == pytest.approx(want, abs=1e-12)

    def test_self_similarity_is_one(self):
        v = np.random.default_rng(1).normal(size=EMBEDDING_DIM)
        assert cosine_similarity(v, v) == pytest.approx(1.0)
        assert style_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_distance_is_never_negative(self):
        # the cosine of [1, 1, 1] with itself rounds to 1 + 2**-52
        v = np.ones(3)
        assert cosine_similarity(v, v) == 1.0 + 2.0 ** -52
        assert style_distance(v, v) == 0.0
        for piece in generate_corpus(40, seed=7):
            e = baseline_embed(piece)
            assert style_distance(e, e) >= 0.0, piece.source_id

    def test_equal_embeddings_are_zero_apart(self):
        # the cosine of [0.1, 0.1, 0.1] with itself rounds to 1 - 2**-53
        v = [0.1, 0.1, 0.1]
        assert cosine_similarity(v, v) == 1.0 - 2.0 ** -53
        assert style_distance(v, v) == 0.0
        assert style_distance(np.array(v), np.array(v)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=70).filter(any))
    def test_equal_nonzero_embeddings_are_zero_apart(self, v):
        assert style_distance(v, list(v)) == 0.0

    def test_equal_zero_embeddings_rejected(self):
        with pytest.raises(StyleError):
            style_distance(np.zeros(4), np.zeros(4))

    def test_opposite_vectors(self):
        v = np.array([1.0, 0.0, 2.0])
        assert cosine_similarity(v, -v) == pytest.approx(-1.0)
        assert style_distance(v, -v) == pytest.approx(2.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(StyleError):
            cosine_similarity(np.ones(3), np.ones(4))

    def test_zero_vector_rejected(self):
        with pytest.raises(StyleError):
            cosine_similarity(np.zeros(4), np.ones(4))


class TestBaselineEmbed:
    def test_shape_and_norm(self, small_corpus):
        for score in small_corpus:
            v = baseline_embed(score)
            assert v.shape == (EMBEDDING_DIM,)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.isfinite(v))

    def test_deterministic(self, small_corpus):
        for score in small_corpus[:4]:
            np.testing.assert_array_equal(baseline_embed(score),
                                          baseline_embed(score))

    def test_octave_transposition_invariant(self, small_corpus):
        for score in small_corpus[:6]:
            up = transpose(score, 12)
            np.testing.assert_allclose(baseline_embed(up),
                                       baseline_embed(score), atol=1e-9)

    def test_semitone_transposition_changes_embedding(self, small_corpus):
        score = small_corpus[4]
        shifted = transpose(score, 1)
        assert not np.allclose(baseline_embed(shifted),
                               baseline_embed(score))

    def test_different_pieces_differ(self, small_corpus):
        vecs = [baseline_embed(s) for s in small_corpus]
        sims = [cosine_similarity(vecs[i], vecs[j])
                for i in range(len(vecs)) for j in range(i + 1, len(vecs))]
        # none should collapse to identical embeddings
        assert max(sims) < 1.0 - 1e-9

    def test_self_more_similar_than_stranger(self, small_corpus):
        # a piece against its octave shift beats it against another piece
        a = small_corpus[0]
        b = small_corpus[-1]
        va = baseline_embed(a)
        assert cosine_similarity(va, baseline_embed(transpose(a, 12))) > \
            cosine_similarity(va, baseline_embed(b))

    def test_empty_score_rejected(self):
        from gradus.analysis import AnalysisError
        with pytest.raises((StyleError, AnalysisError)):
            baseline_embed(Score(measures=()))


@pytest.mark.parametrize("fn", [baseline_embed, feature_vector, pitch_class_profile],
                         ids=lambda fn: fn.__name__)
def test_one_timeline_per_score(monkeypatch, small_corpus, fn):
    calls = []

    def counted(score):
        calls.append(score)
        return timeline(score)

    monkeypatch.setattr(analysis, "timeline", counted)
    monkeypatch.setattr(style, "timeline", counted)
    for score in small_corpus[:4]:
        calls.clear()
        fn(score)
        assert calls == [score]


def test_one_timeline_per_score_in_skyline_stage(monkeypatch, small_corpus, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for k, score in enumerate(small_corpus[:4]):
        write_musicxml(score, str(corpus / f"p{k}.musicxml"))
    calls = []

    def counted(score):
        calls.append(score)
        return timeline(score)

    monkeypatch.setattr(analysis, "timeline", counted)
    assert main(["skyline", "--corpus", str(corpus), "--out", str(tmp_path / "sky.jsonl")]) == 0
    assert len(calls) == 4
    assert len({id(score) for score in calls}) == 4


class TestPersistence:
    def test_round_trip(self, tmp_path, small_corpus):
        table = {s.source_id: baseline_embed(s) for s in small_corpus[:5]}
        path = tmp_path / "emb.jsonl"
        save_embeddings(str(path), table)
        loaded = load_embeddings(str(path))
        assert set(loaded) == set(table)
        for k in table:
            np.testing.assert_allclose(loaded[k], table[k], atol=1e-15)

    def test_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = '{"id": "x", "dim": 2, "v": [1.0, 0.0]}\n'
        path.write_text(line + line)
        with pytest.raises(StyleError):
            load_embeddings(str(path))

    def test_rejects_dim_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x", "dim": 3, "v": [1.0, 0.0]}\n')
        with pytest.raises(StyleError):
            load_embeddings(str(path))

    @pytest.mark.parametrize("line", [
        '[1, 2]',
        '"x"',
        '{"id": "x", "dim": 2, "v": "zz"}',
        '{"id": "x", "dim": 2, "v": {"a": 1}}',
        '{"id": ["x"], "dim": 2, "v": [1.0, 0.0]}',
        '{"id": "x", "dim": 2',
        '{"id": "x", "dim": 2, "v": ["1", "0"]}',
    ])
    def test_malformed_line_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "ok", "dim": 2, "v": [1.0, 0.0]}\n' + line + "\n")
        with pytest.raises(StyleError, match=r"bad\.jsonl:2:"):
            load_embeddings(str(path))

    @pytest.mark.parametrize("v", ["[1.0, null]", "[NaN, 0.0]", "[Infinity, 0.0]",
                                   "[1.0, -Infinity]"],
                             ids=["null", "nan", "inf", "minus-inf"])
    def test_rejects_non_finite_entries(self, tmp_path, v):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "ok", "dim": 2, "v": [1.0, 0.0]}\n'
                        '{"id": "x", "dim": 2, "v": ' + v + '}\n')
        with pytest.raises(StyleError,
                           match=r"bad\.jsonl:2: field 'v' must be a list of finite numbers"):
            load_embeddings(str(path))

    def test_rejects_zero_vector(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "ok", "dim": 2, "v": [1.0, 0.0]}\n'
                        '{"id": "x", "dim": 2, "v": [0.0, 0.0]}\n')
        with pytest.raises(StyleError, match=r"bad\.jsonl:2: 'v' of 'x' has zero norm"):
            load_embeddings(str(path))

    def test_rejects_bool_dim(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "ok", "dim": 1, "v": [1.0]}\n'
                        '{"id": "x", "dim": true, "v": [0.5]}\n')
        with pytest.raises(StyleError, match=r"bad\.jsonl:2: field 'dim' must be an integer"):
            load_embeddings(str(path))
