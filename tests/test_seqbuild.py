"""Training sequence assembly and loss masking tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradus import seqbuild
from gradus.lmx import Vocabulary, encode
from gradus.mining import Pair
from gradus.seqbuild import (
    OversizedPairError,
    Sample,
    SequenceError,
    TruncationWarning,
    adaptation_sample,
    adaptation_samples,
    collate,
    conditioned_sample,
    masked_cross_entropy,
    prefix_mask,
)

HARMONY_FLAT = np.full(12, 1 / 12)


@pytest.fixture(scope="module")
def streams(small_corpus):
    return [encode(s) for s in small_corpus]


@pytest.fixture(scope="module")
def vocab(streams):
    return Vocabulary.from_corpus(streams)


class TestSample:
    def test_validation(self):
        ids = np.array([1, 5, 2], dtype=np.int64)
        ok = Sample(ids=ids, mask=np.array([1, 0, 0], dtype=np.int8))
        assert len(ok) == 3
        with pytest.raises(SequenceError):
            Sample(ids=ids, mask=np.array([1, 1, 1], dtype=np.int8))
        with pytest.raises(SequenceError):
            Sample(ids=ids, mask=np.array([1, 0], dtype=np.int8))
        with pytest.raises(SequenceError):
            Sample(ids=ids, mask=np.array([1, 0, 2], dtype=np.int8))
        with pytest.raises(SequenceError):
            Sample(ids=ids, mask=np.array([1, 0, 0], dtype=np.int8),
                   harmony=np.zeros(11))

    def test_prefix_mask(self):
        m = prefix_mask(2, 5)
        assert m.tolist() == [1, 1, 0, 0, 0]
        assert m.dtype == np.int8
        with pytest.raises(SequenceError):
            prefix_mask(6, 5)


class TestConditioned:
    def test_layout(self, vocab, streams):
        s = conditioned_sample(vocab, streams[0], HARMONY_FLAT, piece="p0")
        assert s.ids[0] == vocab.id("[BOS]")
        assert s.ids[1] == vocab.id("[HARM]")
        assert s.ids[-1] == vocab.id("[EOS]")
        assert len(s.ids) == len(streams[0]) + 3
        # two-token prefix conditions, melody plus EOS is scored
        assert s.mask[:2].tolist() == [1, 1]
        assert s.mask[2:].sum() == 0
        assert int((s.mask == 0).sum()) == len(streams[0]) + 1
        np.testing.assert_array_equal(s.harmony, HARMONY_FLAT)

    def test_melody_tokens_round_trip(self, vocab, streams):
        s = conditioned_sample(vocab, streams[1], HARMONY_FLAT, piece="p1")
        inner = vocab.decode_ids(list(s.ids[2:-1]))
        assert inner == streams[1]

    def test_truncation_drops_whole_measures(self, vocab, streams, monkeypatch):
        stream = streams[0]
        n_measures = stream.count("measure")
        assert n_measures >= 2
        # one token short of fitting
        monkeypatch.setattr(seqbuild, "MAX_SEQUENCE_LEN", len(stream) + 3 - 1)
        with pytest.warns(TruncationWarning):
            s = conditioned_sample(vocab, stream, HARMONY_FLAT, piece="p0")
        inner = vocab.decode_ids(list(s.ids[2:-1]))
        assert inner == stream[:len(inner)]
        assert inner.count("measure") < n_measures
        # the cut lands exactly on a measure boundary
        assert stream[len(inner)] == "measure"

    def test_first_measure_too_big_rejected(self, vocab, streams, monkeypatch):
        monkeypatch.setattr(seqbuild, "MAX_SEQUENCE_LEN", 5)
        with pytest.raises(SequenceError):
            conditioned_sample(vocab, streams[0], HARMONY_FLAT, piece="p0")

    def test_harmony_shape_checked(self, vocab, streams):
        with pytest.raises(SequenceError):
            conditioned_sample(vocab, streams[0], np.full(11, 1 / 11))

    def test_empty_melody_rejected(self, vocab):
        with pytest.raises(SequenceError):
            conditioned_sample(vocab, [], HARMONY_FLAT)


class TestAdaptation:
    def test_layout(self, vocab, streams):
        hard, easy = streams[0], streams[1]
        s = adaptation_sample(vocab, hard, easy, hard_level=7, easy_level=2,
                              piece="p")
        ids = list(s.ids)
        assert ids[0] == vocab.id("[LEVEL-7]")
        sep = ids.index(vocab.id("[SEP]"))
        assert sep == 1 + len(hard)
        assert ids[sep + 1] == vocab.id("[LEVEL-2]")
        assert ids[-1] == vocab.id("[EOS]")
        assert len(ids) == 1 + len(hard) + 1 + 1 + len(easy) + 1
        assert s.harmony is None

    def test_loss_positions_cover_easy_plus_eos(self, vocab, streams):
        hard, easy = streams[0], streams[1]
        s = adaptation_sample(vocab, hard, easy, hard_level=7, easy_level=2)
        assert int((s.mask == 0).sum()) == len(easy) + 1
        prefix_len = 1 + len(hard) + 1 + 1
        assert s.mask[:prefix_len].tolist() == [1] * prefix_len
        assert s.mask[prefix_len:].tolist() == [0] * (len(easy) + 1)

    def test_easy_side_never_truncated(self, vocab, streams, monkeypatch):
        hard, easy = streams[0], streams[1]
        monkeypatch.setattr(seqbuild, "MAX_SEQUENCE_LEN", 4 + len(easy) + len(hard) - 2)
        with pytest.warns(TruncationWarning):
            s = adaptation_sample(vocab, hard, easy, hard_level=8, easy_level=1)
        ids = list(s.ids)
        sep = ids.index(vocab.id("[SEP]"))
        assert vocab.decode_ids(ids[sep + 2:-1]) == easy
        got_hard = vocab.decode_ids(ids[1:sep])
        assert len(got_hard) < len(hard)
        assert got_hard == hard[:len(got_hard)]
        assert hard[len(got_hard)] == "measure"

    def test_oversized_pair_rejected(self, vocab, streams, monkeypatch):
        hard, easy = streams[0], streams[1]
        # budget leaves no room for even one hard measure
        monkeypatch.setattr(seqbuild, "MAX_SEQUENCE_LEN", 4 + len(easy))
        with pytest.raises(OversizedPairError):
            adaptation_sample(vocab, hard, easy, hard_level=8, easy_level=1)

    def test_level_bounds_checked(self, vocab, streams):
        with pytest.raises(SequenceError):
            adaptation_sample(vocab, streams[0], streams[1], hard_level=0,
                              easy_level=2)
        with pytest.raises(SequenceError):
            adaptation_sample(vocab, streams[0], streams[1], hard_level=5,
                              easy_level=10)

    def test_batch_skips_unbuildable(self, vocab, streams):
        tokens_by_id = {"a.v0": streams[0], "a.v1": streams[1],
                        "b.v0": streams[2], "b.v1": streams[3]}
        pairs = [
            Pair(piece="a", hard="a.v0", easy="a.v1", hard_level=7,
                 easy_level=2, gap=5, sim=0.9),
            Pair(piece="b", hard="b.v0", easy="b.v1", hard_level=6,
                 easy_level=3, gap=3, sim=0.8),
            Pair(piece="c", hard="c.v0", easy="c.v1", hard_level=5,
                 easy_level=1, gap=4, sim=0.7),   # streams missing
        ]
        samples, skipped = adaptation_samples(vocab, pairs, tokens_by_id)
        assert len(samples) == 2
        assert len(skipped) == 1
        assert "c" in skipped[0]

    def test_batch_skips_oversized(self, vocab, streams, monkeypatch):
        tokens_by_id = {"a.v0": streams[0], "a.v1": streams[1]}
        pairs = [Pair(piece="a", hard="a.v0", easy="a.v1", hard_level=7,
                      easy_level=2, gap=5, sim=0.9)]
        monkeypatch.setattr(seqbuild, "MAX_SEQUENCE_LEN", 4 + len(streams[1]))
        samples, skipped = adaptation_samples(vocab, pairs, tokens_by_id)
        assert samples == []
        assert len(skipped) == 1


class TestMaskedLoss:
    def test_matches_manual_computation(self):
        rng = np.random.default_rng(0)
        V = 40
        targets = np.array([20, 21, 22, 2], dtype=np.int64)
        mask = np.array([1, 0, 0, 0], dtype=np.int8)
        logits = rng.normal(size=(4, V))
        loss, _ = masked_cross_entropy(logits, targets, mask)
        want = 0.0
        for pos in (1, 2, 3):
            row = logits[pos]
            want += -(row[targets[pos]] - np.log(np.exp(row).sum()))
        want /= 3
        assert loss == pytest.approx(want, rel=1e-12)

    def test_masked_targets_fully_ignored(self):
        rng = np.random.default_rng(1)
        V, n = 50, 30
        targets = rng.integers(0, V, size=n).astype(np.int64)
        mask = np.zeros(n, dtype=np.int8)
        mask[:12] = 1
        logits = rng.normal(size=(n, V))
        base, dbase = masked_cross_entropy(logits, targets, mask)
        for _ in range(20):
            scrambled = targets.copy()
            scrambled[:12] = rng.integers(0, V, size=12)
            loss, dlogits = masked_cross_entropy(logits, scrambled, mask)
            assert loss == base
            assert np.array_equal(dlogits, dbase)

    def test_large_logits_stay_finite(self):
        logits = np.array([[1e4, -1e4, 0.0], [5e3, 5e3, -5e3]])
        targets = np.array([0, 1], dtype=np.int64)
        mask = np.zeros(2, dtype=np.int8)
        loss, dlogits = masked_cross_entropy(logits, targets, mask)
        assert np.isfinite(loss)
        assert np.isfinite(dlogits).all()

    def test_fully_masked_rejected(self):
        with pytest.raises(SequenceError):
            masked_cross_entropy(np.zeros((3, 5)),
                                 np.zeros(3, dtype=np.int64),
                                 np.ones(3, dtype=np.int8))

    def test_batched_logits_match_flattened(self):
        rng = np.random.default_rng(2)
        B, T, V = 3, 6, 11
        logits = rng.normal(size=(B, T, V))
        targets = rng.integers(0, V, size=(B, T))
        mask = np.zeros((B, T), dtype=np.int8)
        mask[:, :2] = 1
        mask[2, 4:] = 1                        # a padded row
        flat, dflat = masked_cross_entropy(logits.reshape(-1, V), targets.ravel(), mask.ravel())
        loss, dlogits = masked_cross_entropy(logits, targets, mask)
        assert loss == flat
        assert np.array_equal(dlogits, dflat.reshape(B, T, V))
        want = np.mean([np.log(np.exp(logits[b, t]).sum()) - logits[b, t, targets[b, t]]
                        for b in range(B) for t in range(T) if mask[b, t] == 0])
        assert flat == pytest.approx(want, rel=1e-12)

    def test_gradient_is_the_scored_rows_softmax_less_their_targets(self):
        rng = np.random.default_rng(3)
        B, T, V = 2, 5, 9
        logits = rng.normal(size=(B, T, V)) * 30.0
        targets = rng.integers(0, V, size=(B, T))
        mask = np.zeros((B, T), dtype=np.int8)
        mask[0, :3] = 1
        _, dlogits = masked_cross_entropy(logits, targets, mask)
        scored = np.nonzero(mask == 0)
        rows = logits[scored]
        e = np.exp(rows - rows.max(axis=1, keepdims=True))
        soft = e / e.sum(axis=1)[:, None]
        soft[np.arange(len(rows)), targets[scored]] -= 1.0
        want = np.zeros_like(logits)
        want[scored] = soft / len(rows)
        assert np.array_equal(dlogits, want)

    @settings(max_examples=200, deadline=None)
    @given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=2),
           vocab=st.integers(2, 6), scale=st.sampled_from([0.1, 1.0, 10.0]),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_gradient_matches_central_differences(self, shape, vocab, scale, seed, data):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(*shape, vocab)) * scale
        targets = rng.integers(0, vocab, size=shape)
        mask = np.array(data.draw(st.lists(st.integers(0, 1), min_size=int(np.prod(shape)),
                                           max_size=int(np.prod(shape)))
                                  .filter(lambda m: 0 in m)), dtype=np.int8).reshape(shape)
        _, dlogits = masked_cross_entropy(logits, targets, mask)
        h = 1e-6
        numeric = np.empty_like(logits)
        for idx in np.ndindex(logits.shape):
            keep = logits[idx]
            logits[idx] = keep + h
            up, _ = masked_cross_entropy(logits, targets, mask)
            logits[idx] = keep - h
            down, _ = masked_cross_entropy(logits, targets, mask)
            logits[idx] = keep
            numeric[idx] = (up - down) / (2 * h)
        np.testing.assert_allclose(dlogits, numeric, rtol=0, atol=1e-6)
        assert (dlogits[mask == 1] == 0.0).all()
        np.testing.assert_allclose(dlogits[mask == 0].sum(axis=-1), 0.0, rtol=0,
                                   atol=vocab * np.finfo(float).eps)

    @pytest.mark.parametrize("shapes", [
        ((5,), (5,), (5,)),
        ((2, 4, 5), (2, 3), (2, 3)),
        ((2, 4, 5), (8,), (8,)),
        ((2, 4, 5), (2, 4), (2, 3)),
        ((4, 5), (4,), (2, 2)),
    ])
    def test_misaligned_shapes_rejected(self, shapes):
        z, t, m = shapes
        with pytest.raises(SequenceError):
            masked_cross_entropy(np.zeros(z), np.zeros(t, dtype=np.int64),
                                 np.zeros(m, dtype=np.int8))


class TestCollate:
    def test_padding_and_masking(self, vocab, streams):
        samples = [conditioned_sample(vocab, st, HARMONY_FLAT,
                                      piece=f"p{i}")
                   for i, st in enumerate(streams[:4])]
        ids, mask, harmony = collate(samples, vocab)
        width = max(len(s) for s in samples)
        assert ids.shape == (4, width)
        assert mask.shape == (4, width)
        assert harmony.shape == (4, 12)
        pad = vocab.id("[PAD]")
        for i, s in enumerate(samples):
            L = len(s)
            np.testing.assert_array_equal(ids[i, :L], s.ids)
            assert np.all(ids[i, L:] == pad)
            # padding is conditioning, never scored
            assert np.all(mask[i, L:] == 1)

    def test_mixed_harmony_zero_filled(self, vocab, streams):
        a = conditioned_sample(vocab, streams[0], HARMONY_FLAT, piece="a")
        b = adaptation_sample(vocab, streams[1], streams[2], hard_level=5,
                              easy_level=2, piece="b")
        _, _, harmony = collate([a, b], vocab)
        np.testing.assert_array_equal(harmony[0], HARMONY_FLAT)
        np.testing.assert_array_equal(harmony[1], np.zeros(12))

    def test_empty_batch_rejected(self, vocab):
        with pytest.raises(SequenceError):
            collate([], vocab)
