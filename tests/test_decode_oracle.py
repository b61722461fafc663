"""The preallocated KV cache and the array decode loop against the
concatenating cache and the per-row loop they replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradus.model import (
    _GELU_A,
    _GELU_C,
    _HARMONY_ID,
    LMError,
    ModelConfig,
    SampleResult,
    TinyLM,
    _gelu_fwd,
    _layernorm_fwd,
    _pick,
    _softmax_last,
    rope_rotate,
    sample,
)

CFG = ModelConfig(vocab_size=17, d_model=8, n_heads=2, n_layers=2,
                  d_ff=16, max_len=64)
PREFIX = [1, 4, 5]      # holds the harmony token, so harmony reaches the logits


def reference_extend(model, cache, ids, harmony=None):
    """Grow the cache by concatenation on every call."""
    cfg = model.config
    p = model.params
    b, s = ids.shape
    start = cache["n"]
    if start + s > cfg.max_len:
        raise LMError("past max_len")
    h = cfg.n_heads
    hd = cfg.d_model // h
    pos = np.arange(start, start + s)
    x = model._embed(ids, harmony)
    for i in range(cfg.n_layers):
        a, _ = _layernorm_fwd(x, p[f"l{i}.ln1_g"], p[f"l{i}.ln1_b"])
        q = (a @ p[f"l{i}.wq"]).reshape(b, s, h, hd).transpose(0, 2, 1, 3)
        k = (a @ p[f"l{i}.wk"]).reshape(b, s, h, hd).transpose(0, 2, 1, 3)
        v = (a @ p[f"l{i}.wv"]).reshape(b, s, h, hd).transpose(0, 2, 1, 3)
        qr = rope_rotate(q, pos)
        kr = rope_rotate(k, pos)
        kfull = kr if cache["k"][i] is None else np.concatenate([cache["k"][i], kr], axis=2)
        vfull = v if cache["v"][i] is None else np.concatenate([cache["v"][i], v], axis=2)
        cache["k"][i] = kfull
        cache["v"][i] = vfull
        scores = qr @ kfull.swapaxes(-1, -2) / np.sqrt(hd)
        if s > 1:
            total = kfull.shape[2]
            scores = scores + np.triu(np.full((s, total), -np.inf), k=1 + start)
        probs = _softmax_last(scores)
        ctx = (probs @ vfull).transpose(0, 2, 1, 3).reshape(b, s, cfg.d_model)
        x = x + ctx @ p[f"l{i}.wo"]
        a2, _ = _layernorm_fwd(x, p[f"l{i}.ln2_g"], p[f"l{i}.ln2_b"])
        h1 = a2 @ p[f"l{i}.w1"] + p[f"l{i}.b1"]
        h2, _ = _gelu_fwd(h1)
        x = x + h2 @ p[f"l{i}.w2"] + p[f"l{i}.b2"]
    cache["n"] = start + s
    xf, _ = _layernorm_fwd(x, p["lnf_g"], p["lnf_b"])
    return xf @ p["head"]


def reference_sample(model, prefix, n_sequences, max_new_tokens, end_id,
                     temperature=1.0, seed=42, harmony=None):
    """Append each row's draw to a Python list, one row at a time."""
    b = n_sequences
    rng = np.random.default_rng(seed)
    cache = {"n": 0, "k": [None] * model.config.n_layers,
             "v": [None] * model.config.n_layers}
    tiled = np.tile(np.asarray(prefix, dtype=np.int64), (b, 1))
    hmat = None
    if harmony is not None:
        hmat = np.tile(np.asarray(harmony, dtype=np.float64).reshape(1, 12), (b, 1))
    logits = reference_extend(model, cache, tiled, hmat)[:, -1, :]
    out = [[] for _ in range(b)]
    done = np.zeros(b, dtype=bool)
    for _ in range(max_new_tokens):
        next_ids = _pick(logits, temperature, rng)
        for r in range(b):
            if done[r]:
                continue
            if int(next_ids[r]) == end_id:
                done[r] = True
            else:
                out[r].append(int(next_ids[r]))
        if done.all():
            break
        logits = reference_extend(model, cache, next_ids[:, None])[:, -1, :]
    return SampleResult(sequences=out, stopped_on_end=done.tolist())


@pytest.fixture(scope="module")
def model():
    return TinyLM.create(CFG, seed=31)


def harmony_of(with_harmony):
    return np.random.default_rng(3).uniform(size=12) if with_harmony else None


@pytest.mark.parametrize("with_harmony", [False, True], ids=["plain", "harmony"])
@pytest.mark.parametrize("batch", [1, 6])
@pytest.mark.parametrize("stop_at", [None, 3])
@pytest.mark.parametrize("temperature", [0.0, 1.2])
def test_sample_matches_reference(model, temperature, stop_at, batch, with_harmony):
    """``stop_at`` is the draw of row 0 whose token ends the rows, or None
    for an end id that never matches, so every row runs the full length."""
    kwargs = dict(n_sequences=batch, max_new_tokens=20, temperature=temperature,
                  seed=9, harmony=harmony_of(with_harmony))
    full = reference_sample(model, PREFIX, end_id=-1, **kwargs)
    # stopping does not change the draws, so row 0's draw stop_at stops it early
    end_id = -1 if stop_at is None else full.sequences[0][stop_at]
    want = reference_sample(model, PREFIX, end_id=end_id, **kwargs)
    assert sample(model, PREFIX, end_id=end_id, **kwargs) == want
    if stop_at is None:
        assert want == full
    else:
        assert want.stopped_on_end[0] and len(want.sequences[0]) <= stop_at


def test_some_rows_stop_early_and_others_run_out(model):
    kwargs = dict(n_sequences=8, max_new_tokens=16, temperature=1.2, seed=4,
                  harmony=harmony_of(True))
    full = reference_sample(model, PREFIX, end_id=-1, **kwargs)
    # a token drawn by some rows but not all
    counts = {}
    for seq in full.sequences:
        for tok in set(seq):
            counts[tok] = counts.get(tok, 0) + 1
    end_id = min(tok for tok, n in counts.items() if 0 < n < len(full.sequences))
    want = reference_sample(model, PREFIX, end_id=end_id, **kwargs)
    got = sample(model, PREFIX, end_id=end_id, **kwargs)
    assert got == want
    assert any(want.stopped_on_end) and not all(want.stopped_on_end)
    assert all(end_id not in seq for seq in got.sequences)


def test_extend_logits_match_reference(model):
    rng = np.random.default_rng(5)
    ids = rng.integers(1, 17, size=(3, 14)).astype(np.int64)
    hmat = rng.uniform(size=(3, 12))
    ref_cache = {"n": 0, "k": [None] * CFG.n_layers, "v": [None] * CFG.n_layers}
    cache = model.start_cache(3, capacity=14)
    np.testing.assert_array_equal(model.extend(cache, ids[:, :6], hmat),
                                  reference_extend(model, ref_cache, ids[:, :6], hmat))
    for t in range(6, 14):
        np.testing.assert_array_equal(model.extend(cache, ids[:, t:t + 1]),
                                      reference_extend(model, ref_cache, ids[:, t:t + 1]))


def test_cache_arrays_never_reallocated(model):
    seen = []
    extend = model.extend

    def spy(cache, ids, harmony=None):
        out = extend(cache, ids, harmony)
        seen.append((cache["n"], list(cache["k"]), list(cache["v"])))
        return out

    model.extend = spy
    try:
        sample(model, PREFIX, n_sequences=4, max_new_tokens=12, end_id=-1,
               temperature=1.0, seed=2)
    finally:
        del model.extend
    assert [n for n, _, _ in seen] == list(range(len(PREFIX), len(PREFIX) + 12))
    _, k0, v0 = seen[0]
    assert k0[0].shape == (4, CFG.n_heads, len(PREFIX) + 12, CFG.d_model // CFG.n_heads)
    for _, k, v in seen:
        assert all(a is b for a, b in zip(k + v, k0 + v0))


def test_past_capacity_rejected(model):
    cache = model.start_cache(2, capacity=5)
    model.extend(cache, np.ones((2, 4), dtype=np.int64))
    model.extend(cache, np.ones((2, 1), dtype=np.int64))
    with pytest.raises(LMError):
        model.extend(cache, np.ones((2, 1), dtype=np.int64))
    with pytest.raises(LMError):
        model.extend(model.start_cache(2, capacity=5), np.ones((2, 6), dtype=np.int64))


def test_capacity_is_bounded(model):
    assert model.start_cache(1, capacity=CFG.max_len)["k"][0].shape[2] == CFG.max_len
    for bad in (0, CFG.max_len + 1):
        with pytest.raises(LMError):
            model.start_cache(1, capacity=bad)


def test_gelu_matches_power_form():
    x = np.concatenate([np.linspace(-8.0, 8.0, 4001),
                        np.random.default_rng(7).normal(scale=3.0, size=(6, 50, 16)).ravel()])
    t_want = np.tanh(_GELU_C * (x + _GELU_A * x ** 3))
    want = 0.5 * x * (1.0 + t_want)
    got, (_, t) = _gelu_fwd(x)
    np.testing.assert_allclose(t, t_want, rtol=1e-14, atol=0)
    # where tanh is close to -1, the sum 1 + tanh keeps only a few bits, and
    # one rounding step of tanh moves the output by |x| * eps / 4 however
    # the cube is formed; allow that on top of the relative bound
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want) + np.abs(x) * np.finfo(float).eps)


def test_shared_prefill_is_the_tiled_prefill_bit_for_bit(model):
    # one row of the prefix fills every cache row with what a tiled
    # prefix gives each row, and returns that one row's logits
    rng = np.random.default_rng(12)
    prefix = rng.integers(1, 17, size=9).astype(np.int64)
    prefix[2] = _HARMONY_ID
    harmony = rng.uniform(size=12)
    one = model.start_cache(5, capacity=12)
    tiled = model.start_cache(5, capacity=12)
    got = model.extend(one, prefix[None], harmony[None])
    want = model.extend(tiled, np.tile(prefix, (5, 1)), np.tile(harmony, (5, 1)))
    assert got.shape == (1, 9, CFG.vocab_size) and one["n"] == 9
    for row in want:
        np.testing.assert_array_equal(got[0], row)
    for a, b in zip(one["k"] + one["v"], tiled["k"] + tiled["v"]):
        np.testing.assert_array_equal(a[:, :, :9], b[:, :, :9])
    step = rng.integers(1, 17, size=(5, 1)).astype(np.int64)
    np.testing.assert_array_equal(model.extend(one, step), model.extend(tiled, step))


@settings(max_examples=100, deadline=None)
@given(n_sequences=st.integers(1, 24), max_new=st.integers(1, 24),
       temperature=st.sampled_from([0.0, 1.2]), with_harmony=st.booleans(), data=st.data())
def test_sample_matches_reference_as_rows_end(model, n_sequences, max_new, temperature,
                                              with_harmony, data):
    prefix = data.draw(st.lists(st.integers(0, CFG.vocab_size - 1), min_size=1, max_size=10),
                       label="prefix")
    if with_harmony:
        prefix[0] = _HARMONY_ID
    kwargs = dict(n_sequences=n_sequences, max_new_tokens=max_new, temperature=temperature,
                  seed=data.draw(st.integers(0, 2 ** 16), label="seed"),
                  harmony=harmony_of(with_harmony))
    full = reference_sample(model, prefix, end_id=-1, **kwargs)
    assert sample(model, prefix, end_id=-1, **kwargs) == full
    # a token some row drew stops rows at different steps
    drawn = sorted({tok for seq in full.sequences for tok in seq})
    end_id = data.draw(st.sampled_from(drawn), label="end_id")
    assert (sample(model, prefix, end_id=end_id, **kwargs)
            == reference_sample(model, prefix, end_id=end_id, **kwargs))


def test_ended_rows_leave_the_cache(model):
    batches = []
    extend = model.extend

    def spy(cache, ids, harmony=None):
        batches.append((cache["batch"], ids.shape[0]))
        return extend(cache, ids, harmony)

    shrinks = {}
    model.extend = spy
    try:
        for seed in range(8):
            kwargs = dict(n_sequences=16, max_new_tokens=24, temperature=1.2, seed=seed,
                          harmony=harmony_of(True))
            full = reference_sample(model, PREFIX, end_id=-1, **kwargs)
            # the tokens most rows draw end them at many different steps
            rows_with = {}
            for seq in full.sequences:
                for tok in set(seq):
                    rows_with[tok] = rows_with.get(tok, 0) + 1
            for end_id in sorted(rows_with, key=lambda tok: (-rows_with[tok], tok))[:2]:
                batches.clear()
                got = sample(model, PREFIX, end_id=end_id, **kwargs)
                assert got == reference_sample(model, PREFIX, end_id=end_id, **kwargs)
                # the prefix runs as one row; every step runs exactly the cache's rows
                assert batches[0] == (16, 1)
                assert all(cache_rows == rows for cache_rows, rows in batches[1:])
                sizes = [rows for _, rows in batches[1:]]
                assert sizes == sorted(sizes, reverse=True)
                shrinks[seed, end_id] = len(set(sizes)) - 1
    finally:
        del model.extend
    # in each of these pinned cases the batch shrinks at least twice
    assert min(shrinks.values()) >= 2, shrinks
