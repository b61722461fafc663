"""Query-blocked causal attention against the dense (B, H, T, T) form.

The model scores keys one block of query rows at a time (``_attend`` and
``_attend_bwd``).  The dense form it replaced lives on here as the oracle;
swapping it in for the blocked helpers gives the reference logits and
gradients.  Shrinking ``_ATTN_BLOCK_ELEMS`` makes these small shapes split
into 1-row and ragged blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradus import model as model_module
from gradus.model import _HARMONY_ID, ModelConfig, TinyLM, _query_blocks, _softmax_last

CFG = ModelConfig(vocab_size=19, d_model=8, n_heads=2, n_layers=2,
                  d_ff=16, max_len=64)


def dense_attend(qr, keys, values, start, probs=None, ws=None, layer=None):
    """Every query against every key, future keys masked to -inf; the
    model's workspace and layer index are ignored."""
    s, hd = qr.shape[2], qr.shape[3]
    scores = qr @ keys.swapaxes(-1, -2) / np.sqrt(hd)
    if s > 1:
        scores = scores + np.triu(np.full((s, start + s), -np.inf), k=1 + start)
    p = _softmax_last(scores)
    if probs is not None:
        probs.append(p)
    return p @ values


def dense_attend_bwd(dctx, qr, kr, vh, probs, ws=None):
    (p,) = probs
    hd = qr.shape[3]
    dprobs = dctx @ vh.swapaxes(-1, -2)
    dvh = p.swapaxes(-1, -2) @ dctx
    dscores = (dprobs - (dprobs * p).sum(axis=-1, keepdims=True)) * p
    dscores = dscores / np.sqrt(hd)
    return dscores @ kr, dscores.swapaxes(-1, -2) @ qr, dvh


@pytest.fixture
def dense(monkeypatch):
    """Run ``fn`` with the dense oracle in place of the blocked helpers."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(model_module, "_attend", dense_attend)
            m.setattr(model_module, "_attend_bwd", dense_attend_bwd)
            return fn(*args, **kwargs)
    return run


@pytest.fixture
def budget(monkeypatch):
    def set_budget(elems):
        monkeypatch.setattr(model_module, "_ATTN_BLOCK_ELEMS", elems)
    return set_budget


def batch(seed, b=2, t=11):
    rng = np.random.default_rng(seed)
    ids = rng.integers(1, CFG.vocab_size, size=(b, t)).astype(np.int64)
    ids[:, 1] = _HARMONY_ID
    mask = np.zeros((b, t), dtype=np.int8)
    mask[:, :2] = 1
    return ids, mask, rng.uniform(size=(b, 12))


def assert_close(got, want, rtol=1e-12):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rtol * scale


# b * h * t = 2 * 2 * 11 = 44 score elements per query row: budget 1 gives
# 1-row blocks, 3 * 44 gives blocks of 3, 3, 3 and a ragged 2 (for t = 11)
BUDGETS = [1, 44, 3 * 44, 5 * 44 + 7]


@pytest.mark.parametrize("elems", BUDGETS)
def test_logits_match_dense(dense, budget, elems):
    model = TinyLM.create(CFG, seed=1)
    ids, _, harmony = batch(2)
    want = dense(model.logits, ids, harmony)
    budget(elems)
    assert len(_query_blocks(2, 2, 0, 11)) > 1
    assert_close(model.logits(ids, harmony), want)


def test_single_block_is_the_dense_form_bit_for_bit(dense):
    model = TinyLM.create(CFG, seed=3)
    ids, mask, harmony = batch(4)
    assert len(_query_blocks(2, 2, 0, 10)) == 1
    np.testing.assert_array_equal(model.logits(ids, harmony), dense(model.logits, ids, harmony))
    loss, grads = model.loss_and_grads(ids, mask, harmony)
    want_loss, want = dense(model.loss_and_grads, ids, mask, harmony)
    assert loss == want_loss
    for name in grads:
        np.testing.assert_array_equal(grads[name], want[name], err_msg=name)


@pytest.mark.parametrize("elems", BUDGETS)
def test_gradients_match_dense(dense, budget, elems):
    model = TinyLM.create(CFG, seed=5)
    ids, mask, harmony = batch(6, t=12)
    want_loss, want = dense(model.loss_and_grads, ids, mask, harmony)
    budget(elems)
    assert len(_query_blocks(2, 2, 0, 11)) > 1
    loss, grads = model.loss_and_grads(ids, mask, harmony)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    for name in grads:
        assert_close(grads[name], want[name])


@pytest.mark.parametrize("elems", BUDGETS)
def test_prefill_at_offset_then_decode_match_dense(dense, budget, elems):
    model = TinyLM.create(CFG, seed=7)
    ids, _, harmony = batch(8, t=16)

    def run():
        cache = model.start_cache(2, capacity=16)
        parts = [model.extend(cache, ids[:, :5], harmony),
                 model.extend(cache, ids[:, 5:13], harmony)]
        parts += [model.extend(cache, ids[:, t:t + 1], harmony) for t in range(13, 16)]
        return np.concatenate(parts, axis=1)

    want = dense(run)
    budget(elems)
    # the prefill of 8 rows at start 5 splits into several blocks
    assert len(_query_blocks(2, 2, 5, 8)) > 1
    assert_close(run(), want)
    assert_close(model.logits(ids, harmony), want)


@pytest.mark.parametrize("elems", BUDGETS)
def test_shared_prefill_matches_tiled_over_blocks(budget, elems):
    # above one row per block, one row splits into fewer blocks than three
    budget(elems)
    model = TinyLM.create(CFG, seed=13)
    ids, _, harmony = batch(14, b=1, t=11)
    one = model.start_cache(3, capacity=12)
    tiled = model.start_cache(3, capacity=12)
    got = model.extend(one, ids, harmony)
    want = model.extend(tiled, np.tile(ids, (3, 1)), np.tile(harmony, (3, 1)))
    assert elems == 1 or _query_blocks(1, 2, 0, 11) != _query_blocks(3, 2, 0, 11)
    for row in want:
        assert_close(got[0], row)
    for a, b in zip(one["k"] + one["v"], tiled["k"] + tiled["v"]):
        assert_close(a[:, :, :11], b[:, :, :11])
    step = np.array([[3], [5], [7]])
    assert_close(model.extend(one, step), model.extend(tiled, step))


@pytest.mark.parametrize("elems", [1, 3 * 36])
def test_finite_differences_over_blocks(budget, elems):
    # shaped like acceptance test 08, split into 1-row and ragged blocks
    budget(elems)
    cfg = ModelConfig(vocab_size=19, d_model=8, n_heads=2, n_layers=1,
                      d_ff=16, max_len=32)
    model = TinyLM.create(cfg, seed=800)
    rng = np.random.default_rng(801)
    ids = rng.integers(1, 19, size=(2, 9)).astype(np.int64)
    ids[:, 1] = _HARMONY_ID
    mask = np.zeros((2, 9), dtype=np.int8)
    mask[:, :2] = 1
    harmony = rng.uniform(size=(2, 12))
    assert len(_query_blocks(2, 2, 0, 8)) > 2
    _, grads = model.loss_and_grads(ids, mask, harmony)
    h = 1e-5
    checked = 0
    for name, arr in model.params.items():
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            up, _ = model.loss_and_grads(ids, mask, harmony)
            flat[idx] = keep - h
            down, _ = model.loss_and_grads(ids, mask, harmony)
            flat[idx] = keep
            numeric = (up - down) / (2 * h)
            analytic = grads[name].reshape(-1)[idx]
            rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
            assert rel < 1e-4, (name, int(idx), rel)
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("elems", [1, 3 * 56])
def test_causality_over_blocks(budget, elems):
    # shaped like acceptance test 09: a future token never moves a logit
    budget(elems)
    cfg = ModelConfig(vocab_size=23, d_model=16, n_heads=2, n_layers=2,
                      d_ff=32, max_len=64)
    model = TinyLM.create(cfg, seed=900)
    rng = np.random.default_rng(901)
    ids = rng.integers(1, 23, size=(2, 14)).astype(np.int64)
    assert len(_query_blocks(2, 2, 0, 14)) > 2
    base = model.logits(ids)
    for t in range(1, 14):
        altered = ids.copy()
        altered[:, t] = (altered[:, t] % 22) + 1
        out = model.logits(altered)
        assert np.array_equal(out[:, :t], base[:, :t]), t


@settings(max_examples=30, deadline=None)
@given(b=st.integers(1, 3), s=st.integers(1, 12), start=st.integers(0, 12),
       elems=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_extend_matches_dense(b, s, start, elems, seed):
    model = TinyLM.create(CFG, seed=9)
    rng = np.random.default_rng(seed)
    ids = rng.integers(1, CFG.vocab_size, size=(b, start + s)).astype(np.int64)

    def run():
        cache = model.start_cache(b, capacity=start + s)
        if start:
            model.extend(cache, ids[:, :start])
        return model.extend(cache, ids[:, start:])

    with pytest.MonkeyPatch.context() as m:
        m.setattr(model_module, "_attend", dense_attend)
        want = run()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(model_module, "_ATTN_BLOCK_ELEMS", elems)
        got = run()
    assert_close(got, want)


@pytest.mark.parametrize("elems", [1, 40, 100, 300, 2 ** 20])
def test_no_scores_over_budget_except_one_row(budget, monkeypatch, elems):
    """Spy on every softmax the model runs: all but 1-row blocks fit the budget."""
    budget(elems)
    seen = []

    def spy(x):
        seen.append(x.shape)
        return _softmax_last(x)

    monkeypatch.setattr(model_module, "_softmax_last", spy)
    model = TinyLM.create(CFG, seed=11)
    ids, mask, harmony = batch(12, b=3, t=14)
    model.loss_and_grads(ids, mask, harmony)
    cache = model.start_cache(3, capacity=14)
    model.extend(cache, ids[:, :9])
    model.extend(cache, ids[:, 9:])
    model.extend(model.start_cache(3, capacity=14), ids)
    attention = [shape for shape in seen if len(shape) == 4]
    assert attention
    for b, h, rows, keys in attention:
        assert rows == 1 or b * h * rows * keys <= elems, (b, h, rows, keys, elems)
    for b, h, start, s in [(3, 2, 0, 13), (3, 2, 0, 9), (3, 2, 9, 5), (3, 2, 0, 14)]:
        blocks = _query_blocks(b, h, start, s)
        assert blocks[0][0] == 0 and blocks[-1][1] == s
        assert all(hi == lo2 for (_, hi), (lo2, _) in zip(blocks, blocks[1:]))
        assert all(hi - lo == 1 or b * h * (hi - lo) * (start + s) <= elems
                   for lo, hi in blocks)
