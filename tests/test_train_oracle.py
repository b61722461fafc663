"""The training step that writes into one workspace against the step it replaced.

``model.train`` runs every step in one :class:`gradus.model.Workspace`:
activations, kept attention probabilities, gradients and AdamW's
temporaries are written into buffers reused from step to step.  The step
before it allocated every array anew.  That step lives on here as the
oracle: layer norm as numpy's ``mean`` and ``var``, the GELU expressions,
a backward that adds each gradient into ``np.zeros_like``, and an AdamW
that builds new moment arrays.  Both must agree bit for bit on every loss,
parameter and moment, over batch widths that grow, shrink and grow again
(so a buffer is reused at a shape other than its own), one and two
layers, harmony on and off, and attention split into ragged query blocks.

Among the mutants this kills: AdamW's second moment updated as
``v += (1 - b2) * (g * g)`` instead of ``((1 - b2) * g) * g``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradus import model as model_module
from gradus.model import (
    _GELU_A,
    _GELU_C,
    _HARMONY_ID,
    _LN_EPS,
    ADAMW_BETAS,
    ADAMW_EPS,
    ADAMW_WEIGHT_DECAY,
    AdamW,
    ModelConfig,
    TinyLM,
    Workspace,
    _layernorm_fwd,
    _query_blocks,
    _softmax_last,
    train,
)
from gradus.seqbuild import masked_cross_entropy

# -- the allocating step -----------------------------------------------------


def ref_rope_rotate(x, positions, inverse=False):
    hd = x.shape[-1]
    half = hd // 2
    freqs = 10000.0 ** (-np.arange(half, dtype=np.float64) * 2.0 / hd)
    angles = positions.astype(np.float64)[:, None] * freqs[None, :]
    cos = np.cos(angles)
    sin = np.sin(angles)
    if inverse:
        sin = -sin
    x_even = x[..., 0::2]
    x_odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x_even * cos - x_odd * sin
    out[..., 1::2] = x_even * sin + x_odd * cos
    return out


def ref_layernorm_fwd(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv
    return xhat * g + b, (xhat, inv, g)


def ref_layernorm_bwd(dy, cache):
    xhat, inv, g = cache
    n = xhat.shape[-1]
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = (inv / n) * (n * dxhat
                      - dxhat.sum(axis=-1, keepdims=True)
                      - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
    return dx, dg, db


def ref_gelu_fwd(x):
    u = _GELU_C * (x + _GELU_A * (x * x * x))
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), (x, t)


def ref_gelu_bwd(dy, cache):
    x, t = cache
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x ** 2)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du)


def ref_attend(qr, keys, values, probs):
    b, h, s, hd = qr.shape
    blocks = _query_blocks(b, h, 0, s)
    width = blocks[0][1]
    future = np.triu(np.full((width, width), -np.inf), k=1) if width > 1 else None
    ctx = np.empty_like(qr)
    for lo, hi in blocks:
        scores = qr[:, :, lo:hi] @ keys[:, :, :hi].swapaxes(-1, -2)
        scores /= np.sqrt(hd)
        if hi - lo > 1:
            scores[..., lo:] += future[:hi - lo, :hi - lo]
        p = _softmax_last(scores)
        probs.append(p)
        ctx[:, :, lo:hi] = p @ values[:, :, :hi]
    return ctx


def ref_attend_bwd(dctx, qr, kr, vh, probs):
    hd = qr.shape[-1]
    dqr, dkr, dvh = np.empty_like(qr), np.zeros_like(kr), np.zeros_like(vh)
    for p in probs:
        hi = p.shape[-1]
        lo = hi - p.shape[-2]
        d = dctx[:, :, lo:hi]
        dscores = d @ vh[:, :, :hi].swapaxes(-1, -2)
        dscores -= (dscores * p).sum(axis=-1, keepdims=True)
        dscores *= p
        dscores /= np.sqrt(hd)
        dqr[:, :, lo:hi] = dscores @ kr[:, :, :hi]
        dkr[:, :, :hi] += dscores.swapaxes(-1, -2) @ qr[:, :, lo:hi]
        dvh[:, :, :hi] += p.swapaxes(-1, -2) @ d
    return dqr, dkr, dvh


def ref_forward(model, ids, harmony, caches):
    cfg, p = model.config, model.params
    b, s = ids.shape
    h = cfg.n_heads
    hd = cfg.d_model // h
    pos = np.arange(s)
    x = p["tok_emb"][ids]
    hmat = sel = None
    if harmony is not None:
        hmat = np.atleast_2d(np.asarray(harmony, dtype=np.float64))
        if hmat.shape[0] == 1:
            inj = (np.repeat(hmat, 2, axis=0) @ p["harm_w"])[:1] + p["harm_b"]
        else:
            inj = hmat @ p["harm_w"] + p["harm_b"]
        sel = (ids == _HARMONY_ID).astype(np.float64)
        x = x + sel[:, :, None] * inj[:, None, :]
    caches.append(("embed", ids, hmat, sel))
    for i in range(cfg.n_layers):
        a, ln1c = ref_layernorm_fwd(x, p[f"l{i}.ln1_g"], p[f"l{i}.ln1_b"])
        qh = (a @ p[f"l{i}.wq"]).reshape(b, s, h, hd).transpose(0, 2, 1, 3)
        kh = (a @ p[f"l{i}.wk"]).reshape(b, s, h, hd).transpose(0, 2, 1, 3)
        vh = (a @ p[f"l{i}.wv"]).reshape(b, s, h, hd).transpose(0, 2, 1, 3)
        qr = ref_rope_rotate(qh, pos)
        kr = ref_rope_rotate(kh, pos)
        probs = []
        ctx = ref_attend(qr, kr, vh, probs)
        merged = ctx.transpose(0, 2, 1, 3).reshape(b, s, cfg.d_model)
        x = x + merged @ p[f"l{i}.wo"]
        a2, ln2c = ref_layernorm_fwd(x, p[f"l{i}.ln2_g"], p[f"l{i}.ln2_b"])
        h1 = a2 @ p[f"l{i}.w1"] + p[f"l{i}.b1"]
        h2, geluc = ref_gelu_fwd(h1)
        x = x + h2 @ p[f"l{i}.w2"] + p[f"l{i}.b2"]
        caches.append(("layer", i, a, ln1c, qr, kr, vh, probs, merged, a2, ln2c, geluc, h2))
    xf, lnfc = ref_layernorm_fwd(x, p["lnf_g"], p["lnf_b"])
    caches.append(("final", xf, lnfc))
    return xf @ p["head"]


def ref_backward(model, dlogits, caches):
    cfg, p = model.config, model.params
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    b, t, _ = dlogits.shape
    h = cfg.n_heads
    hd = cfg.d_model // h
    pos = np.arange(t)
    _, xf, lnfc = caches.pop()
    grads["head"] += xf.reshape(-1, cfg.d_model).T @ dlogits.reshape(-1, cfg.vocab_size)
    dx, dg, db = ref_layernorm_bwd(dlogits @ p["head"].T, lnfc)
    grads["lnf_g"] += dg
    grads["lnf_b"] += db
    for _ in range(cfg.n_layers):
        _, i, a, ln1c, qr, kr, vh, probs, merged, a2, ln2c, geluc, h2 = caches.pop()
        grads[f"l{i}.b2"] += dx.sum(axis=(0, 1))
        grads[f"l{i}.w2"] += h2.reshape(-1, cfg.d_ff).T @ dx.reshape(-1, cfg.d_model)
        dh1 = ref_gelu_bwd(dx @ p[f"l{i}.w2"].T, geluc)
        grads[f"l{i}.b1"] += dh1.sum(axis=(0, 1))
        grads[f"l{i}.w1"] += a2.reshape(-1, cfg.d_model).T @ dh1.reshape(-1, cfg.d_ff)
        dx2, dg, db = ref_layernorm_bwd(dh1 @ p[f"l{i}.w1"].T, ln2c)
        grads[f"l{i}.ln2_g"] += dg
        grads[f"l{i}.ln2_b"] += db
        dx = dx + dx2
        grads[f"l{i}.wo"] += merged.reshape(-1, cfg.d_model).T @ dx.reshape(-1, cfg.d_model)
        dctx = (dx @ p[f"l{i}.wo"].T).reshape(b, t, h, hd).transpose(0, 2, 1, 3)
        dqr, dkr, dvh = ref_attend_bwd(dctx, qr, kr, vh, probs)
        dq = ref_rope_rotate(dqr, pos, inverse=True).transpose(0, 2, 1, 3).reshape(b, t, -1)
        dk = ref_rope_rotate(dkr, pos, inverse=True).transpose(0, 2, 1, 3).reshape(b, t, -1)
        dv = dvh.transpose(0, 2, 1, 3).reshape(b, t, cfg.d_model)
        flat_a = a.reshape(-1, cfg.d_model)
        grads[f"l{i}.wq"] += flat_a.T @ dq.reshape(-1, cfg.d_model)
        grads[f"l{i}.wk"] += flat_a.T @ dk.reshape(-1, cfg.d_model)
        grads[f"l{i}.wv"] += flat_a.T @ dv.reshape(-1, cfg.d_model)
        da = dq @ p[f"l{i}.wq"].T + dk @ p[f"l{i}.wk"].T + dv @ p[f"l{i}.wv"].T
        dx1, dg, db = ref_layernorm_bwd(da, ln1c)
        grads[f"l{i}.ln1_g"] += dg
        grads[f"l{i}.ln1_b"] += db
        dx = dx + dx1
    _, ids, hmat, sel = caches.pop()
    np.add.at(grads["tok_emb"], ids, dx)
    if hmat is not None:
        dinj = (sel[:, :, None] * dx).sum(axis=1)
        grads["harm_w"] += hmat.T @ dinj
        grads["harm_b"] += dinj.sum(axis=0)
    return grads


def ref_loss_and_grads(model, ids, mask, harmony):
    caches = []
    logits = ref_forward(model, ids[:, :-1], harmony, caches)
    loss, dlogits = masked_cross_entropy(logits, ids[:, 1:], mask[:, 1:])
    return loss, ref_backward(model, dlogits, caches)


class RefAdamW:
    def __init__(self, params, lr):
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def update(self, params, grads):
        self.step_count += 1
        b1, b2 = ADAMW_BETAS
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, g in grads.items():
            m = self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAMW_EPS)
            if params[name].ndim == 2 and name != "tok_emb":
                update = update + ADAMW_WEIGHT_DECAY * params[name]
            params[name] -= self.lr * update


def ref_train(model, batches, steps, lr, seed):
    opt = RefAdamW(model.params, lr=lr)
    rng = np.random.default_rng(seed)
    order, losses = [], []
    for _ in range(steps):
        if not order:
            order = rng.permutation(len(batches)).tolist()
        ids, mask, harmony = batches[order.pop()]
        loss, grads = ref_loss_and_grads(model, ids, mask, harmony)
        opt.update(model.params, grads)
        losses.append(loss)
    return losses, opt


# -- properties ----------------------------------------------------------------


def make_batches(rng, vocab, widths, rows, with_harmony):
    batches = []
    for t, b in zip(widths, rows):
        ids = rng.integers(1, vocab, size=(b, t)).astype(np.int64)
        ids[:, 1] = _HARMONY_ID
        mask = np.zeros((b, t), dtype=np.int8)
        mask[:, :2] = 1
        batches.append((ids, mask, rng.uniform(size=(b, 12)) if with_harmony else None))
    return batches


class Spy(AdamW):
    """AdamW that records each optimizer ``train`` makes."""

    made: list = []

    def __init__(self, params, lr):
        super().__init__(params, lr)
        Spy.made.append(self)


@settings(max_examples=40, deadline=None)
@given(widths=st.lists(st.integers(3, 14), min_size=3, max_size=5).map(
           # grow, shrink and grow again: a buffer is reused at a smaller
           # shape, then grown past every earlier one
           lambda ws: [ws[0], ws[0] + ws[1], ws[2], ws[0] + ws[1] + 3] + ws[3:]),
       rows=st.lists(st.integers(1, 3), min_size=8, max_size=8),
       n_layers=st.integers(1, 2), with_harmony=st.booleans(),
       elems=st.sampled_from([1, 40, 100, 300, 700, 2 ** 18]),
       steps=st.integers(4, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_train_is_the_allocating_step_bit_for_bit(widths, rows, n_layers, with_harmony,
                                                   elems, steps, seed):
    cfg = ModelConfig(vocab_size=19, d_model=8, n_heads=2, n_layers=n_layers,
                      d_ff=16, max_len=64)
    rng = np.random.default_rng(seed)
    batches = make_batches(rng, cfg.vocab_size, widths, rows, with_harmony)
    want_model = TinyLM.create(cfg, seed=seed % 1000)
    got_model = TinyLM.create(cfg, seed=seed % 1000)
    Spy.made = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(model_module, "_ATTN_BLOCK_ELEMS", elems)
        m.setattr(model_module, "AdamW", Spy)
        want_losses, want_opt = ref_train(want_model, batches, steps, 3e-3, seed)
        got_losses = train(got_model, batches, steps=steps, lr=3e-3, seed=seed)
    (got_opt,) = Spy.made
    assert got_losses == want_losses
    assert got_opt.step_count == want_opt.step_count == steps
    for name, want in want_model.params.items():
        assert np.array_equal(got_model.params[name], want), name
        assert np.array_equal(got_opt.m[name], want_opt.m[name]), name
        assert np.array_equal(got_opt.v[name], want_opt.v[name]), name


def test_budgets_split_steps_into_ragged_blocks(monkeypatch):
    # the budgets above give 1-row blocks, blocks of several rows with a
    # ragged last one, and one block for the whole step
    for elems, want in ((1, [1] * 11), (100, [2, 2, 2, 2, 2, 1]), (300, [6, 5]),
                        (2 ** 18, [11])):
        monkeypatch.setattr(model_module, "_ATTN_BLOCK_ELEMS", elems)
        assert [hi - lo for lo, hi in _query_blocks(2, 2, 0, 11)] == want


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from([(1, 1, 8), (2, 5, 8), (3, 7, 16), (2, 4, 48), (1, 3, 128)]),
       scale=st.sampled_from([1e-3, 1.0, 30.0, 1e6]), offset=st.floats(-1e3, 1e3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_layernorm_is_the_mean_var_form_bit_for_bit(shape, scale, offset, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(offset, scale, size=shape)
    g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    want, (want_xhat, want_inv, _) = ref_layernorm_fwd(x, g, b)
    got, (got_xhat, got_inv, _) = _layernorm_fwd(x, g, b)
    assert np.array_equal(got, want)
    assert np.array_equal(got_xhat, want_xhat)
    assert np.array_equal(got_inv, want_inv)
    # and the same into buffers of a workspace
    ws = Workspace()
    into, _ = _layernorm_fwd(x, g, b, ws.take("y", shape), ws.take("xhat", shape))
    assert np.array_equal(into, want)


def test_train_calls_loss_and_grads_and_update_once_per_step(monkeypatch):
    # the benchmark's probes wrap both methods by name
    calls = []
    for cls, name in ((TinyLM, "loss_and_grads"), (AdamW, "update")):
        original = getattr(cls, name)

        def spy(self, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    cfg = ModelConfig(vocab_size=19, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_len=64)
    rng = np.random.default_rng(3)
    batches = make_batches(rng, cfg.vocab_size, [6, 9], [2, 1], True)
    train(TinyLM.create(cfg, seed=3), batches, steps=5, lr=1e-3, seed=3)
    assert calls == ["loss_and_grads", "update"] * 5
