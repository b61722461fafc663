"""A small decoder-only token model in plain numpy.

Float64 throughout, pre-norm residual blocks, rotary position encoding,
and a hand-written backward pass.  The model is deliberately tiny: the
corpora here are a few thousand tokens, and an explicit implementation
keeps every numeric property (causality, gradient exactness, rotary
shift invariance) directly testable without a framework in between.

One layer stack (``TinyLM._forward``) serves training, full-sequence
logits, and the KV-cached prefill and decode steps of sampling.  Its
causal attention runs one block of query rows at a time (:func:`_attend`),
so scores never take more than a fixed budget per block, whatever the
sequence length.

Training minimizes masked next-token cross entropy:
:func:`gradus.seqbuild.masked_cross_entropy` gives the loss and its
gradient at the logits.  Positions whose mask is 1 are conditioning and
contribute nothing to loss or gradients.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import interchange
from .lmx import HARMONY, SPECIAL_TOKENS
from .seqbuild import masked_cross_entropy

__all__ = [
    "LMError",
    "ModelConfig",
    "TinyLM",
    "rope_rotate",
    "AdamW",
    "train",
    "SampleResult",
    "sample",
    "save_checkpoint",
    "load_checkpoint",
]


class LMError(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 256
    max_len: int = 8192

    def __post_init__(self) -> None:
        if self.vocab_size < 1:
            raise LMError("vocab_size must be positive")
        if self.d_model % self.n_heads != 0:
            raise LMError("d_model must be divisible by n_heads")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise LMError("head dimension must be even for rotary pairs")


_LN_EPS = 1e-5
_ROPE_BASE = 10000.0
# the id of [HARM] in every vocabulary, whose position takes the harmony vector
_HARMONY_ID = SPECIAL_TOKENS.index(HARMONY)
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def rope_rotate(x: np.ndarray, positions: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Rotate query/key vectors by position-dependent angles.

    ``x`` has shape (..., T, hd) with hd even; ``positions`` has shape (T,).
    Adjacent dimension pairs (2j, 2j+1) are rotated by ``pos * 10000**(-2j/hd)``.
    The map is orthogonal, so ``inverse=True`` (rotation by the negated
    angle) is also the transpose, which the backward pass relies on.
    """
    hd = x.shape[-1]
    if hd % 2 != 0:
        raise LMError("rotary dimension must be even")
    half = hd // 2
    freqs = _ROPE_BASE ** (-np.arange(half, dtype=np.float64) * 2.0 / hd)
    angles = positions.astype(np.float64)[:, None] * freqs[None, :]   # (T, half)
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


def _layernorm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv
    return xhat * g + b, (xhat, inv, g)


def _layernorm_bwd(dy: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv, g = cache
    n = xhat.shape[-1]
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = (inv / n) * (n * dxhat
                      - dxhat.sum(axis=-1, keepdims=True)
                      - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
    return dx, dg, db


def _gelu_fwd(x: np.ndarray):
    # x * x * x, not x ** 3: np.power is some fifty times slower here
    u = _GELU_C * (x + _GELU_A * (x * x * x))
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), (x, t)


def _gelu_bwd(dy: np.ndarray, cache) -> np.ndarray:
    x, t = cache
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x ** 2)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du)


def _softmax_last(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, written over ``x``, which it returns.

    Every caller passes a temporary of its own, so no new array of the
    size of ``x`` is made.
    """
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


# float64 score elements per query block: 2 MiB of scores, so that a block
# stays in a core's L2 cache
_ATTN_BLOCK_ELEMS = 2 ** 18


def _query_blocks(b: int, h: int, start: int, s: int) -> list[tuple[int, int]]:
    """Row ranges ``[lo, hi)`` that split ``s`` queries into attention blocks.

    A block holds as many rows as keep its (b, h, rows, start + s) scores
    within ``_ATTN_BLOCK_ELEMS``, and at least one row.
    """
    rows = max(1, _ATTN_BLOCK_ELEMS // (b * h * (start + s)))
    return [(lo, min(lo + rows, s)) for lo in range(0, s, rows)]


def _attend(qr: np.ndarray, keys: np.ndarray, values: np.ndarray, start: int,
            probs: Optional[list] = None) -> np.ndarray:
    """Causal attention of queries at positions ``start..`` one block at a time.

    ``qr`` is (b, h, s, hd); ``keys`` and ``values`` hold positions
    ``0..start+s``.  Block rows ``[lo, hi)`` score only keys
    ``[:start+hi]``, so no future key is ever scored, and every row gets
    the exact max-subtracted softmax.  Returns the (b, h, s, hd) context;
    a ``probs`` list collects each block's probabilities for
    :func:`_attend_bwd`.
    """
    b, h, s, hd = qr.shape
    blocks = _query_blocks(b, h, start, s)
    # future keys of a block are its last columns: mask that square
    width = blocks[0][1]
    future = np.triu(np.full((width, width), -np.inf), k=1) if width > 1 else None
    ctx = np.empty_like(qr)
    for lo, hi in blocks:
        end = start + hi
        scores = qr[:, :, lo:hi] @ keys[:, :, :end].swapaxes(-1, -2)
        scores /= np.sqrt(hd)
        if hi - lo > 1:
            scores[..., start + lo:] += future[:hi - lo, :hi - lo]
        p = _softmax_last(scores)
        if probs is not None:
            probs.append(p)
        ctx[:, :, lo:hi] = p @ values[:, :, :end]
    return ctx


def _attend_bwd(dctx: np.ndarray, qr: np.ndarray, kr: np.ndarray, vh: np.ndarray,
                probs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of :func:`_attend` at ``start=0`` w.r.t. queries, keys and
    values, from its kept probabilities: a (b, h, rows, hi) block holds
    query rows ``[hi - rows, hi)``."""
    hd = qr.shape[-1]
    dqr, dkr, dvh = np.empty_like(qr), np.zeros_like(kr), np.zeros_like(vh)
    for p in probs:
        hi = p.shape[-1]
        lo = hi - p.shape[-2]
        d = dctx[:, :, lo:hi]
        # dprobs becomes dscores in place; only the product for the row sums
        # is a second block-sized array
        dscores = d @ vh[:, :, :hi].swapaxes(-1, -2)
        dscores -= (dscores * p).sum(axis=-1, keepdims=True)
        dscores *= p
        dscores /= np.sqrt(hd)
        dqr[:, :, lo:hi] = dscores @ kr[:, :, :hi]
        dkr[:, :, :hi] += dscores.swapaxes(-1, -2) @ qr[:, :, lo:hi]
        dvh[:, :, :hi] += p.swapaxes(-1, -2) @ d
    return dqr, dkr, dvh


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the order the model holds them."""
    d, ff, v = config.d_model, config.d_ff, config.vocab_size
    shapes = {"tok_emb": (v, d), "harm_w": (12, d), "harm_b": (d,),
              "lnf_g": (d,), "lnf_b": (d,), "head": (d, v)}
    for i in range(config.n_layers):
        shapes.update({
            f"l{i}.ln1_g": (d,), f"l{i}.ln1_b": (d,), f"l{i}.wq": (d, d),
            f"l{i}.wk": (d, d), f"l{i}.wv": (d, d), f"l{i}.wo": (d, d),
            f"l{i}.ln2_g": (d,), f"l{i}.ln2_b": (d,), f"l{i}.w1": (d, ff),
            f"l{i}.b1": (ff,), f"l{i}.w2": (ff, d), f"l{i}.b2": (d,)})
    return shapes


@dataclass
class TinyLM:
    """Model parameters plus the forward/backward machinery."""

    config: ModelConfig
    params: dict[str, np.ndarray]

    @classmethod
    def create(cls, config: ModelConfig, seed: int = 42) -> "TinyLM":
        """Gaussian init, scaled down on residual-output projections.

        Matrices are drawn in :func:`_param_shapes` order; layer-norm gains
        start at one and every other vector at zero.
        """
        rng = np.random.default_rng(seed)
        std = 0.02
        res_std = std / np.sqrt(2.0 * config.n_layers)
        p: dict[str, np.ndarray] = {}
        for name, shape in _param_shapes(config).items():
            if len(shape) == 2:
                scale = res_std if name.endswith((".wo", ".w2")) else std
                p[name] = rng.normal(0.0, scale, shape)
            else:
                p[name] = np.ones(shape) if name.endswith("_g") else np.zeros(shape)
        return cls(config=config, params=p)

    # -- full forward ------------------------------------------------------

    def logits(self, ids: np.ndarray, harmony: Optional[np.ndarray] = None) -> np.ndarray:
        """All-position logits, shape (B, T, vocab)."""
        return self._forward(np.atleast_2d(ids), harmony)

    def _embed(self, ids: np.ndarray, harmony: Optional[np.ndarray],
               caches: Optional[list] = None) -> np.ndarray:
        p = self.params
        x = p["tok_emb"][ids]
        h = sel = None
        if harmony is not None:
            h = np.atleast_2d(np.asarray(harmony, dtype=np.float64))
            if h.shape != (ids.shape[0], 12):
                raise LMError(f"harmony must be ({ids.shape[0]}, 12), got {h.shape}")
            if h.shape[0] == 1:
                # numpy sends a one-row product to BLAS gemv, which rounds
                # otherwise than gemm's rows: two rows give the one row the
                # injection it gets in a batch, as in sample's shared prefill
                inj = (np.repeat(h, 2, axis=0) @ p["harm_w"])[:1] + p["harm_b"]
            else:
                inj = h @ p["harm_w"] + p["harm_b"]
            sel = (ids == _HARMONY_ID).astype(np.float64)
            x = x + sel[:, :, None] * inj[:, None, :]
        if caches is not None:    # _backward reuses the harmony rows and [HARM] selection
            caches.append(("embed", ids, h, sel))
        return x

    def _forward(self, ids: np.ndarray, harmony: Optional[np.ndarray],
                 caches: Optional[list] = None, kv: Optional[dict] = None) -> np.ndarray:
        """The logits of the layer stack of training, prefill and decode alike.

        ``caches`` (a list) collects what :meth:`_backward` needs.  With a
        :meth:`start_cache` dict as ``kv``, positions start at ``kv["n"]``
        and attention runs over the cache, which the new keys fill in place.
        One row of ``ids`` on a cache of more rows runs once, and its keys
        and values are broadcast into every cache row.
        """
        cfg = self.config
        p = self.params
        b, s = ids.shape
        start = 0 if kv is None else kv["n"]
        end = start + s
        if end > cfg.max_len:
            raise LMError(f"sequence length {end} exceeds max_len {cfg.max_len}")
        if s == 0 or ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= cfg.vocab_size:
            raise LMError("token ids must be a nonempty integer array within the vocabulary")
        h = cfg.n_heads
        hd = cfg.d_model // h
        pos = np.arange(start, end)
        x = self._embed(ids, harmony, caches)
        for i in range(cfg.n_layers):
            a, ln1c = _layernorm_fwd(x, p[f"l{i}.ln1_g"], p[f"l{i}.ln1_b"])
            qh = (a @ p[f"l{i}.wq"]).reshape(b, s, h, hd).transpose(0, 2, 1, 3)
            kh = (a @ p[f"l{i}.wk"]).reshape(b, s, h, hd).transpose(0, 2, 1, 3)
            vh = (a @ p[f"l{i}.wv"]).reshape(b, s, h, hd).transpose(0, 2, 1, 3)
            qr = rope_rotate(qh, pos)
            kr = rope_rotate(kh, pos)
            if kv is None:
                keys, values = kr, vh
            else:
                kv["k"][i][:, :, start:end] = kr
                kv["v"][i][:, :, start:end] = vh
                keys, values = kv["k"][i][:b, :, :end], kv["v"][i][:b, :, :end]
            probs = None if caches is None else []
            ctx = _attend(qr, keys, values, start, probs)
            merged = ctx.transpose(0, 2, 1, 3).reshape(b, s, cfg.d_model)
            x = x + merged @ p[f"l{i}.wo"]
            a2, ln2c = _layernorm_fwd(x, p[f"l{i}.ln2_g"], p[f"l{i}.ln2_b"])
            h1 = a2 @ p[f"l{i}.w1"] + p[f"l{i}.b1"]
            h2, geluc = _gelu_fwd(h1)
            x = x + h2 @ p[f"l{i}.w2"] + p[f"l{i}.b2"]
            if caches is not None:
                caches.append(("layer", i, a, ln1c, qr, kr, vh, probs, merged,
                               a2, ln2c, geluc, h2))
        if kv is not None:
            kv["n"] = end
        xf, lnfc = _layernorm_fwd(x, p["lnf_g"], p["lnf_b"])
        logits = xf @ p["head"]
        if caches is not None:
            caches.append(("final", xf, lnfc))
        return logits

    # -- loss and gradients ------------------------------------------------

    def loss_and_grads(self, ids: np.ndarray, mask: np.ndarray,
                       harmony: Optional[np.ndarray] = None) -> tuple[float, dict[str, np.ndarray]]:
        """Masked next-token loss and the gradient of every parameter."""
        ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
        mask = np.atleast_2d(np.asarray(mask))
        if mask.shape != ids.shape:
            raise LMError("ids and mask must have the same shape")
        if ids.shape[1] < 2:
            raise LMError("need at least two tokens for next-token training")
        tmask = mask[:, 1:]
        if not (tmask == 0).any():
            raise LMError("mask leaves nothing to score")
        caches: list = []
        logits = self._forward(ids[:, :-1], harmony, caches)
        loss, dlogits = masked_cross_entropy(logits, ids[:, 1:], tmask)
        if not np.isfinite(loss):
            raise LMError("loss is not finite")
        return loss, self._backward(dlogits, caches)

    def _backward(self, dlogits: np.ndarray, caches: list) -> dict[str, np.ndarray]:
        cfg = self.config
        p = self.params
        grads = {name: np.zeros_like(arr) for name, arr in p.items()}
        b, t, _ = dlogits.shape
        h = cfg.n_heads
        hd = cfg.d_model // h
        pos = np.arange(t)

        tag, xf, lnfc = caches.pop()
        assert tag == "final"
        grads["head"] += xf.reshape(-1, cfg.d_model).T @ dlogits.reshape(-1, cfg.vocab_size)
        dxf = dlogits @ p["head"].T
        dx, dg, db = _layernorm_bwd(dxf, lnfc)
        grads["lnf_g"] += dg
        grads["lnf_b"] += db

        for _ in range(cfg.n_layers):
            (tag, i, a, ln1c, qr, kr, vh, probs, merged,
             a2, ln2c, geluc, h2) = caches.pop()
            assert tag == "layer"
            # mlp half
            grads[f"l{i}.b2"] += dx.sum(axis=(0, 1))
            grads[f"l{i}.w2"] += h2.reshape(-1, cfg.d_ff).T @ dx.reshape(-1, cfg.d_model)
            dh2 = dx @ p[f"l{i}.w2"].T
            dh1 = _gelu_bwd(dh2, geluc)
            grads[f"l{i}.b1"] += dh1.sum(axis=(0, 1))
            grads[f"l{i}.w1"] += a2.reshape(-1, cfg.d_model).T @ dh1.reshape(-1, cfg.d_ff)
            da2 = dh1 @ p[f"l{i}.w1"].T
            dx2, dg, db = _layernorm_bwd(da2, ln2c)
            grads[f"l{i}.ln2_g"] += dg
            grads[f"l{i}.ln2_b"] += db
            dx = dx + dx2
            # attention half
            grads[f"l{i}.wo"] += merged.reshape(-1, cfg.d_model).T @ dx.reshape(-1, cfg.d_model)
            dmerged = dx @ p[f"l{i}.wo"].T
            dctx = dmerged.reshape(b, t, h, hd).transpose(0, 2, 1, 3)
            dqr, dkr, dvh = _attend_bwd(dctx, qr, kr, vh, probs)
            dqh = rope_rotate(dqr, pos, inverse=True)
            dkh = rope_rotate(dkr, pos, inverse=True)
            dq = dqh.transpose(0, 2, 1, 3).reshape(b, t, cfg.d_model)
            dk = dkh.transpose(0, 2, 1, 3).reshape(b, t, cfg.d_model)
            dv = dvh.transpose(0, 2, 1, 3).reshape(b, t, cfg.d_model)
            flat_a = a.reshape(-1, cfg.d_model)
            grads[f"l{i}.wq"] += flat_a.T @ dq.reshape(-1, cfg.d_model)
            grads[f"l{i}.wk"] += flat_a.T @ dk.reshape(-1, cfg.d_model)
            grads[f"l{i}.wv"] += flat_a.T @ dv.reshape(-1, cfg.d_model)
            da = dq @ p[f"l{i}.wq"].T + dk @ p[f"l{i}.wk"].T + dv @ p[f"l{i}.wv"].T
            dx1, dg, db = _layernorm_bwd(da, ln1c)
            grads[f"l{i}.ln1_g"] += dg
            grads[f"l{i}.ln1_b"] += db
            dx = dx + dx1

        tag, ids, hmat, sel = caches.pop()
        assert tag == "embed"
        np.add.at(grads["tok_emb"], ids, dx)
        if hmat is not None:
            dinj = (sel[:, :, None] * dx).sum(axis=1)       # (B, d)
            grads["harm_w"] += hmat.T @ dinj
            grads["harm_b"] += dinj.sum(axis=0)
        return grads

    # -- incremental forward for sampling ----------------------------------

    def start_cache(self, batch: int, capacity: int) -> dict:
        """An empty KV cache for ``batch`` rows of up to ``capacity`` tokens.

        The keys and values are preallocated once, as one
        (batch, heads, capacity, head_dim) array each per layer, and
        :meth:`extend` fills them in place.
        """
        cfg = self.config
        if not 1 <= capacity <= cfg.max_len:
            raise LMError(f"cache capacity {capacity} outside 1..{cfg.max_len}")
        shape = (batch, cfg.n_heads, capacity, cfg.d_model // cfg.n_heads)
        return {"n": 0, "batch": batch, "capacity": capacity,
                "k": [np.empty(shape) for _ in range(cfg.n_layers)],
                "v": [np.empty(shape) for _ in range(cfg.n_layers)]}

    def extend(self, cache: dict, ids: np.ndarray,
               harmony: Optional[np.ndarray] = None) -> np.ndarray:
        """Run new tokens through the model, writing them into the KV cache.

        ``ids`` has shape (B, S) where S may be 1 for a decode step or the
        whole prefix.  The same layer stack as :meth:`logits` runs, with
        positions continuing from ``cache["n"]``: the new keys and values
        are written in place into the cache that :meth:`start_cache`
        preallocated, and attention runs over the filled part; nothing is
        reallocated.  On an empty cache, ``ids`` may also have shape (1, S):
        a prefix shared by every row then runs once, its keys and values
        fill every cache row, and the logits come back for that one row.
        A wrong shape (including one row on a cache of several rows that
        already holds tokens, whose rows may differ), a token id outside the
        vocabulary or going past the cache's capacity raises
        :class:`LMError` before the cache is touched.  Returns logits for
        the new positions only.
        """
        ids = np.asarray(ids)
        shared = ids.ndim == 2 and ids.shape[0] == 1 and cache["n"] == 0
        if ids.ndim != 2 or (ids.shape[0] != cache["batch"] and not shared):
            raise LMError(f"ids must have shape ({cache['batch']}, S), or (1, S) on an "
                          f"empty cache, got {ids.shape}")
        end = cache["n"] + ids.shape[1]
        if end > cache["capacity"]:
            raise LMError(f"sequence length {end} exceeds cache capacity {cache['capacity']}")
        return self._forward(ids, harmony, kv=cache)


# ---------------------------------------------------------------------------
# Optimizer

ADAMW_BETAS = (0.9, 0.95)
ADAMW_EPS = 1e-8
ADAMW_WEIGHT_DECAY = 0.01


class AdamW:
    """Decoupled weight decay Adam; decay applies to matrix weights other than
    the token embedding."""

    def __init__(self, params: dict[str, np.ndarray], lr: float) -> None:
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
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


# ---------------------------------------------------------------------------
# Training loop

def train(model: TinyLM, batches: Sequence[tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]],
          steps: int, lr: float = 6e-4, seed: int = 42) -> list[float]:
    """Cycle through ``(ids, mask, harmony)`` batches for a fixed step count.

    Batches are visited in a seeded random order, reshuffled each epoch.
    Returns the loss of every step, in order.
    """
    if not batches:
        raise LMError("no batches to train on")
    if steps < 1:
        raise LMError("steps must be positive")
    opt = AdamW(model.params, lr=lr)
    rng = np.random.default_rng(seed)
    order: list[int] = []
    losses: list[float] = []
    for _ in range(steps):
        if not order:
            order = rng.permutation(len(batches)).tolist()
        ids, mask, harmony = batches[order.pop()]
        loss, grads = model.loss_and_grads(ids, mask, harmony)
        opt.update(model.params, grads)
        losses.append(loss)
    return losses


# ---------------------------------------------------------------------------
# Sampling

@dataclass
class SampleResult:
    sequences: list[list[int]]      # generated ids only, prefix excluded
    stopped_on_end: list[bool]


def sample(model: TinyLM, prefix: Sequence[int], n_sequences: int,
           max_new_tokens: int, end_id: int, temperature: float = 1.0, seed: int = 42,
           harmony: Optional[np.ndarray] = None) -> SampleResult:
    """Draw continuations of one shared prefix, batched with a KV cache.

    ``temperature=0`` is greedy argmax (all sequences identical); otherwise
    logits are divided by the temperature and sampled.  Generation stops
    per sequence at ``end_id`` (which is not included in the output) or
    after ``max_new_tokens``.
    The cache is preallocated once for the prefix plus ``max_new_tokens``.
    The prefix runs once for all rows.  Rows that have drawn ``end_id``
    leave the cache once the rows still running are three quarters of its
    rows or fewer.
    """
    if n_sequences < 1:
        raise LMError("n_sequences must be positive")
    if max_new_tokens < 0:
        raise LMError("max_new_tokens must be nonnegative")
    if temperature < 0:
        raise LMError("temperature must be nonnegative")
    prefix_arr = np.asarray(prefix, dtype=np.int64)
    if prefix_arr.ndim != 1 or prefix_arr.size == 0:
        raise LMError("prefix must be a nonempty id sequence")
    b = n_sequences
    rng = np.random.default_rng(seed)
    # capped at max_len: a call that needs more fails in extend once the cache is full
    cache = model.start_cache(b, capacity=min(prefix_arr.size + max_new_tokens,
                                              model.config.max_len))
    hmat = None
    if harmony is not None:
        hmat = np.asarray(harmony, dtype=np.float64).reshape(1, 12)
    logits = np.repeat(model.extend(cache, prefix_arr[None], hmat)[:, -1, :], b, axis=0)
    # every row still running has drawn one token per step, so row r's
    # output is tokens[r, :lengths[r]]; rows keep drawing after they stop,
    # from their last logits once they have left the cache, so the random
    # stream is the same however many rows the cache holds
    tokens = np.empty((b, max_new_tokens), dtype=np.int64)
    lengths = np.zeros(b, dtype=np.int64)
    done = np.zeros(b, dtype=bool)
    rows = np.arange(b)     # the row that each cache row holds
    for step in range(max_new_tokens):
        tokens[:, step] = _pick(logits, temperature, rng)
        done |= tokens[:, step] == end_id
        lengths += ~done
        if done.all() or step + 1 == max_new_tokens:
            break
        running = ~done[rows]
        if 4 * np.count_nonzero(running) <= 3 * rows.size:
            _keep_rows(cache, np.flatnonzero(running))
            rows = rows[running]
        logits[rows] = model.extend(cache, tokens[rows, step:step + 1], None)[:, -1, :]
    return SampleResult(sequences=[row[:n].tolist() for row, n in zip(tokens, lengths)],
                        stopped_on_end=done.tolist())


def _keep_rows(cache: dict, keep: np.ndarray) -> None:
    """Move the cache rows ``keep`` (ascending) to its front and drop the rest.

    Rows are copied one at a time, front to back, so a row is read before
    any copy lands on it and no temporary of the cache is made; the cache
    then views the front of the same arrays.
    """
    n = cache["n"]
    for arrays in (cache["k"], cache["v"]):
        for i, arr in enumerate(arrays):
            for j, r in enumerate(keep):
                if j != r:
                    arr[j, :, :n] = arr[r, :, :n]
            arrays[i] = arr[:keep.size]
    cache["batch"] = keep.size


def _pick(logits: np.ndarray, temperature: float, rng: np.random.Generator) -> np.ndarray:
    if temperature == 0:
        return logits.argmax(axis=-1).astype(np.int64)
    p = _softmax_last(logits / temperature)
    cdf = np.cumsum(p, axis=-1)
    cdf[:, -1] = 1.0    # guard against rounding in the last bin
    u = rng.random((p.shape[0], 1))
    picks = (u > cdf).sum(axis=-1)
    # a draw above a rounded-down cdf lands on the forced last bin, whose
    # probability may have underflowed to zero: take the last bin that can be drawn
    last = p.shape[-1] - 1 - (p[:, ::-1] > 0).argmax(axis=-1)
    return np.minimum(picks, last).astype(np.int64)


# ---------------------------------------------------------------------------
# Checkpoints

_CHECKPOINT_FORMAT = "tiny-lm-v1"
# the AdamW attributes a checkpoint's meta keeps
_OPTIMIZER_FIELDS = ("lr", "step_count")


def save_checkpoint(path: str, model: TinyLM, step: int = 0,
                    optimizer: Optional[AdamW] = None) -> None:
    groups = {"p": model.params} if optimizer is None else {
        "p": model.params, "m": optimizer.m, "v": optimizer.v}
    arrays = {f"{k}/{name}": arr for k, group in groups.items() for name, arr in group.items()}
    meta = {"format": _CHECKPOINT_FORMAT, "config": asdict(model.config), "step": step,
            "optimizer": None if optimizer is None else {
                name: getattr(optimizer, name) for name in _OPTIMIZER_FIELDS}}
    interchange.write_npz(path, {"meta": meta, **arrays})


def _check_keys(path: str, part: str, record: dict, known: Sequence[str], owner: str) -> None:
    """Raise :class:`LMError` naming ``path`` unless meta ``part`` holds
    exactly the ``known`` fields, each of its kind."""
    interchange.check(f"{path} meta {part}", record, LMError, *known)
    if set(record).difference(known):
        raise LMError(f"checkpoint {path} {part} keys differ from {owner}'s: "
                      f"unexpected {sorted(set(record).difference(known))}")


def load_checkpoint(path: str) -> tuple[TinyLM, int, Optional[AdamW]]:
    """The model, its step and its optimizer (None if none was saved).

    Raises :class:`LMError` naming ``path`` when the file is not a readable
    checkpoint of this format, a meta field is missing, mistyped or unknown,
    or its arrays' names, shapes and float64 dtype are not the config's.
    """
    arrays = interchange.read_npz(path, LMError, "checkpoint", {"meta": dict})
    meta = arrays.pop("meta")
    if meta.get("format") != _CHECKPOINT_FORMAT:
        raise LMError(f"unrecognized checkpoint format in {path}")
    interchange.check(f"{path} meta", meta, LMError, "config", "step", "optimizer")
    stored = meta["config"]
    _check_keys(path, "config", stored, [f.name for f in fields(ModelConfig)], "ModelConfig")
    try:
        config = ModelConfig(**stored)
    except LMError as exc:
        raise LMError(f"checkpoint {path} config: {exc}") from exc
    # every layer has arrays of its own, so more layers than arrays match none
    shapes = _param_shapes(config) if config.n_layers <= len(arrays) else {}
    o = meta["optimizer"]
    groups = {k: {name[2:]: arr for name, arr in arrays.items() if name.startswith(f"{k}/")}
              for k in (("p",) if o is None else ("p", "m", "v"))}
    for k, found in groups.items():
        wrong = sorted(set(found) ^ set(shapes)) or [
            n for n in shapes if (found[n].shape, found[n].dtype) != (shapes[n], np.float64)]
        if wrong:
            raise LMError(f"checkpoint {path} arrays {k}/* do not match the config at "
                          f"{wrong[:5]} (float64 arrays of the config's shapes)")
    model = TinyLM(config=config, params=groups["p"])
    optimizer = None
    if o is not None:
        # an optimizer saved while betas, eps and weight decay were settings holds them
        _check_keys(path, "optimizer", o, _OPTIMIZER_FIELDS, "AdamW")
        optimizer = AdamW(groups["p"], lr=o["lr"])
        optimizer.step_count, optimizer.m, optimizer.v = o["step_count"], groups["m"], groups["v"]
    return model, meta["step"], optimizer
