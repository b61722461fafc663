"""Assembly of training sequences for the token model.

Two layouts share one mask convention: mask 1 marks conditioning tokens
(never scored), mask 0 marks tokens the model must predict.

Conditioned melody samples look like ``[BOS] [HARM] <skyline...> [EOS]``
with a 12-dimensional harmony vector attached to the ``[HARM]`` position.
Adaptation samples concatenate a harder variation and an easier one:
``[LEVEL-h] <hard...> [SEP] [LEVEL-e] <easy...> [EOS]``, scored only on
the easy half and the closing ``[EOS]``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lmx import BOS, EOS, HARMONY, LEVEL_TOKENS, PAD, SEP, Vocabulary

__all__ = [
    "SequenceError",
    "OversizedPairError",
    "TruncationWarning",
    "MAX_SEQUENCE_LEN",
    "CONDITIONING_PREFIX",
    "Sample",
    "prefix_mask",
    "conditioned_sample",
    "adaptation_sample",
    "adaptation_samples",
    "masked_cross_entropy",
    "collate",
]


class SequenceError(Exception):
    pass


class OversizedPairError(SequenceError):
    """A pair cannot fit the length budget even after truncating the hard half."""


class TruncationWarning(UserWarning):
    pass


# the token budget of every sequence, in both layouts; read at each call
MAX_SEQUENCE_LEN = 8000
# the conditioning that opens a conditioned sample, and that sampling continues
CONDITIONING_PREFIX = (BOS, HARMONY)


@dataclass(frozen=True)
class Sample:
    """One training sequence: token ids, conditioning mask, optional harmony."""

    ids: np.ndarray                      # (T,) int64
    mask: np.ndarray                     # (T,) int8; 1 = conditioning
    harmony: Optional[np.ndarray] = None  # (12,) float64, at the [HARM] position
    piece: str = ""

    def __post_init__(self) -> None:
        if self.ids.ndim != 1 or self.mask.shape != self.ids.shape:
            raise SequenceError("ids and mask must be aligned one-dimensional arrays")
        if self.ids.shape[0] < 2:
            raise SequenceError("a sample needs at least two tokens")
        if not np.isin(self.mask, (0, 1)).all():
            raise SequenceError("mask entries must be 0 or 1")
        if not (self.mask == 0).any():
            raise SequenceError("sample has no predicted positions")
        if self.harmony is not None and self.harmony.shape != (12,):
            raise SequenceError("harmony must be a 12-vector")

    def __len__(self) -> int:
        return int(self.ids.shape[0])


def prefix_mask(prefix_len: int, total_len: int) -> np.ndarray:
    """Mask with ones on the first ``prefix_len`` positions, zeros after."""
    if not 0 <= prefix_len <= total_len:
        raise SequenceError(
            f"prefix length {prefix_len} outside [0, {total_len}]")
    mask = np.zeros(total_len, dtype=np.int8)
    mask[:prefix_len] = 1
    return mask


def conditioned_sample(vocab: Vocabulary, melody_tokens: Sequence[str],
                       harmony: np.ndarray, piece: str = "") -> Sample:
    """Melody generation conditioned on a harmony vector.

    Layout ``[BOS] [HARM] <melody...> [EOS]``; :data:`CONDITIONING_PREFIX`
    is the conditioning.  Over :data:`MAX_SEQUENCE_LEN`, whole trailing
    measures of the melody are dropped to fit (with a warning); a melody
    whose first measure alone blows the budget is rejected.
    """
    h = np.asarray(harmony, dtype=np.float64)
    if h.shape != (12,):
        raise SequenceError(f"harmony must be a 12-vector, got shape {h.shape}")
    melody = list(melody_tokens)
    if not melody:
        raise SequenceError("conditioned sample needs a nonempty melody")
    overhead = len(CONDITIONING_PREFIX) + 1  # the prefix and [EOS]
    if len(melody) + overhead > MAX_SEQUENCE_LEN:
        melody = _drop_trailing_measures(melody, MAX_SEQUENCE_LEN - overhead)
        if melody is None:
            raise SequenceError(f"piece {piece!r}: even one measure exceeds "
                                f"the {MAX_SEQUENCE_LEN}-token budget")
        warnings.warn(f"piece {piece!r}: melody truncated to fit {MAX_SEQUENCE_LEN} tokens",
                      TruncationWarning, stacklevel=2)
    tokens = [*CONDITIONING_PREFIX, *melody, EOS]
    ids = np.asarray(vocab.encode_ids(tokens), dtype=np.int64)
    return Sample(ids=ids, mask=prefix_mask(len(CONDITIONING_PREFIX), len(tokens)),
                  harmony=h, piece=piece)


def adaptation_sample(vocab: Vocabulary, hard_tokens: Sequence[str],
                      easy_tokens: Sequence[str], hard_level: int, easy_level: int,
                      piece: str = "") -> Sample:
    """Hard-to-easy rewriting sample, scored on the easy half.

    Sequences over :data:`MAX_SEQUENCE_LEN` lose whole trailing measures of
    the hard half only; the easy half is the training signal and is never
    cut.  If the budget still cannot be met, :class:`OversizedPairError` is
    raised.
    """
    if not 1 <= hard_level <= 9 or not 1 <= easy_level <= 9:
        raise SequenceError("levels must lie in 1..9")
    hard = list(hard_tokens)
    easy = list(easy_tokens)
    if not hard or not easy:
        raise SequenceError("adaptation sample needs nonempty halves")
    overhead = 4  # level/[SEP]/level/[EOS]
    budget = MAX_SEQUENCE_LEN - overhead - len(easy)
    if len(hard) > budget:
        truncated = _drop_trailing_measures(hard, budget)
        if truncated is None:
            raise OversizedPairError(
                f"piece {piece!r}: easy half plus one hard measure exceeds "
                f"the {MAX_SEQUENCE_LEN}-token budget")
        hard = truncated
        warnings.warn(f"piece {piece!r}: hard half truncated to fit {MAX_SEQUENCE_LEN} tokens",
                      TruncationWarning, stacklevel=2)
    tokens = ([LEVEL_TOKENS[hard_level - 1]] + hard + [SEP]
              + [LEVEL_TOKENS[easy_level - 1]] + easy + [EOS])
    ids = np.asarray(vocab.encode_ids(tokens), dtype=np.int64)
    # conditioning: both level tokens, the hard half and [SEP]
    return Sample(ids=ids, mask=prefix_mask(len(hard) + 3, len(tokens)), piece=piece)


def _drop_trailing_measures(tokens: list[str], budget: int) -> Optional[list[str]]:
    """Trim to ``budget`` by removing whole measures from the end.

    Returns None when even the first measure does not fit (or the budget
    is nonpositive).
    """
    if budget <= 0:
        return None
    if len(tokens) <= budget:
        return tokens
    starts = [i for i, t in enumerate(tokens) if t == "measure"]
    if not starts or starts[0] != 0:
        return None  # not measure-structured; cannot cut cleanly
    for start in reversed(starts):
        if start == 0:
            return None
        if start <= budget:
            return tokens[:start]
    return None


def adaptation_samples(vocab: Vocabulary, pairs: Sequence, tokens_by_id: dict[str, Sequence[str]]
                       ) -> tuple[list[Sample], list[str]]:
    """Build samples for mined pairs; unbuildable pairs are skipped, not fatal.

    Returns the samples plus one reason line per skipped pair.
    """
    samples: list[Sample] = []
    skipped: list[str] = []
    for pair in pairs:
        try:
            hard = tokens_by_id[pair.hard]
            easy = tokens_by_id[pair.easy]
        except KeyError as exc:
            skipped.append(f"{pair.piece}: missing token stream for {exc}")
            continue
        try:
            samples.append(adaptation_sample(vocab, hard, easy, pair.hard_level,
                                             pair.easy_level, piece=pair.piece))
        except OversizedPairError as exc:
            skipped.append(str(exc))
    return samples, skipped


def masked_cross_entropy(logits: np.ndarray, targets: np.ndarray,
                         mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log likelihood over positions with mask 0, and its gradient.

    ``logits`` has shape (..., V), and ``targets`` and ``mask`` its leading
    shape: (T,) for one sequence, (B, T) for a batch.  This is the loss the
    token model trains on.  Returns ``(loss, dlogits)``: ``dlogits`` is the
    gradient of the loss with respect to ``logits``, of its shape, and zero
    at masked positions.  Only unmasked positions are ever read from
    ``targets``, so altering a masked target cannot change either result
    even at the last bit.
    """
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets)
    m = np.asarray(mask)
    if z.ndim < 2 or t.shape != z.shape[:-1] or m.shape != t.shape:
        raise SequenceError("logits (..., V), targets (...) and mask (...) must align")
    scored = np.nonzero(m == 0)
    n = scored[0].size
    if n == 0:
        raise SequenceError("mask leaves no position to score")
    rows = z[scored]
    picks = (np.arange(n), t[scored])
    mx = rows.max(axis=1)
    e = np.exp(rows - mx[:, None])
    sums = e.sum(axis=1)
    loss = float(np.mean((np.log(sums) + mx) - rows[picks]))
    soft = e / sums[:, None]
    soft[picks] -= 1.0
    dlogits = np.zeros_like(z)
    dlogits[scored] = soft / n
    return loss, dlogits


def collate(samples: Sequence[Sample], vocab: Vocabulary,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-pad samples into ``(ids, mask, harmony)`` batch arrays.

    Padding uses the pad id with mask 1, so padded positions are never
    scored.  Samples without harmony get a zero vector, which the model
    treats as no conditioning signal.
    """
    if not samples:
        raise SequenceError("cannot collate an empty batch")
    pad_id = vocab.id(PAD)
    width = max(len(s) for s in samples)
    ids = np.full((len(samples), width), pad_id, dtype=np.int64)
    mask = np.ones((len(samples), width), dtype=np.int8)
    harmony = np.zeros((len(samples), 12), dtype=np.float64)
    for r, s in enumerate(samples):
        ids[r, :len(s)] = s.ids
        mask[r, :len(s)] = s.mask
        if s.harmony is not None:
            harmony[r] = s.harmony
    return ids, mask, harmony
