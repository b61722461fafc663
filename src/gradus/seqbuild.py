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
    "MAX_ADAPTATION_LEN",
    "Sample",
    "prefix_mask",
    "conditioned_sample",
    "adaptation_sample",
    "adaptation_samples",
    "masked_cross_entropy",
    "cross_entropy_terms",
    "collate",
]


class SequenceError(Exception):
    pass


class OversizedPairError(SequenceError):
    """A pair cannot fit the length budget even after truncating the hard half."""


class TruncationWarning(UserWarning):
    pass


# the token budget build-seqs gives every sequence, in both layouts
MAX_ADAPTATION_LEN = 8000


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
                       harmony: np.ndarray, piece: str = "",
                       max_len: Optional[int] = None) -> Sample:
    """Melody generation conditioned on a harmony vector.

    Layout ``[BOS] [HARM] <melody...> [EOS]``; the two-token prefix is the
    conditioning.  If a length budget is given, whole trailing measures of
    the melody are dropped to fit (with a warning); a melody whose first
    measure alone blows the budget is rejected.
    """
    h = np.asarray(harmony, dtype=np.float64)
    if h.shape != (12,):
        raise SequenceError(f"harmony must be a 12-vector, got shape {h.shape}")
    melody = list(melody_tokens)
    if not melody:
        raise SequenceError("conditioned sample needs a nonempty melody")
    overhead = 3  # [BOS] [HARM] ... [EOS]
    if max_len is not None and len(melody) + overhead > max_len:
        melody = _drop_trailing_measures(melody, max_len - overhead)
        if melody is None:
            raise SequenceError(
                f"piece {piece!r}: even one measure exceeds max_len {max_len}")
        warnings.warn(f"piece {piece!r}: melody truncated to fit {max_len} tokens",
                      TruncationWarning, stacklevel=2)
    tokens = [BOS, HARMONY] + melody + [EOS]
    ids = np.asarray(vocab.encode_ids(tokens), dtype=np.int64)
    return Sample(ids=ids, mask=prefix_mask(2, len(tokens)), harmony=h, piece=piece)


def adaptation_sample(vocab: Vocabulary, hard_tokens: Sequence[str],
                      easy_tokens: Sequence[str], hard_level: int, easy_level: int,
                      piece: str = "", max_len: int = MAX_ADAPTATION_LEN) -> Sample:
    """Hard-to-easy rewriting sample, scored on the easy half.

    Over-budget sequences lose whole trailing measures of the hard half
    only; the easy half is the training signal and is never cut.  If the
    budget still cannot be met, :class:`OversizedPairError` is raised.
    """
    if not 1 <= hard_level <= 9 or not 1 <= easy_level <= 9:
        raise SequenceError("levels must lie in 1..9")
    hard = list(hard_tokens)
    easy = list(easy_tokens)
    if not hard or not easy:
        raise SequenceError("adaptation sample needs nonempty halves")
    overhead = 4  # level/[SEP]/level/[EOS]
    budget = max_len - overhead - len(easy)
    if len(hard) > budget:
        truncated = _drop_trailing_measures(hard, budget)
        if truncated is None:
            raise OversizedPairError(
                f"piece {piece!r}: easy half plus one hard measure exceeds "
                f"max_len {max_len}")
        hard = truncated
        warnings.warn(f"piece {piece!r}: hard half truncated to fit {max_len} tokens",
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


def adaptation_samples(vocab: Vocabulary, pairs: Sequence, tokens_by_id: dict[str, Sequence[str]],
                       max_len: int = MAX_ADAPTATION_LEN) -> tuple[list[Sample], list[str]]:
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
            samples.append(adaptation_sample(
                vocab, hard, easy, pair.hard_level, pair.easy_level,
                piece=pair.piece, max_len=max_len))
        except OversizedPairError as exc:
            skipped.append(str(exc))
    return samples, skipped


def masked_cross_entropy(logits: np.ndarray, targets: np.ndarray,
                         mask: np.ndarray) -> float:
    """Mean negative log likelihood over positions with mask 0.

    ``logits`` has shape (..., V), and ``targets`` and ``mask`` its leading
    shape: (T,) for one sequence, (B, T) for a batch.  This is the loss the
    token model trains on.  Only unmasked positions are ever read from
    ``targets``, so altering a masked target cannot change the result even
    at the last bit.
    """
    return cross_entropy_terms(logits, targets, mask)[0]


def cross_entropy_terms(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray,
                        ) -> tuple[float, tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """:func:`masked_cross_entropy` with the terms its gradient reuses.

    Returns ``(loss, scored, e, sums)``: the loss, the ``np.nonzero`` index
    of the scored positions, ``exp(rows - max)`` of their logit rows, and
    the row sums of ``e``, so ``e / sums[:, None]`` is their softmax.
    """
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets)
    m = np.asarray(mask)
    if z.ndim < 2 or t.shape != z.shape[:-1] or m.shape != t.shape:
        raise SequenceError("logits (..., V), targets (...) and mask (...) must align")
    scored = np.nonzero(m == 0)
    if scored[0].size == 0:
        raise SequenceError("mask leaves no position to score")
    rows = z[scored]
    mx = rows.max(axis=1)
    picked = rows[np.arange(rows.shape[0]), t[scored]]
    e = np.exp(rows - mx[:, None])
    sums = e.sum(axis=1)
    log_z = np.log(sums) + mx
    return float(np.mean(log_z - picked)), scored, e, sums


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
