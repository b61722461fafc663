"""Difficulty estimation over a nine-level scale.

A Gaussian naive Bayes model maps twelve texture features to a posterior
over levels 1..9.  Everything runs in log space; a temperature learned on
held-out data by golden-section search flattens or sharpens the posterior
without ever changing the argmax.  A confidence filter drops a fixed
fraction of the least certain predictions before any downstream use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import interchange

__all__ = [
    "ModelError",
    "LEVELS",
    "GaussianNB",
    "fit",
    "fit_temperature",
    "confidence_filter",
    "difficulty_proxy",
    "quantile_levels",
    "save_model",
    "load_model",
]


class ModelError(Exception):
    """A model that cannot be fitted, stored or applied.

    ``row`` is the index of the feature row at fault, when one is.
    """

    def __init__(self, message: str, row: Optional[int] = None) -> None:
        super().__init__(message)
        self.row = row


LEVELS: tuple[int, ...] = tuple(range(1, 10))
_N_FEATURES = 12

# Keeps the class-variance estimates away from zero: the floor is this
# multiple of the mean pooled feature variance.
VARIANCE_FLOOR_RATIO = 1e-6


@dataclass(frozen=True)
class GaussianNB:
    """Fitted model: per-class priors, means and variances, plus temperature.

    Classes with no training examples keep a zero prior and are therefore
    impossible under the posterior.  ``temperature`` rescales log posteriors
    (1.0 = calibrated off).
    """

    log_prior: np.ndarray   # (9,), -inf for absent classes
    mean: np.ndarray        # (9, 12)
    var: np.ndarray         # (9, 12), floored, absent classes hold 1.0
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.log_prior.shape != (len(LEVELS),):
            raise ModelError("log_prior must have one entry per level")
        if self.mean.shape != (len(LEVELS), _N_FEATURES):
            raise ModelError("mean must be (levels, features)")
        if self.var.shape != (len(LEVELS), _N_FEATURES):
            raise ModelError("var must be (levels, features)")
        if not self.temperature > 0:
            raise ModelError("temperature must be positive")

    def log_joint(self, features: np.ndarray) -> np.ndarray:
        """Unnormalized log P(level, features), shape (n, 9).

        Sum of the log prior and the per-feature Gaussian log densities;
        absent classes come out as -inf.  A row that no class gives a
        finite value (a feature so far from every mean that its square
        overflows, or a non-finite feature) raises :class:`ModelError`.
        """
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if x.shape[1] != _N_FEATURES:
            raise ModelError(f"expected {_N_FEATURES} features, got {x.shape[1]}")
        diff = x[:, None, :] - self.mean[None, :, :]       # (n, 9, 12)
        with np.errstate(over="ignore", invalid="ignore"):
            log_pdf = -0.5 * (np.log(2.0 * np.pi * self.var)[None, :, :]
                              + diff * diff / self.var[None, :, :])
            joint = self.log_prior[None, :] + log_pdf.sum(axis=2)
        return _scorable(joint)

    def posterior(self, features: np.ndarray, *,
                  joint: Optional[np.ndarray] = None) -> np.ndarray:
        """P(level | features), rows summing to 1, shape (n, 9).

        ``joint``, if given, is ``log_joint(features)`` already computed.
        Raises :class:`ModelError` for a row that :meth:`log_joint` refuses,
        or whose log-joint a temperature below 1 scales past the float range.
        """
        if joint is None:
            joint = self.log_joint(features)
        with np.errstate(over="ignore"):
            joint = _scorable(joint / self.temperature)
        joint = joint - joint.max(axis=1, keepdims=True)
        p = np.exp(joint)
        return p / p.sum(axis=1, keepdims=True)

    def predict(self, features: np.ndarray, *,
                joint: Optional[np.ndarray] = None) -> np.ndarray:
        """Most probable level per row (ties go to the lower level).

        The level is the argmax of the log-joint, not of the posterior:
        dividing by the temperature can round two log-joints to a tie.
        ``joint``, if given, is ``log_joint(features)`` already computed.
        """
        if joint is None:
            joint = self.log_joint(features)
        return np.asarray(LEVELS)[np.argmax(joint, axis=1)]


def _scorable(joint: np.ndarray) -> np.ndarray:
    """``joint``, if every row gives some level a finite log-joint."""
    unscorable = np.flatnonzero(~np.isfinite(joint.max(axis=1)))
    if unscorable.size:
        row = int(unscorable[0])
        raise ModelError(f"feature row {row} has a finite log-likelihood under no level",
                         row=row)
    return joint


def fit(features: np.ndarray, levels: Sequence[int]) -> GaussianNB:
    """Fit priors, means and population variances per difficulty level.

    Each level present in ``levels`` needs at least two examples so its
    variance is estimable, and is floored at :data:`VARIANCE_FLOOR_RATIO`
    times the mean pooled variance.  A pooled variance that is not finite
    (a non-finite feature, or one whose square overflows) raises
    :class:`ModelError`; past that check no level's statistics can overflow.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(levels, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != _N_FEATURES:
        raise ModelError(f"features must be (n, {_N_FEATURES})")
    if y.shape != (x.shape[0],):
        raise ModelError("levels must align with feature rows")
    if x.shape[0] == 0:
        raise ModelError("cannot fit on an empty training set")
    bad = set(y.tolist()) - set(LEVELS)
    if bad:
        raise ModelError(f"levels outside 1..9: {sorted(bad)}")

    with np.errstate(over="ignore", invalid="ignore"):
        pooled = x.var(axis=0)
        var_floor = VARIANCE_FLOOR_RATIO * float(pooled.mean()) or 1e-12
    bad_column = np.flatnonzero(~np.isfinite(pooled))
    if bad_column.size:
        raise ModelError(f"feature column {int(bad_column[0])}: pooled variance is not finite")
    if not np.isfinite(var_floor):
        raise ModelError("mean pooled variance is not finite")

    log_prior = np.full(len(LEVELS), -np.inf)
    mean = np.zeros((len(LEVELS), _N_FEATURES))
    var = np.ones((len(LEVELS), _N_FEATURES))
    n = x.shape[0]
    for k, level in enumerate(LEVELS):
        rows = x[y == level]
        if rows.shape[0] == 0:
            continue
        if rows.shape[0] < 2:
            raise ModelError(
                f"level {level} has {rows.shape[0]} example(s); need at least 2")
        log_prior[k] = np.log(rows.shape[0] / n)
        mean[k] = rows.mean(axis=0)
        var[k] = np.maximum(rows.var(axis=0), var_floor)
    return GaussianNB(log_prior=log_prior, mean=mean, var=var)


# ---------------------------------------------------------------------------
# Temperature calibration

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
TEMPERATURE_RANGE = (0.05, 20.0)
TEMPERATURE_TOL = 1e-4


def _held_out_nll(joint: np.ndarray, levels: np.ndarray, temperature: float) -> float:
    """Mean negative log posterior of the true levels, given their log-joint."""
    joint = joint / temperature
    joint = joint - joint.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(joint).sum(axis=1))
    picked = joint[np.arange(len(levels)), levels - 1]
    return float(-(picked - log_z).mean())


def fit_temperature(model: GaussianNB, features: np.ndarray,
                    levels: Sequence[int]) -> GaussianNB:
    """Pick the temperature minimizing held-out negative log likelihood.

    Golden-section search on :data:`TEMPERATURE_RANGE`; the objective is
    unimodal enough in practice that this converges to
    :data:`TEMPERATURE_TOL`.  Returns a copy of the model with the
    temperature set.  Held-out rows whose true level is impossible under the
    model make the objective infinite everywhere, so they are rejected up front.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(levels, dtype=np.int64)
    if x.shape[0] == 0:
        raise ModelError("temperature calibration needs held-out data")
    if y.shape != (x.shape[0],):
        raise ModelError("levels must align with feature rows")
    impossible = np.isneginf(model.log_prior[y - 1])
    if impossible.any():
        raise ModelError(
            f"held-out rows {np.nonzero(impossible)[0].tolist()[:5]} have levels "
            "the model assigns zero prior")

    joint = model.log_joint(x)
    a, b = TEMPERATURE_RANGE
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _held_out_nll(joint, y, c)
    fd = _held_out_nll(joint, y, d)
    while b - a > TEMPERATURE_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _held_out_nll(joint, y, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _held_out_nll(joint, y, d)
    return GaussianNB(log_prior=model.log_prior, mean=model.mean, var=model.var,
                      temperature=float((a + b) / 2.0))


# ---------------------------------------------------------------------------
# Confidence filter

CONFIDENCE_DROP_FRACTION = 0.25


def confidence_filter(confidences: Sequence[float]) -> np.ndarray:
    """Indices that survive dropping the least confident quarter.

    Exactly ``floor(CONFIDENCE_DROP_FRACTION * n)`` entries are removed.
    Ties on confidence are broken by position: among equals, later entries
    are dropped first, so earlier ones are kept.  The returned indices are in
    their original order.
    """
    c = np.asarray(confidences, dtype=np.float64)
    if c.ndim != 1:
        raise ModelError("confidences must be one-dimensional")
    n = c.shape[0]
    # sort by (confidence, -index): equal confidences put later indices first
    order = np.lexsort((-np.arange(n), c))
    return np.sort(order[int(np.floor(CONFIDENCE_DROP_FRACTION * n)):])


# ---------------------------------------------------------------------------
# Synthetic labels

# Fixed weights over the feature order: densities and chord rates dominate,
# with range, interval size and hand span contributing.
_PROXY_WEIGHTS = np.array(
    [2.0, 1.5, 0.05, 0.05, 0.25, 0.2, 3.0, 2.0, 0.15, 0.5, -0.5, 0.1])


def difficulty_proxy(features: np.ndarray) -> np.ndarray:
    """Scalar "harder is larger" score per feature row.

    A fixed linear combination of the texture features: denser, wider,
    jumpier, more chordal writing scores higher; long inter-onset gaps
    score lower.  Only used to synthesize ordinal labels where no human
    grading exists.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != _N_FEATURES:
        raise ModelError(f"expected {_N_FEATURES} features, got {x.shape[1]}")
    return x @ _PROXY_WEIGHTS


def quantile_levels(proxy: Sequence[float]) -> np.ndarray:
    """Equal-count difficulty bins over a scalar proxy, as levels 1..9.

    With n examples, ``k = min(9, max(1, n // 2))`` bins are used so every
    bin holds at least two examples, and bin ranks are spread evenly over
    the nine-level scale.  Ties in the proxy are broken by position.
    """
    v = np.asarray(proxy, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ModelError("difficulty proxy must be a nonempty vector")
    n = v.shape[0]
    k = min(len(LEVELS), max(1, n // 2))
    order = np.argsort(v, kind="stable")
    bins = np.array_split(order, k)
    bin_levels = np.rint(np.linspace(1, 9, k)).astype(np.int64)
    out = np.empty(n, dtype=np.int64)
    for rank, rows in enumerate(bins):
        out[rows] = bin_levels[rank]
    return out


# ---------------------------------------------------------------------------
# Persistence

def save_model(model: GaussianNB, path: str) -> None:
    interchange.write_json(path, {
        "format": "gnb-v1",
        "levels": list(LEVELS),
        "log_prior": [None if np.isneginf(v) else float(v) for v in model.log_prior],
        "mean": model.mean.tolist(),
        "var": model.var.tolist(),
        "temperature": model.temperature,
    })


def load_model(path: str) -> GaussianNB:
    payload = interchange.read_json(path, ModelError)
    if payload.get("format") != "gnb-v1":
        raise ModelError(f"unrecognized model format in {path}")
    interchange.check(path, payload, ModelError, *interchange.MODEL_FIELDS,
                      fields=interchange.MODEL_FIELDS)
    # null marks a class absent from training: its log prior is -inf
    log_prior = [-np.inf if v is None else v for v in payload["log_prior"]]
    try:
        return GaussianNB(np.array(log_prior, dtype=np.float64),
                          np.array(payload["mean"], dtype=np.float64),
                          np.array(payload["var"], dtype=np.float64),
                          float(payload["temperature"]))
    except ModelError as exc:   # an array of the wrong shape
        raise ModelError(f"{path}: {exc}") from exc
