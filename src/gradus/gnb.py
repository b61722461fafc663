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
        # 0 * -inf from absent classes would give nan; force them back to -inf
        joint = np.where(np.isneginf(self.log_prior)[None, :], -np.inf, joint)
        return _scorable(joint)

    def posterior(self, features: np.ndarray, calibrated: bool = True) -> np.ndarray:
        """P(level | features), rows summing to 1, shape (n, 9).

        Raises :class:`ModelError` for a row that :meth:`log_joint` refuses,
        or whose log-joint a temperature below 1 scales past the float range.
        """
        joint = self.log_joint(features)
        if calibrated:
            with np.errstate(over="ignore"):
                joint = _scorable(joint / self.temperature)
        joint = joint - joint.max(axis=1, keepdims=True)
        p = np.exp(joint)
        return p / p.sum(axis=1, keepdims=True)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most probable level per row (ties go to the lower level)."""
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


def fit(features: np.ndarray, levels: Sequence[int],
        var_floor: Optional[float] = None) -> GaussianNB:
    """Fit priors, means and population variances per difficulty level.

    Each level present in ``levels`` needs at least two examples so its
    variance is estimable.  ``var_floor`` overrides the default floor of
    ``1e-6`` times the mean pooled feature variance.  A mean or variance
    that is not finite (a non-finite feature, or one whose square
    overflows) raises :class:`ModelError` naming the feature column.
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

    if var_floor is None:
        pooled = _finite_stat(np.var, x, "pooled variance")
        var_floor = VARIANCE_FLOOR_RATIO * float(pooled.mean())
        if var_floor <= 0:
            var_floor = 1e-12

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
        mean[k] = _finite_stat(np.mean, rows, f"mean of level {level}")
        var[k] = np.maximum(_finite_stat(np.var, rows, f"variance of level {level}"), var_floor)
    return GaussianNB(log_prior=log_prior, mean=mean, var=var)


def _finite_stat(reduce, rows: np.ndarray, what: str) -> np.ndarray:
    """``reduce`` over the rows, one value per feature column, if each is finite.

    An overflow comes out as ``inf`` and raises :class:`ModelError`, not a
    warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = reduce(rows, axis=0)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ModelError(f"feature column {int(bad[0])}: {what} is not finite")
    return values


# ---------------------------------------------------------------------------
# Temperature calibration

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _held_out_nll(model: GaussianNB, features: np.ndarray, levels: np.ndarray,
                  temperature: float) -> float:
    joint = model.log_joint(features) / temperature
    joint = joint - joint.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(joint).sum(axis=1))
    idx = levels - 1
    picked = joint[np.arange(len(levels)), idx]
    return float(-(picked - log_z).mean())


def fit_temperature(model: GaussianNB, features: np.ndarray,
                    levels: Sequence[int], lo: float = 0.05, hi: float = 20.0,
                    tol: float = 1e-4) -> GaussianNB:
    """Pick the temperature minimizing held-out negative log likelihood.

    Golden-section search on ``[lo, hi]``; the objective is unimodal enough
    in practice that this converges to ``tol``.  Returns a copy of the
    model with the temperature set.  Held-out rows whose true level is
    impossible under the model make the objective infinite everywhere, so
    they are rejected up front.
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

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _held_out_nll(model, x, y, c)
    fd = _held_out_nll(model, x, y, d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _held_out_nll(model, x, y, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _held_out_nll(model, x, y, d)
    best = (a + b) / 2.0
    return GaussianNB(log_prior=model.log_prior, mean=model.mean, var=model.var,
                      temperature=float(best))


# ---------------------------------------------------------------------------
# Confidence filter

def confidence_filter(confidences: Sequence[float], drop_fraction: float = 0.25,
                      ) -> np.ndarray:
    """Indices that survive dropping the least confident fraction.

    Exactly ``floor(drop_fraction * n)`` entries are removed.  Ties on
    confidence are broken by position: among equals, later entries are
    dropped first, so earlier ones are kept.  The returned indices are in
    their original order.
    """
    c = np.asarray(confidences, dtype=np.float64)
    if c.ndim != 1:
        raise ModelError("confidences must be one-dimensional")
    if not 0 <= drop_fraction < 1:
        raise ModelError("drop_fraction must lie in [0, 1)")
    n = c.shape[0]
    n_drop = int(np.floor(drop_fraction * n))
    if n_drop == 0:
        return np.arange(n)
    # sort by (confidence, -index): equal confidences put later indices first
    order = np.lexsort((-np.arange(n), c))
    dropped = set(order[:n_drop].tolist())
    return np.array([i for i in range(n) if i not in dropped], dtype=np.int64)


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
    try:
        if payload.get("format") != "gnb-v1":
            raise ModelError(f"unrecognized model format in {path}")
        # null marks a class absent from training: its log prior is -inf
        log_prior = np.array([-np.inf if v is None else float(v)
                              for v in payload["log_prior"]])
        model = GaussianNB(
            log_prior=log_prior,
            mean=np.asarray(payload["mean"], dtype=np.float64),
            var=np.asarray(payload["var"], dtype=np.float64),
            temperature=float(payload["temperature"]),
        )
        present = [v is not None for v in payload["log_prior"]]
        for name, values in (("log_prior", log_prior[present]), ("mean", model.mean),
                             ("var", model.var)):
            if not np.isfinite(values).all():
                raise ModelError(f"{path}: {name} holds a non-finite number")
        return model
    except KeyError as exc:
        raise ModelError(f"{path}: missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ModelError(f"{path}: bad model: {exc}") from exc
