"""Difficulty classifier tests against an arbitrary-precision oracle."""

import json
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradus.gnb import (
    CONFIDENCE_DROP_FRACTION,
    LEVELS,
    GaussianNB,
    ModelError,
    confidence_filter,
    difficulty_proxy,
    fit,
    fit_temperature,
    load_model,
    quantile_levels,
    save_model,
)

mpmath.mp.dps = 50


def oracle_posterior(model, x):
    """Bayes posterior recomputed with 50-digit arithmetic."""
    joints = []
    for c in range(9):
        if model.log_prior[c] == -np.inf:
            joints.append(mpmath.mpf(0))
            continue
        lj = mpmath.mpf(float(model.log_prior[c]))
        for d in range(x.shape[0]):
            mu = mpmath.mpf(float(model.mean[c, d]))
            var = mpmath.mpf(float(model.var[c, d]))
            xi = mpmath.mpf(float(x[d]))
            lj += (-mpmath.log(2 * mpmath.pi * var) / 2
                   - (xi - mu) ** 2 / (2 * var))
        joints.append(mpmath.e ** lj)
    total = sum(joints)
    return np.array([float(j / total) for j in joints])


def make_training_set(rng, n=120, dims=12, levels=LEVELS):
    X = rng.normal(size=(n, dims)) * 2.0 + rng.uniform(0, 5, size=dims)
    y = np.asarray(levels)[rng.integers(0, len(levels), size=n)]
    # guarantee every requested level appears at least twice
    for i, lv in enumerate(levels):
        y[2 * i] = lv
        y[2 * i + 1] = lv
    return X, y


def calibrated_model():
    X, y = make_training_set(np.random.default_rng(10))
    return fit_temperature(fit(X[:80], y[:80]), X[80:], y[80:])


CALIBRATED = calibrated_model()


class TestFit:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        X, y = make_training_set(rng)
        model = fit(X, y)
        assert model.log_prior.shape == (9,)
        assert model.mean.shape == (9, 12)
        assert model.var.shape == (9, 12)
        assert model.temperature == 1.0

    def test_matches_population_statistics(self):
        rng = np.random.default_rng(1)
        X, y = make_training_set(rng, levels=(2, 5))
        model = fit(X, y)
        for lv in (2, 5):
            sel = X[y == lv]
            np.testing.assert_allclose(model.mean[lv - 1], sel.mean(axis=0))
            np.testing.assert_allclose(model.var[lv - 1],
                                       sel.var(axis=0, ddof=0))
            assert model.log_prior[lv - 1] == pytest.approx(
                math.log(len(sel) / len(X)))

    def test_absent_levels_get_minus_inf_prior(self):
        rng = np.random.default_rng(2)
        X, y = make_training_set(rng, levels=(1, 9))
        model = fit(X, y)
        present = model.log_prior > -np.inf
        assert list(np.flatnonzero(present)) == [0, 8]

    def test_constant_feature_gets_floored_variance(self):
        rng = np.random.default_rng(3)
        X, y = make_training_set(rng, levels=(3, 7))
        X[:, 5] = 2.5
        model = fit(X, y)
        assert np.all(model.var[[2, 6], 5] > 0)
        # prediction still works on the degenerate feature
        assert model.predict(X).shape == (len(X),)

    def test_single_example_class_rejected(self):
        X = np.random.default_rng(4).normal(size=(3, 12))
        y = np.array([1, 1, 2])
        with pytest.raises(ModelError):
            fit(X, y)

    def test_bad_labels_rejected(self):
        X = np.random.default_rng(5).normal(size=(4, 12))
        with pytest.raises(ModelError):
            fit(X, np.array([0, 0, 1, 1]))
        with pytest.raises(ModelError):
            fit(X, np.array([1, 1, 10, 10]))


class TestPosterior:
    def test_against_oracle(self):
        rng = np.random.default_rng(6)
        X, y = make_training_set(rng, n=200)
        model = fit(X, y)
        Q = rng.normal(size=(50, 12)) * 2.0 + 2.0
        post = model.posterior(Q)   # fit leaves the temperature at 1
        for i in range(len(Q)):
            want = oracle_posterior(model, Q[i])
            np.testing.assert_allclose(post[i], want, atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        X, y = make_training_set(rng)
        model = fit(X, y)
        post = model.posterior(X)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_predict_is_argmax(self):
        rng = np.random.default_rng(8)
        X, y = make_training_set(rng)
        model = fit(X, y)
        post = model.posterior(X)
        np.testing.assert_array_equal(model.predict(X),
                                      post.argmax(axis=1) + 1)

    def test_absent_levels_never_predicted(self):
        rng = np.random.default_rng(9)
        X, y = make_training_set(rng, levels=(2, 6, 8))
        model = fit(X, y)
        Q = rng.normal(size=(300, 12)) * 10
        assert set(np.unique(model.predict(Q))) <= {2, 6, 8}

    def test_extreme_inputs_stay_finite(self):
        rng = np.random.default_rng(10)
        X, y = make_training_set(rng)
        model = fit(X, y)
        Q = np.full((3, 12), 1e6)
        post = model.posterior(Q)
        assert np.all(np.isfinite(post))
        np.testing.assert_allclose(post.sum(axis=1), 1.0)

    def test_features_whose_square_overflows_raise(self):
        rng = np.random.default_rng(10)
        X, y = make_training_set(rng)
        model = fit(X, y)
        Q = np.full((3, 12), 1.0)
        Q[1, 4] = 1e154
        assert np.all(np.isfinite(model.posterior(Q[:2])))
        Q[2, 7] = -1e155
        for method in (model.posterior, model.predict, model.log_joint):
            with pytest.raises(ModelError, match="feature row 2 ") as info:
                method(Q)
            assert info.value.row == 2

    def test_fit_refuses_features_whose_square_overflows(self):
        rng = np.random.default_rng(10)
        X, y = make_training_set(rng)
        X[int(np.flatnonzero(y == 4)[0]), 5] = 1e155
        with pytest.raises(ModelError, match="^feature column 5: pooled variance is not finite$"):
            fit(X, y)

    def test_fit_refuses_a_mean_pooled_variance_that_overflows(self):
        # each column's variance (4.2e307) is finite, their sum is not
        X = np.tile([[6.5e153], [-6.5e153], [6.5e153], [-6.5e153]], (1, 12))
        with pytest.raises(ModelError, match="^mean pooled variance is not finite$"):
            fit(X, [1, 1, 2, 2])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_levels=st.integers(2, 4),
           top=st.one_of(st.floats(min_value=1e150, max_value=1.4e154),
                         st.floats(min_value=1e150, max_value=1.7e308)))
    def test_fit_of_huge_features_is_finite_or_refused(self, data, n_levels, top):
        # magnitudes up to ``top``; below about sqrt(float max) the pooled
        # variance can stay finite, which is where a level statistic could overflow
        magnitudes = st.floats(min_value=1e150, max_value=top)
        value = st.builds(lambda m, sign: sign * m, magnitudes, st.sampled_from((-1.0, 1.0)))
        per_level = data.draw(st.lists(st.integers(2, 4), min_size=n_levels,
                                       max_size=n_levels))
        y = np.repeat(np.arange(1, n_levels + 1), per_level)
        X = np.array(data.draw(st.lists(st.lists(value, min_size=12, max_size=12),
                                        min_size=len(y), max_size=len(y))))
        try:
            model = fit(X, y)
        except ModelError as exc:
            assert "pooled variance is not finite" in str(exc)
            return
        assert np.all(np.isfinite(model.mean)) and np.all(np.isfinite(model.var))
        assert np.all(model.var > 0)

    def test_temperature_that_scales_past_the_float_range_raises(self):
        model = GaussianNB(log_prior=np.zeros(9), mean=np.zeros((9, 12)),
                           var=np.ones((9, 12)), temperature=0.05)
        Q = np.full((2, 12), 3e153)
        Q[0] = 1e153
        assert np.all(np.isfinite(model.log_joint(Q)))
        assert np.all(np.isfinite(model.posterior(Q[:1])))
        assert np.all(np.isfinite(replace(model, temperature=1.0).posterior(Q)))
        with pytest.raises(ModelError, match="feature row 1 ") as info:
            model.posterior(Q)
        assert info.value.row == 1

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=12, max_size=12), min_size=1, max_size=4),
           calibrated=st.booleans())
    def test_posterior_of_finite_features_is_finite_or_refused(self, rows, calibrated):
        try:
            model = CALIBRATED if calibrated else replace(CALIBRATED, temperature=1.0)
            post = model.posterior(np.array(rows))
        except ModelError as exc:
            assert exc.row is not None and 0 <= exc.row < len(rows)
            return
        assert np.all(np.isfinite(post))
        assert np.all(np.abs(post.sum(axis=1) - 1.0) <= 1e-12)


class TestTemperature:
    def test_never_changes_argmax(self):
        rng = np.random.default_rng(11)
        X, y = make_training_set(rng, n=160)
        model = fit(X, y)
        base = model.predict(X)
        for t in (0.05, 0.3, 1.0, 4.0, 20.0):
            hot = GaussianNB(log_prior=model.log_prior, mean=model.mean,
                             var=model.var, temperature=t)
            np.testing.assert_array_equal(hot.predict(X), base)
            # calibrated posterior argmax agrees too
            np.testing.assert_array_equal(
                hot.posterior(X).argmax(axis=1) + 1, base)

    def test_fitted_temperature_in_bounds(self):
        rng = np.random.default_rng(12)
        X, y = make_training_set(rng, n=200)
        model = fit(X[:150], y[:150])
        calibrated = fit_temperature(model, X[150:], y[150:])
        assert 0.05 <= calibrated.temperature <= 20.0
        # model parameters untouched, only the temperature moved
        np.testing.assert_array_equal(calibrated.mean, model.mean)
        np.testing.assert_array_equal(calibrated.var, model.var)

    def test_improves_or_matches_held_out_nll(self):
        rng = np.random.default_rng(13)
        X, y = make_training_set(rng, n=240)
        model = fit(X[:180], y[:180])
        Xh, yh = X[180:], y[180:]

        def nll(t):
            m = GaussianNB(log_prior=model.log_prior, mean=model.mean,
                           var=model.var, temperature=t)
            p = m.posterior(Xh)
            return -np.mean(np.log(p[np.arange(len(yh)), yh - 1] + 1e-300))

        t = fit_temperature(model, Xh, yh).temperature
        # the optimum beats the endpoints and the uncalibrated default
        assert nll(t) <= nll(1.0) + 1e-6
        assert nll(t) <= nll(0.05) + 1e-6
        assert nll(t) <= nll(20.0) + 1e-6

    def test_golden_section_matches_grid_search(self):
        rng = np.random.default_rng(14)
        X, y = make_training_set(rng, n=240)
        model = fit(X[:180], y[:180])
        Xh, yh = X[180:], y[180:]
        t = fit_temperature(model, Xh, yh).temperature

        def nll(tt):
            m = GaussianNB(log_prior=model.log_prior, mean=model.mean,
                           var=model.var, temperature=tt)
            p = m.posterior(Xh)
            return -np.mean(np.log(p[np.arange(len(yh)), yh - 1] + 1e-300))

        grid = np.linspace(0.05, 20.0, 4000)
        best = grid[np.argmin([nll(tt) for tt in grid])]
        assert nll(t) <= nll(best) + 1e-6

    def test_fitted_temperature_is_pinned(self):
        X, y = make_training_set(np.random.default_rng(14))
        calibrated = fit_temperature(fit(X[:80], y[:80]), X[80:], y[80:])
        # an interior optimum, pinned to the bit: model.json stores this float
        assert calibrated.temperature == float.fromhex("0x1.74a5a83bd8d4cp+3")

    def test_held_out_level_absent_from_model_rejected(self):
        rng = np.random.default_rng(15)
        X, y = make_training_set(rng, levels=(1, 2))
        model = fit(X, y)
        with pytest.raises(ModelError):
            fit_temperature(model, X[:4], np.array([5, 5, 5, 5]))


class TestConfidenceFilter:
    def test_keeps_exact_count(self):
        conf = np.random.default_rng(16).uniform(size=100)
        kept = confidence_filter(conf)
        assert len(kept) == 75

    def test_drops_lowest(self):
        conf = np.array([0.9, 0.1, 0.5, 0.3, 0.7, 0.6, 0.2, 0.8, 0.4, 0.95, 0.05])
        kept = confidence_filter(conf)
        # floor(0.25 * 11) = 2 dropped: indices 10 and 1
        assert CONFIDENCE_DROP_FRACTION == 0.25
        assert list(kept) == [0, 2, 3, 4, 5, 6, 7, 8, 9]

    def test_order_preserved(self):
        conf = np.array([0.5, 0.9, 0.1, 0.7, 0.3, 0.8, 0.2, 0.6])
        kept = confidence_filter(conf)
        assert list(kept) == sorted(kept) and len(kept) == 6

    def test_ties_drop_later_indices_first(self):
        # floor(0.25 * 9) = 2: of the three tied lowest, the first stays
        conf = np.array([0.2, 0.5, 0.2, 0.9, 0.2, 0.7, 0.8, 0.6, 0.4])
        kept = confidence_filter(conf)
        assert list(kept) == [0, 1, 3, 5, 6, 7, 8]

    def test_zero_drop_keeps_all(self):
        # floor(0.25 * 3) = 0: a pool under four loses nothing
        conf = np.array([0.2, 0.8, 0.1])
        assert list(confidence_filter(conf)) == [0, 1, 2]


class TestProxyAndQuantiles:
    def test_proxy_linear(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        pa = difficulty_proxy(a[None])[0]
        pb = difficulty_proxy(b[None])[0]
        pab = difficulty_proxy((a + b)[None])[0]
        assert pab == pytest.approx(pa + pb, rel=1e-12)

    def test_proxy_direction(self):
        # denser, wider, more chordal playing must score harder
        easy = np.zeros(12)
        hard = np.zeros(12)
        easy[0], hard[0] = 1.0, 4.0       # rh density
        easy[6], hard[6] = 0.0, 0.6       # rh chord rate
        easy[11], hard[11] = 0.0, 9.0     # hand span
        assert difficulty_proxy(hard[None])[0] > difficulty_proxy(easy[None])[0]

    def test_slow_music_scores_easier(self):
        base = np.ones(12)
        slow = base.copy()
        slow[10] = 4.0   # mean inter-onset time up, difficulty down
        assert difficulty_proxy(slow[None])[0] < difficulty_proxy(base[None])[0]

    def test_quantile_levels_cover_range(self):
        scores = np.arange(90, dtype=float)
        levels = quantile_levels(scores)
        assert levels.min() == 1 and levels.max() == 9
        assert len(np.unique(levels)) == 9
        # monotone: a higher proxy score never maps to a lower level
        order = np.argsort(scores)
        assert np.all(np.diff(levels[order]) >= 0)

    def test_quantile_levels_small_n(self):
        # k = n // 2 bins, capped at 9, floored at 1
        assert list(quantile_levels(np.array([3.0]))) == [1]
        assert list(quantile_levels(np.array([5.0, 1.0]))) == [1, 1]
        four = quantile_levels(np.array([1.0, 2.0, 3.0, 4.0]))
        assert list(four) == [1, 1, 9, 9]
        six = quantile_levels(np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0]))
        assert list(six) == [9, 9, 5, 5, 1, 1]

    def test_quantile_bin_sizes_balanced(self):
        levels = quantile_levels(np.random.default_rng(18).normal(size=100))
        _, counts = np.unique(levels, return_counts=True)
        assert counts.max() - counts.min() <= 1


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        X, y = make_training_set(rng, levels=(1, 4, 7))
        model = fit(X, y)
        model = GaussianNB(log_prior=model.log_prior, mean=model.mean,
                           var=model.var, temperature=2.5)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        np.testing.assert_array_equal(loaded.log_prior, model.log_prior)
        np.testing.assert_array_equal(loaded.mean, model.mean)
        np.testing.assert_array_equal(loaded.var, model.var)
        assert loaded.temperature == 2.5
        # absent classes keep their -inf priors through JSON
        assert np.isinf(loaded.log_prior[1])

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ModelError):
            load_model(str(path))


MALFORMED_MODELS = {   # name -> model file text made from a good model's payload
    "list": lambda p: "[1]",
    "no log_prior": lambda p: json.dumps({k: v for k, v in p.items() if k != "log_prior"}),
    "scalar log_prior": lambda p: json.dumps({**p, "log_prior": 3}),
    "text mean": lambda p: json.dumps({**p, "mean": [["x"] * 12] * 9}),
    "text temperature": lambda p: json.dumps({**p, "temperature": "hot"}),
    "numeric-string temperature": lambda p: json.dumps({**p, "temperature": "2.5"}),
    "boolean temperature": lambda p: json.dumps({**p, "temperature": True}),
    "string log_prior": lambda p: json.dumps({**p, "log_prior": [
        None if v is None else str(v) for v in p["log_prior"]]}),
    "boolean mean": lambda p: json.dumps({**p, "mean": [[True] * 12] * 9}),
    "ragged var": lambda p: json.dumps({**p, "var": p["var"][:8] + [p["var"][8][:11]]}),
    "zero var": lambda p: json.dumps({**p, "var": [[0.0] + p["var"][0][1:]] + p["var"][1:]}),
    "negative var": lambda p: json.dumps({**p, "var": [[-1.0] + p["var"][0][1:]] + p["var"][1:]}),
    "eight-level mean": lambda p: json.dumps({**p, "mean": p["mean"][:8]}),
    "truncated": lambda p: json.dumps(p)[:40],
}


@pytest.mark.parametrize("malform", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys())
def test_malformed_model_raises_model_error(tmp_path, malform):
    rng = np.random.default_rng(19)
    X, y = make_training_set(rng, levels=(1, 4, 7))
    path = tmp_path / "model.json"
    save_model(fit(X, y), str(path))
    path.write_text(malform(json.loads(path.read_text())))
    with pytest.raises(ModelError, match=r"model\.json"):
        load_model(str(path))


def _with_entry(field, value):
    """A malform that puts ``value`` in the first entry of ``field`` of a class
    present in training (level 1 is class 0)."""
    def malform(p):
        data = json.loads(json.dumps(p))
        if field == "log_prior":
            data[field][0] = value
        else:
            data[field][0][3] = value
        return json.dumps(data)
    return malform


NON_FINITE_MODELS = {
    "nan mean": _with_entry("mean", float("nan")),
    "inf mean": _with_entry("mean", float("inf")),
    "nan var": _with_entry("var", float("nan")),
    "inf var": _with_entry("var", float("inf")),
    "nan log_prior": _with_entry("log_prior", float("nan")),
    "minus-inf log_prior": _with_entry("log_prior", float("-inf")),
}


@pytest.mark.parametrize("malform", NON_FINITE_MODELS.values(), ids=NON_FINITE_MODELS.keys())
def test_non_finite_model_raises_model_error(tmp_path, malform):
    rng = np.random.default_rng(19)
    X, y = make_training_set(rng, levels=(1, 4, 7))
    path = tmp_path / "model.json"
    save_model(fit(X, y), str(path))
    payload = json.loads(path.read_text())
    assert payload["log_prior"][0] is not None and payload["log_prior"][1] is None
    path.write_text(malform(payload))
    with pytest.raises(ModelError, match=r"model\.json: field '(mean|var|log_prior)' must be a "
                                         r"list of .*finite numbers"):
        load_model(str(path))
