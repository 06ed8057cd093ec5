"""Tests for the OtterTune pipeline stages and tuner."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.ottertune import lasso as lasso_module
from repro.baselines.ottertune.ei import expected_improvement
from repro.baselines.ottertune.gp import GaussianProcessRegressor, rbf_kernel
from repro.baselines.ottertune.lasso import (
    lasso_coordinate_descent,
    rank_knobs,
)
from repro.baselines.ottertune.mapping import WorkloadRepository
from repro.baselines.ottertune.tuner import OtterTune
from repro.factory import make_env
from repro.sim.faults import FAILURE_PERF_FACTOR
from repro.telemetry import profiling


class TestRbfKernel:
    def test_diagonal_is_variance(self, rng):
        x = rng.normal(size=(5, 3))
        k = rbf_kernel(x, x, length_scale=1.0, variance=2.0)
        np.testing.assert_allclose(np.diag(k), 2.0)

    def test_symmetry_and_psd(self, rng):
        x = rng.normal(size=(6, 3))
        k = rbf_kernel(x, x, 1.0, 1.0)
        np.testing.assert_allclose(k, k.T)
        eig = np.linalg.eigvalsh(k)
        assert eig.min() > -1e-10

    def test_decay_with_distance(self):
        a = np.zeros((1, 2))
        near = np.array([[0.1, 0.0]])
        far = np.array([[3.0, 0.0]])
        assert rbf_kernel(a, near, 1.0, 1.0) > rbf_kernel(a, far, 1.0, 1.0)

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.zeros((1, 2)), np.zeros((1, 2)), 0.0, 1.0)


class TestGaussianProcess:
    def test_interpolates_training_points(self, rng):
        x = rng.uniform(0, 1, (20, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1]
        gp = GaussianProcessRegressor(noise_variance=1e-6).fit(x, y)
        pred = gp.predict(x)
        np.testing.assert_allclose(pred, y, atol=1e-2)

    def test_uncertainty_grows_off_data(self, rng):
        x = rng.uniform(0, 0.3, (15, 2))
        y = x.sum(axis=1)
        gp = GaussianProcessRegressor().fit(x, y)
        _, std_near = gp.predict(np.array([[0.15, 0.15]]), return_std=True)
        _, std_far = gp.predict(np.array([[0.95, 0.95]]), return_std=True)
        assert std_far[0] > std_near[0]

    def test_generalizes_smooth_function(self, rng):
        x = rng.uniform(0, 1, (60, 1))
        y = np.sin(4 * x[:, 0])
        gp = GaussianProcessRegressor(length_scale=0.4).fit(x, y)
        xt = np.linspace(0.1, 0.9, 10)[:, None]
        pred = gp.predict(xt)
        np.testing.assert_allclose(pred, np.sin(4 * xt[:, 0]), atol=0.25)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().predict(np.zeros((1, 2)))

    def test_fit_validation(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((0, 2)), np.zeros(0))

    def test_1d_query_promoted(self, rng):
        gp = GaussianProcessRegressor().fit(
            rng.uniform(0, 1, (5, 2)), rng.normal(size=5)
        )
        assert gp.predict(np.zeros(2)).shape == (1,)


class TestExpectedImprovement:
    def test_zero_when_mean_worse_and_certain(self):
        ei = expected_improvement(np.array([10.0]), np.array([0.0]), best_y=5.0)
        assert ei[0] == 0.0

    def test_positive_when_mean_better(self):
        ei = expected_improvement(np.array([3.0]), np.array([0.0]), best_y=5.0)
        assert ei[0] == pytest.approx(2.0)

    def test_uncertainty_creates_hope(self):
        certain = expected_improvement(np.array([6.0]), np.array([0.0]), 5.0)
        uncertain = expected_improvement(np.array([6.0]), np.array([2.0]), 5.0)
        assert uncertain[0] > certain[0] == 0.0

    def test_vectorized(self):
        ei = expected_improvement(
            np.array([1.0, 9.0]), np.array([1.0, 1.0]), 5.0
        )
        assert ei.shape == (2,)
        assert ei[0] > ei[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_improvement(np.zeros(2), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            expected_improvement(np.zeros(1), np.array([-1.0]), 0.0)


class TestLasso:
    def test_recovers_sparse_signal(self, rng):
        n, d = 200, 10
        x = rng.normal(size=(n, d))
        y = 3.0 * x[:, 2] - 2.0 * x[:, 7] + 0.05 * rng.normal(size=n)
        w = lasso_coordinate_descent(x, y - y.mean(), alpha=0.1)
        assert abs(w[2]) > 1.0 and abs(w[7]) > 1.0
        others = np.delete(np.abs(w), [2, 7])
        assert others.max() < 0.2

    def test_large_alpha_kills_everything(self, rng):
        x = rng.normal(size=(50, 5))
        y = x[:, 0]
        w = lasso_coordinate_descent(x, y, alpha=100.0)
        np.testing.assert_array_equal(w, 0.0)

    def test_negative_alpha_rejected(self, rng):
        with pytest.raises(ValueError):
            lasso_coordinate_descent(np.zeros((2, 2)), np.zeros(2), -1.0)

    def test_rank_knobs_orders_by_importance(self, rng):
        n, d = 300, 8
        x = rng.uniform(0, 1, (n, d))
        y = 10.0 * x[:, 3] + 2.0 * x[:, 5] + 0.1 * rng.normal(size=n)
        order = rank_knobs(x, y)
        assert order[0] == 3
        assert order.index(5) < 4
        assert sorted(order) == list(range(d))

    def test_rank_knobs_constant_target(self, rng):
        x = rng.uniform(0, 1, (20, 4))
        order = rank_knobs(x, np.ones(20))
        assert sorted(order) == list(range(4))


# ------------------------------------------- exactness of the fast Lasso


def _reference_lasso(x, y, alpha, max_iter=500, tol=1e-6):
    """The array-form coordinate descent the fast solver must reproduce."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = x.shape
    if y.shape[0] != n:
        raise ValueError("x and y must align")
    w = np.zeros(d)
    # Precompute column norms; residual maintained incrementally.
    col_sq = (x**2).sum(axis=0) / n
    residual = y.copy()
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] <= 1e-15:
                continue
            w_j_old = w[j]
            rho = (x[:, j] @ residual) / n + col_sq[j] * w_j_old
            # Soft thresholding.
            w_new = np.sign(rho) * max(abs(rho) - alpha, 0.0) / col_sq[j]
            if w_new != w_j_old:
                residual += x[:, j] * (w_j_old - w_new)
                w[j] = w_new
                max_delta = max(max_delta, abs(w_new - w_j_old))
        if max_delta < tol:
            break
    return w


def _reference_rank_knobs(x, y, n_alphas=20):
    """``rank_knobs`` over the whole alpha path, with the reference solver."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = x.shape
    mu, sd = x.mean(axis=0), x.std(axis=0)
    sd = np.where(sd > 1e-12, sd, 1.0)
    xs = (x - mu) / sd
    yc = y - y.mean()

    alpha_max = float(np.abs(xs.T @ yc).max() / n)
    if alpha_max <= 0:
        return list(range(d))
    alphas = np.geomspace(alpha_max, alpha_max * 1e-3, n_alphas)

    entry_alpha = np.full(d, -1.0)
    entry_coef = np.zeros(d)
    for a in alphas:
        w = _reference_lasso(xs, yc, a)
        newly = (np.abs(w) > 1e-10) & (entry_alpha < 0)
        entry_alpha[newly] = a
        entry_coef[newly] = np.abs(w[newly])

    corr = np.abs(xs.T @ yc) / n
    order = sorted(
        range(d),
        key=lambda j: (
            -entry_alpha[j] if entry_alpha[j] > 0 else 0.0,
            -entry_coef[j],
            -corr[j],
        ),
    )
    entered = [j for j in order if entry_alpha[j] > 0]
    never = [j for j in order if entry_alpha[j] <= 0]
    never.sort(key=lambda j: -corr[j])
    return entered + never


def _standardize(x, y):
    sd = x.std(axis=0)
    return (x - x.mean(axis=0)) / np.where(sd > 1e-12, sd, 1.0), y - y.mean()


@st.composite
def _regression(draw, max_n=120, max_d=40):
    """A seeded regression problem: mixed column scales, some constant
    (zero-variance) columns, a sparse signal plus noise."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 30.0], size=d)
    n_const = draw(st.integers(0, d))
    const = rng.choice(d, size=n_const, replace=False)
    x[:, const] = draw(st.sampled_from([0.0, 2.5]))
    coef = rng.normal(size=d) * (rng.random(d) < 0.4)
    y = x @ coef + rng.normal(scale=draw(st.sampled_from([0.0, 0.1, 5.0])),
                              size=n)
    return x, y


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


class TestFastLassoExactness:
    @given(
        problem=_regression(),
        standardized=st.booleans(),
        alpha_kind=st.sampled_from(["zero", "tiny", "path", "max", "above"]),
        frac=st.floats(1e-3, 1.0),
        max_iter=st.sampled_from([1, 2, 500]),
    )
    @settings(max_examples=80, deadline=None)
    @pytest.mark.determinism
    def test_fast_solver_equals_reference_bytes(
        self, problem, standardized, alpha_kind, frac, max_iter
    ):
        x, y = problem
        x, y = _standardize(x, y) if standardized else (x, y - y.mean())
        alpha_max = float(np.abs(x.T @ y).max() / x.shape[0])
        alpha = {
            "zero": 0.0,
            "tiny": 1e-12,
            "path": alpha_max * frac,
            "max": alpha_max,
            "above": alpha_max * 2.0 + 1.0,
        }[alpha_kind]
        fast = lasso_coordinate_descent(x, y, alpha, max_iter=max_iter)
        ref = _reference_lasso(x, y, alpha, max_iter=max_iter)
        assert _same_bits(fast, ref)

    def test_signed_zero_reproduced(self):
        # Two nearly collinear columns: coefficients enter, then shrink
        # back to exactly zero from the negative side, where the array
        # form stores -0.0.  The fast solver must store the same zeros.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 3))
        x[:, 1] = x[:, 0] + 1e-3 * rng.normal(size=6)
        y = rng.normal(size=6)
        ref = _reference_lasso(x, y - y.mean(), 0.05)
        assert np.signbit(ref[0]) and ref[0] == 0.0
        assert _same_bits(lasso_coordinate_descent(x, y - y.mean(), 0.05),
                          ref)

    @given(problem=_regression(max_n=40, max_d=12), where=st.floats(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_nan_in_target_propagates_like_reference(self, problem, where):
        x, y = problem
        y = y - y.mean()
        y[int(where * (len(y) - 1))] = np.nan
        fast = lasso_coordinate_descent(x, y, 0.01)
        ref = _reference_lasso(x, y, 0.01)
        nan = np.isnan(ref)
        np.testing.assert_array_equal(np.isnan(fast), nan)
        assert _same_bits(fast[~nan], ref[~nan])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            lasso_coordinate_descent(np.zeros((0, 3)), np.zeros(0), 0.1)

    @given(problem=_regression(max_n=80, max_d=24),
           n_alphas=st.sampled_from([3, 20]))
    @settings(max_examples=25, deadline=None)
    @pytest.mark.determinism
    def test_rank_knobs_equals_full_path(self, problem, n_alphas):
        x, y = problem
        assert rank_knobs(x, y, n_alphas) == _reference_rank_knobs(
            x, y, n_alphas
        )

    def test_path_ends_once_every_feature_entered(self, monkeypatch):
        solves = []
        real = lasso_module.lasso_coordinate_descent

        def counting(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(lasso_module, "lasso_coordinate_descent", counting)
        for seed in range(5):
            # Dense signals: every knob enters before the path's end, and
            # the last few enter in an order their correlations do not
            # give, so ending too early would reorder them.
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 1, (40, 6))
            y = x @ rng.normal(size=6) + 0.1 * rng.normal(size=40)
            solves.clear()
            assert rank_knobs(x, y) == _reference_rank_knobs(x, y)
            assert 0 < len(solves) < 20

    def test_rank_knobs_with_features_that_never_enter(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (50, 8))
        x[:, [2, 5]] = 1.0  # constant: never enter the path
        y = 3.0 * x[:, 0] - x[:, 7] + 0.01 * rng.normal(size=50)
        order = rank_knobs(x, y)
        assert order == _reference_rank_knobs(x, y)
        assert set(order[-2:]) == {2, 5}


class TestWorkloadRepository:
    def test_observe_and_get(self):
        repo = WorkloadRepository()
        repo.observe("w1", np.zeros(3), np.zeros(2), 10.0)
        assert "w1" in repo
        assert len(repo.get("w1")) == 1
        with pytest.raises(KeyError):
            repo.get("nope")

    def test_rejects_nonpositive_perf(self):
        repo = WorkloadRepository()
        with pytest.raises(ValueError):
            repo.observe("w", np.zeros(2), np.zeros(2), 0.0)

    def test_mapping_picks_similar_workload(self, rng):
        repo = WorkloadRepository()
        # workload A: metrics ~ config; workload B: metrics ~ 1 - config
        for _ in range(30):
            c = rng.uniform(0, 1, 3)
            repo.observe("A", c, c.copy(), 10.0)
            repo.observe("B", c, 1.0 - c, 10.0)
        target_c = rng.uniform(0, 1, (10, 3))
        assert repo.map_workload(target_c, target_c) == "A"
        assert repo.map_workload(target_c, 1.0 - target_c) == "B"

    def test_mapping_no_target_data_uses_largest(self, rng):
        repo = WorkloadRepository()
        repo.observe("small", np.zeros(2), np.zeros(2), 1.0)
        for _ in range(5):
            repo.observe("big", rng.uniform(0, 1, 2), np.zeros(2), 1.0)
        assert (
            repo.map_workload(np.zeros((0, 2)), np.zeros((0, 2))) == "big"
        )

    def test_mapping_empty_repo(self):
        repo = WorkloadRepository()
        assert repo.map_workload(np.zeros((1, 2)), np.zeros((1, 2))) is None

    def test_exclude(self, rng):
        repo = WorkloadRepository()
        repo.observe("only", np.zeros(2), np.zeros(2), 1.0)
        assert (
            repo.map_workload(
                np.zeros((1, 2)), np.zeros((1, 2)), exclude="only"
            )
            is None
        )


class TestOtterTuneTuner:
    def test_requires_offline_data(self):
        env = make_env("TS", "D1", seed=0)
        ot = OtterTune.from_env(env, seed=0)
        with pytest.raises(RuntimeError):
            ot.tune_online(env, steps=1)

    def test_end_to_end_session(self):
        env = make_env("TS", "D1", seed=0)
        ot = OtterTune.from_env(env, seed=0, n_candidates=100,
                                max_train_points=80)
        ot.collect_offline(env, "TS-D1", 60)
        s = ot.tune_online(make_env("TS", "D1", seed=9), steps=3)
        assert s.n_steps == 3
        assert s.tuner == "OtterTune"
        assert s.recommendation_seconds > 0

    def test_improves_over_random_median(self):
        env = make_env("TS", "D1", seed=1)
        ot = OtterTune.from_env(env, seed=1)
        ot.collect_offline(env, "TS-D1", 150)
        s = ot.tune_online(make_env("TS", "D1", seed=5), steps=5)
        # GP+EI should find something much better than the default
        assert s.best_duration_s < s.default_duration_s

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            OtterTune(action_dim=0)
        with pytest.raises(ValueError):
            OtterTune(action_dim=4, n_candidates=0)

    def test_collect_offline_validation(self):
        env = make_env("TS", "D1", seed=0)
        ot = OtterTune.from_env(env)
        with pytest.raises(ValueError):
            ot.collect_offline(env, "x", 0)

    @pytest.mark.determinism
    @pytest.mark.parametrize("fault_profile", [None, "flaky"])
    def test_batched_collect_equals_per_sample_loop(self, fault_profile):
        def per_sample(tuner, env, workload_id, samples):
            for _ in range(samples):
                action = env.space.sample_vector(tuner._rng)
                outcome = env.step(action)
                perf = (
                    outcome.duration_s
                    if outcome.success
                    else FAILURE_PERF_FACTOR * env.default_duration
                )
                tuner.observe_offline(
                    workload_id, outcome.action, outcome.next_state, perf
                )

        def snapshot(collect):
            tuner = OtterTune(action_dim=32, seed=5)
            envs = [
                make_env(code, "D1", seed=11, fault_profile=fault_profile)
                for code in ("TS", "KM")
            ]
            for env in envs:
                collect(tuner, env, f"{env.runner.workload.code}-D1", 40)
            return (
                [(e.steps_taken, e.total_evaluation_seconds,
                  e.observation.tobytes()) for e in envs],
                [arr.tobytes() for wid in tuner.repository.workloads()
                 for arr in tuner.repository.get(wid).arrays()],
                tuner._rng.bit_generator.state,
            )

        assert snapshot(OtterTune.collect_offline) == snapshot(per_sample)

    def test_recommendation_phases_cover_recommendation_time(self):
        env = make_env("TS", "D1", seed=0)
        ot = OtterTune.from_env(env, seed=0, n_candidates=200,
                                max_train_points=80)
        ot.collect_offline(env, "TS-D1", 60)
        profiler = profiling.Profiler()
        profiling.activate(profiler)
        try:
            session = ot.tune_online(make_env("TS", "D1", seed=9), steps=3)
        finally:
            profiling.deactivate()
        stats = profiler.stats()
        phases = ("ottertune.map", "ottertune.rank", "ottertune.gp",
                  "ottertune.ei")
        assert all(stats[p]["calls"] == 3 for p in phases)
        covered = sum(stats[p]["total_s"] for p in phases)
        assert covered >= 0.9 * session.recommendation_seconds
