"""Tests for the incremental GP path and the shared-Cholesky model bank.

Also home of the per-model oracle: scoring a plain list of per-objective
:class:`GaussianProcess` models one by one, and drawing bank samples one
factorisation per draw.  ``src/`` scores only through :class:`GPBank`; the
bank's shared-factor paths are checked against these references here, in
``test_optim_epdc.py``, in ``test_optim_acquisition_scalarization.py`` and in
``benchmarks/bench_gp_hotpath.py``.
"""

import numpy as np
import pytest

from repro.optim.acquisition import lcb_scores, mean_scores, thompson_scores
from repro.optim.epdc import DEFAULT_EPDC_SAMPLES, pareto_distance_contributions
from repro.optim.gp import (
    DEFAULT_JITTER,
    GaussianProcess,
    escalating_cholesky,
    triangular_solve,
)
from repro.optim.gp_bank import GPBank
from repro.optim.kernels import Matern52Kernel, RBFKernel
from repro.utils.rng import ensure_rng


# ---------------------------------------------------------------------- oracle


def per_model_predict(models, Xs):
    """``(n, k)`` posterior means and stds, one model at a time."""
    columns = [model.predict(Xs, return_std=True) for model in models]
    return (
        np.column_stack([mean for mean, _ in columns]),
        np.column_stack([std for _, std in columns]),
    )


def per_model_thompson_scores(models, Xs, rng=None):
    """One joint posterior draw per model, each from its own factorisation."""
    rng = ensure_rng(rng)
    return np.column_stack(
        [model.sample_posterior(Xs, rng=rng, num_samples=1)[0] for model in models]
    )


def per_model_lcb_scores(models, Xs, beta=2.0):
    mean, std = per_model_predict(models, Xs)
    return mean - beta * std


def per_model_mean_scores(models, Xs):
    return per_model_predict(models, Xs)[0]


def per_model_epdc_scores(models, Xs, front, rng=None, num_samples=DEFAULT_EPDC_SAMPLES):
    """EPDC from ``num_samples`` separate per-model Thompson draws."""
    rng = ensure_rng(rng)
    total = np.zeros(np.atleast_2d(Xs).shape[0])
    for _ in range(num_samples):
        sample = per_model_thompson_scores(models, Xs, rng=rng)
        total += pareto_distance_contributions(sample, front)
    return total / float(num_samples)


def per_draw_thompson_matrix(bank, Xs, rng):
    """One ``(n, k)`` bank draw that refactors the posterior for itself.

    The bank's single-draw arithmetic before one factor served several
    draws: ``S`` calls of this on one generator are what
    :meth:`GPBank.thompson_draws` must reproduce bit for bit.
    """
    Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
    if not bank.homogeneous:
        return per_model_thompson_scores(bank.models, Xs, rng=rng)
    leader = bank.models[0]
    Ks = leader.kernel(leader._X, Xs)
    v = triangular_solve(leader._chol, Ks)
    cov = leader.kernel(Xs, Xs) - v.T @ v
    cov[np.diag_indices_from(cov)] = np.maximum(np.diag(cov), 1e-12)
    cov[np.diag_indices_from(cov)] += DEFAULT_JITTER
    chol = escalating_cholesky(cov, health=bank.health, site="thompson")
    columns = []
    for model in bank.models:
        mean = Ks.T @ model._alpha * model._y_std + model._y_mean
        normals = rng.standard_normal((1, Xs.shape[0]))
        columns.append(mean + (normals @ chol.T)[0] * model._y_std)
    return np.column_stack(columns)


# ---------------------------------------------------------------------- tests


def _stream(rng, n, d=3):
    X = rng.uniform(size=(n, d))
    y = np.sin(3 * X[:, 0]) + 0.5 * X[:, 1] ** 2 - X[:, 2]
    return X, y


class TestTriangularSolve:
    def test_matches_generic_solver(self, rng):
        A = rng.uniform(size=(6, 6))
        L = np.linalg.cholesky(A @ A.T + 6 * np.eye(6))
        b = rng.uniform(size=6)
        B = rng.uniform(size=(6, 4))
        assert np.allclose(triangular_solve(L, b), np.linalg.solve(L, b))
        assert np.allclose(triangular_solve(L, B), np.linalg.solve(L, B))
        assert np.allclose(triangular_solve(L, b, trans=True), np.linalg.solve(L.T, b))


class TestGaussianProcessExtend:
    @pytest.mark.parametrize("kernel_cls", [Matern52Kernel, RBFKernel])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_extend_equals_full_refit_over_random_streams(self, kernel_cls, seed):
        """Property: growing one-by-one ≡ one cold fit, to 1e-8, at every step."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        X, y = _stream(rng, 40, d=d)
        probe = rng.uniform(size=(25, d))

        incremental = GaussianProcess(kernel=kernel_cls(lengthscale=0.4))
        incremental.fit(X[:5], y[:5])
        for i in range(5, 40):
            incremental.extend(X[i : i + 1], y[i : i + 1])
            exact = GaussianProcess(kernel=kernel_cls(lengthscale=0.4))
            exact.fit(X[: i + 1], y[: i + 1])
            mean_inc, std_inc = incremental.predict(probe)
            mean_ref, std_ref = exact.predict(probe)
            assert np.allclose(mean_inc, mean_ref, atol=1e-8)
            assert np.allclose(std_inc, std_ref, atol=1e-8)
            assert np.isclose(
                incremental.log_marginal_likelihood(),
                exact.log_marginal_likelihood(),
                atol=1e-7,
            )

    def test_block_extend_matches_row_by_row(self, rng):
        X, y = _stream(rng, 30)
        probe = rng.uniform(size=(10, 3))
        block = GaussianProcess().fit(X[:10], y[:10]).extend(X[10:], y[10:])
        single = GaussianProcess().fit(X[:10], y[:10])
        for i in range(10, 30):
            single.extend(X[i : i + 1], y[i : i + 1])
        for a, b in zip(block.predict(probe), single.predict(probe)):
            assert np.allclose(a, b, atol=1e-10)

    def test_extend_on_unfitted_model_fits(self, rng):
        X, y = _stream(rng, 8)
        gp = GaussianProcess().extend(X, y)
        assert gp.is_fitted and gp.num_observations == 8

    def test_exact_refit_mode(self, rng):
        X, y = _stream(rng, 20)
        probe = rng.uniform(size=(7, 3))
        fallback = GaussianProcess(update_mode="exact-refit")
        fallback.fit(X[:10], y[:10]).extend(X[10:], y[10:])
        exact = GaussianProcess().fit(X, y)
        for a, b in zip(fallback.predict(probe), exact.predict(probe)):
            assert np.array_equal(a, b)  # literally the same code path

    def test_update_mode_validated(self):
        with pytest.raises(ValueError):
            GaussianProcess(update_mode="sometimes")

    def test_extend_validates_shapes(self, rng):
        X, y = _stream(rng, 10)
        gp = GaussianProcess().fit(X, y)
        with pytest.raises(ValueError):
            gp.extend(np.zeros((2, 5)), np.zeros(2))
        with pytest.raises(ValueError):
            gp.extend(np.zeros((2, 3)), np.zeros(3))
        assert gp.extend(np.zeros((0, 3)), np.zeros(0)) is gp

    def test_set_targets_recomputes_posterior(self, rng):
        X, y = _stream(rng, 15)
        gp = GaussianProcess().fit(X, y)
        other = 2.0 * y + 1.0
        gp.set_targets(other)
        exact = GaussianProcess().fit(X, other)
        probe = rng.uniform(size=(6, 3))
        for a, b in zip(gp.predict(probe), exact.predict(probe)):
            assert np.allclose(a, b, atol=1e-10)
        with pytest.raises(ValueError):
            gp.set_targets(np.zeros(3))

    def test_lengthscale_refresh_after_extend(self, rng):
        """The grid search still works on a model grown incrementally."""
        X, y = _stream(rng, 30)
        gp = GaussianProcess(kernel=Matern52Kernel(lengthscale=0.05))
        gp.fit(X[:20], y[:20]).extend(X[20:], y[20:])
        before = gp.log_marginal_likelihood()
        gp.optimize_lengthscale(candidates=(0.05, 0.3, 0.8))
        assert gp.log_marginal_likelihood() >= before


class TestGPBank:
    def _bank_and_models(self, rng, n=25, k=3, mode="incremental"):
        d = 4
        X = rng.uniform(size=(n, d))
        Y = np.column_stack(
            [np.sin((j + 1) * X[:, 0]) + X[:, min(j, d - 1)] for j in range(k)]
        )
        bank = GPBank(k, kernel=Matern52Kernel(lengthscale=0.5), update_mode=mode)
        bank.fit(X, Y)
        reference = [
            GaussianProcess(kernel=Matern52Kernel(lengthscale=0.5)).fit(X, Y[:, j])
            for j in range(k)
        ]
        return bank, reference, X, Y

    def test_predict_matches_individual_models(self, rng):
        bank, reference, X, _ = self._bank_and_models(rng)
        probe = rng.uniform(size=(12, X.shape[1]))
        mean, std = bank.predict(probe)
        assert mean.shape == std.shape == (12, 3)
        for j, model in enumerate(reference):
            mean_ref, std_ref = model.predict(probe)
            assert np.allclose(mean[:, j], mean_ref, atol=1e-10)
            assert np.allclose(std[:, j], std_ref, atol=1e-10)

    def test_thompson_matches_individual_models_for_same_stream(self, rng):
        bank, reference, X, _ = self._bank_and_models(rng)
        probe = rng.uniform(size=(20, X.shape[1]))
        fast = thompson_scores(bank, probe, rng=np.random.default_rng(5))
        slow = per_model_thompson_scores(reference, probe, rng=np.random.default_rng(5))
        assert fast.shape == slow.shape == (20, 3)
        assert np.allclose(fast, slow, atol=1e-7)

    def test_lcb_and_mean_scores_bank_path(self, rng):
        bank, reference, X, _ = self._bank_and_models(rng)
        probe = rng.uniform(size=(9, X.shape[1]))
        assert np.allclose(
            lcb_scores(bank, probe, beta=1.5),
            per_model_lcb_scores(reference, probe, beta=1.5),
            atol=1e-10,
        )
        assert np.allclose(
            mean_scores(bank, probe), per_model_mean_scores(reference, probe), atol=1e-10
        )

    def test_incremental_update_matches_cold_bank(self, rng):
        d, k = 4, 2
        X = rng.uniform(size=(30, d))
        Y = rng.uniform(size=(30, k))
        probe = rng.uniform(size=(10, d))
        inc = GPBank(k, kernel=Matern52Kernel(lengthscale=0.5))
        cold = GPBank(k, kernel=Matern52Kernel(lengthscale=0.5), update_mode="exact-refit")
        for n in range(5, 31):
            # Rescale targets every step, like the MOBO loop's re-normalisation.
            target = Y[:n] / Y[:n].max(axis=0)
            inc.update(X[:n], target)
            cold.update(X[:n], target)
            for a, b in zip(inc.predict(probe), cold.predict(probe)):
                assert np.allclose(a, b, atol=1e-8)

    def test_refresh_lengthscales_diverges_and_rehomogenises(self, rng):
        bank, _, X, Y = self._bank_and_models(rng)
        assert bank.homogeneous
        best = bank.refresh_lengthscales(candidates=(0.1, 0.5, 1.0))
        assert len(best) == 3 and not bank.homogeneous
        probe = rng.uniform(size=(8, X.shape[1]))
        mean, std = bank.predict(probe)  # heterogeneous fallback path
        assert mean.shape == (8, 3) and np.all(std > 0)
        scores = thompson_scores(bank, probe, rng=rng)
        assert scores.shape == (8, 3)
        # The next full update resets to the shared base kernel.
        bank.update(X, Y)
        assert bank.homogeneous
        for model in bank.models:
            assert model.kernel.lengthscale == bank.base_kernel.lengthscale

    def test_update_with_different_prefix_refits_instead_of_reusing_factor(self, rng):
        """A same-length X with different rows must not reuse the stale factor."""
        d, k = 3, 2
        X1 = rng.uniform(size=(12, d))
        X2 = rng.uniform(size=(12, d))
        Y = rng.uniform(size=(12, k))
        bank = GPBank(k, kernel=Matern52Kernel(lengthscale=0.5))
        bank.update(X1, Y)
        bank.update(X2, Y)  # violates the extends-contract; must cold-refit
        probe = rng.uniform(size=(6, d))
        fresh = GPBank(k, kernel=Matern52Kernel(lengthscale=0.5)).fit(X2, Y)
        for a, b in zip(bank.predict(probe), fresh.predict(probe)):
            assert np.allclose(a, b, atol=1e-10)

    def test_bank_iterates_like_a_model_sequence(self, rng):
        bank, _, _, _ = self._bank_and_models(rng)
        assert len(bank) == 3
        assert all(isinstance(m, GaussianProcess) for m in bank)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            GPBank(0)
        bank = GPBank(2)
        with pytest.raises(RuntimeError):
            bank.predict(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            bank.set_targets(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            bank.refresh_lengthscales()
        with pytest.raises(ValueError):
            bank.fit(np.zeros((4, 2)), np.zeros((4, 3)))


class TestThompsonDraws:
    """One posterior factor per call serves every draw, in per-draw order."""

    def _bank(self, rng, n=20, k=3, d=3):
        X = rng.uniform(size=(n, d))
        Y = np.column_stack([np.sin((j + 1) * X[:, 0]) + X[:, 1] for j in range(k)])
        return GPBank(k, kernel=Matern52Kernel(lengthscale=0.5)).fit(X, Y), X, Y

    def _assert_matches_per_draw_loop(self, bank, probe, num_samples):
        fast_rng, slow_rng = np.random.default_rng(13), np.random.default_rng(13)
        draws = bank.thompson_draws(probe, rng=fast_rng, num_samples=num_samples)
        reference = np.stack(
            [per_draw_thompson_matrix(bank, probe, slow_rng) for _ in range(num_samples)]
        )
        assert draws.shape == (num_samples, probe.shape[0], bank.num_objectives)
        assert np.array_equal(draws, reference)
        assert fast_rng.random() == slow_rng.random()

    @pytest.mark.parametrize("num_samples", [1, 4, DEFAULT_EPDC_SAMPLES])
    def test_homogeneous_draws_equal_successive_single_draws(self, rng, num_samples):
        bank, X, _ = self._bank(rng)
        probe = rng.uniform(size=(17, X.shape[1]))
        self._assert_matches_per_draw_loop(bank, probe, num_samples)

    @pytest.mark.parametrize("num_samples", [1, DEFAULT_EPDC_SAMPLES])
    def test_heterogeneous_draws_equal_successive_single_draws(self, rng, num_samples):
        bank, X, _ = self._bank(rng)
        bank.refresh_lengthscales(candidates=(0.1, 0.5, 1.0))
        assert not bank.homogeneous
        probe = rng.uniform(size=(11, X.shape[1]))
        self._assert_matches_per_draw_loop(bank, probe, num_samples)

    def test_thompson_scores_are_one_draw(self, rng):
        bank, X, _ = self._bank(rng)
        probe = rng.uniform(size=(9, X.shape[1]))
        assert np.array_equal(
            thompson_scores(bank, probe, rng=np.random.default_rng(2)),
            per_draw_thompson_matrix(bank, probe, np.random.default_rng(2)),
        )

    def test_validation(self, rng):
        with pytest.raises(RuntimeError):
            GPBank(2).thompson_draws(np.zeros((3, 2)))
        bank, X, _ = self._bank(rng)
        with pytest.raises(ValueError):
            bank.thompson_draws(X, num_samples=0)
