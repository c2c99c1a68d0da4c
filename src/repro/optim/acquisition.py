"""Acquisition strategies over a discrete candidate pool.

The architecture search space is finite and discrete, so the maximisation of
the acquisition function (Eq. 7 of the paper) is performed over a sampled
pool of candidate genotypes rather than by continuous optimisation.  Each
strategy scores every pool member per objective; the MOBO loop then
scalarises the per-objective scores and picks the pool member with the best
(lowest) scalarised value.

All objectives are minimised, so *lower scores are better* for every strategy.

Every strategy scores through a :class:`~repro.optim.gp_bank.GPBank`.
With a homogeneous bank the expensive shared pieces — the pool
cross-covariance, the triangular solve and (for Thompson sampling) the
posterior covariance factor — are computed once for all objectives instead
of once per objective, which is the acquisition-side half of the incremental
surrogate fast path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.optim.epdc import epdc_score_matrix
from repro.optim.gp import GaussianProcess
from repro.optim.gp_bank import GPBank
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_non_negative

#: Acquisition strategy names accepted by the optimizers.
ACQUISITION_STRATEGIES = ("ts", "ucb", "mean", "random", "epdc")


def thompson_scores(
    bank: GPBank,
    pool_features: np.ndarray,
    rng: SeedLike = None,
) -> np.ndarray:
    """Thompson-sampling scores: one joint posterior draw per objective.

    Returns an ``(n_pool, n_objectives)`` matrix of sampled objective values.
    Minimising a scalarisation of these samples implements multi-objective
    Thompson sampling, the strategy Dragonfly uses by default.
    """
    return bank.thompson_draws(pool_features, rng=rng, num_samples=1)[0]


def lcb_scores(
    bank: GPBank,
    pool_features: np.ndarray,
    beta: float = 2.0,
) -> np.ndarray:
    """Lower-confidence-bound scores ``mean - beta * std`` per objective.

    Optimistic under minimisation: points with low predicted mean or high
    uncertainty receive low (attractive) scores.
    """
    require_non_negative(beta, "beta")
    mean, std = bank.predict(pool_features, return_std=True)
    return mean - beta * std


def mean_scores(bank: GPBank, pool_features: np.ndarray) -> np.ndarray:
    """Pure-exploitation scores: the posterior means."""
    mean, _ = bank.predict(pool_features, return_std=False)
    return mean


def expected_improvement(
    model: GaussianProcess,
    pool_features: np.ndarray,
    best_observed: float,
) -> np.ndarray:
    """Single-objective expected improvement (for minimisation).

    Provided for the single-objective ablations; returns *negative* EI so the
    convention "lower score is better" holds for every strategy.
    """
    from scipy.stats import norm

    pool_features = np.atleast_2d(np.asarray(pool_features, dtype=float))
    mean, std = model.predict(pool_features, return_std=True)
    std = np.maximum(std, 1e-12)
    improvement = best_observed - mean
    z = improvement / std
    ei = improvement * norm.cdf(z) + std * norm.pdf(z)
    return -np.maximum(ei, 0.0)


def acquisition_scores(
    strategy: str,
    bank: GPBank,
    pool_features: np.ndarray,
    rng: SeedLike = None,
    beta: float = 2.0,
    front: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dispatch to the requested acquisition strategy.

    ``"random"`` returns i.i.d. uniform scores, yielding random search with
    the same bookkeeping as the model-based strategies (useful as a baseline).
    ``"epdc"`` (see :mod:`repro.optim.epdc`) additionally requires ``front``
    — the current non-dominated objective vectors, in the *normalised*
    units the surrogates were fit on.
    """
    strategy = strategy.strip().lower()
    if strategy not in ACQUISITION_STRATEGIES:
        raise ValueError(
            f"unknown acquisition strategy {strategy!r}; "
            f"available: {ACQUISITION_STRATEGIES}"
        )
    pool_features = np.atleast_2d(np.asarray(pool_features, dtype=float))
    if strategy == "random":
        rng = ensure_rng(rng)
        return rng.uniform(size=(pool_features.shape[0], len(bank)))
    if strategy == "ts":
        return thompson_scores(bank, pool_features, rng=rng)
    if strategy == "ucb":
        return lcb_scores(bank, pool_features, beta=beta)
    if strategy == "epdc":
        if front is None:
            raise ValueError(
                "the 'epdc' strategy needs the current Pareto front "
                "(pass front=...)"
            )
        return epdc_score_matrix(bank, pool_features, front, rng=rng)
    return mean_scores(bank, pool_features)
