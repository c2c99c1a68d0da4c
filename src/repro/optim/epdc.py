"""Expected Pareto Distance Change acquisition and q-point batch selection.

The strategies in :mod:`repro.optim.acquisition` score candidates objective
by objective and never look at the front the search is actually trying to
grow.  EPDC (Valladares & Tovar's Expected Pareto Distance Change family)
closes that gap: it draws Monte-Carlo samples from the surrogate posterior
and scores each candidate by how far its sampled objective vectors are
expected to *move* the current non-dominated front — samples that fall
inside the dominated region contribute nothing, samples that would join the
front contribute their distance to it.

Two pieces live here:

* :func:`epdc_scores` — the front-aware acquisition value per pool
  candidate, computed from joint posterior draws that all share one
  posterior factor per acquisition step
  (:meth:`~repro.optim.gp_bank.GPBank.thompson_draws`);
* :func:`select_batch` — greedy sequential selection of ``q`` diverse
  candidates per iteration: each pick pays a similar-design penalty against
  the already-selected set (squared-exponential in encoding space), so one
  iteration emits a whole pool for
  :meth:`~repro.api.engine.EvaluationEngine.evaluate_batch` instead of a
  batch of one.

Both operate on *normalised* objectives (the MOBO loop fits its surrogates
on :func:`~repro.optim.scalarization.normalize_objectives` output), so
distances weigh every objective equally regardless of raw units.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.optim.gp_bank import GPBank
from repro.utils.rng import SeedLike
from repro.utils.validation import require_positive

#: Posterior draws per EPDC evaluation.  Each draw is one joint Thompson
#: sample over the whole pool.  All draws of a step share one posterior
#: factorisation, so the cost is one O(n^3) factorisation of the pool
#: covariance plus ``num_samples`` O(n^2) draws.
DEFAULT_EPDC_SAMPLES = 16

#: Default similar-design penalty weight for :func:`select_batch`.  Tuned
#: (with the lengthscale below) on seeded full-budget lens-vgg searches:
#: half-weight penalties keep enough acquisition pressure that q-batches
#: beat one-at-a-time Thompson sampling at equal budget, where a full-unit
#: penalty over-diversifies (see ``benchmarks/bench_epdc.py``).
DEFAULT_BATCH_PENALTY = 0.5


def pareto_distance_contributions(
    samples: np.ndarray, front: np.ndarray
) -> np.ndarray:
    """Per-point expected-front-movement contribution of sampled objectives.

    ``samples`` is an ``(n, k)`` matrix of objective vectors and ``front``
    an ``(m, k)`` non-dominated reference front (both minimised, same
    units).  A sample dominated by — or equal to — some front point sits
    inside the already-claimed region and contributes ``0``; any other
    sample would join the front, and contributes its Euclidean distance to
    the nearest front point (how far it drags the front).  An empty front
    means everything is new territory: the contribution is then the
    sample's distance to the origin-anchored ideal, i.e. its norm.
    """
    S = np.atleast_2d(np.asarray(samples, dtype=float))
    F = np.atleast_2d(np.asarray(front, dtype=float))
    if F.size == 0:
        return np.linalg.norm(S, axis=1)
    if S.shape[1] != F.shape[1]:
        raise ValueError(
            f"samples have {S.shape[1]} objectives but the front has {F.shape[1]}"
        )
    # (n, m, k) pairwise differences drive both the dominance test and the
    # distance; fronts are small (tens of points), so this stays tiny.
    diff = S[:, None, :] - F[None, :, :]
    dominated = np.any(
        np.all(diff >= 0.0, axis=2), axis=1
    )  # some front point is <= the sample everywhere
    distances = np.sqrt(np.sum(diff * diff, axis=2)).min(axis=1)
    return np.where(dominated, 0.0, distances)


def epdc_scores(
    bank: GPBank,
    pool_features: np.ndarray,
    front: np.ndarray,
    rng: SeedLike = None,
    num_samples: int = DEFAULT_EPDC_SAMPLES,
) -> np.ndarray:
    """Expected Pareto Distance Change per pool candidate (*higher* is better).

    Draws ``num_samples`` joint posterior samples over the pool from one
    posterior factor (:meth:`~repro.optim.gp_bank.GPBank.thompson_draws`,
    in the order ``num_samples`` single Thompson draws would take) and
    averages each candidate's :func:`pareto_distance_contributions` against
    the current front.  Returns an ``(n_pool,)`` vector.
    """
    require_positive(num_samples, "num_samples")
    front = np.atleast_2d(np.asarray(front, dtype=float))
    draws = bank.thompson_draws(pool_features, rng=rng, num_samples=num_samples)
    total = np.zeros(draws.shape[1])
    for sample in draws:
        total += pareto_distance_contributions(sample, front)
    return total / float(num_samples)


def epdc_score_matrix(
    bank: GPBank,
    pool_features: np.ndarray,
    front: np.ndarray,
    rng: SeedLike = None,
    num_samples: int = DEFAULT_EPDC_SAMPLES,
) -> np.ndarray:
    """EPDC as an ``(n_pool, k)`` *lower-is-better* score matrix.

    Adapter for the :func:`~repro.optim.acquisition.acquisition_scores`
    contract: the negated EPDC value is tiled across the objective columns.
    Chebyshev scalarisation of identical columns is monotone in the value,
    so the MOBO loop's ``argmin`` picks the candidate with the *largest*
    expected front movement without any special-casing downstream.
    """
    scores = epdc_scores(
        bank, pool_features, front, rng=rng, num_samples=num_samples
    )
    front = np.atleast_2d(np.asarray(front, dtype=float))
    num_objectives = front.shape[1] if front.size else len(bank)
    return np.tile(-scores[:, None], (1, num_objectives))


def select_batch(
    scores: np.ndarray,
    features: np.ndarray,
    batch_size: int,
    lengthscale: Optional[float] = None,
    penalty_weight: float = DEFAULT_BATCH_PENALTY,
) -> List[int]:
    """Greedy q-point selection: best scores, penalised for similar designs.

    ``scores`` are scalarised acquisition values (*lower* is better, the
    MOBO loop's convention) and ``features`` the candidates' unit-cube
    encodings.  Scores are normalised to a ``[0, 1]`` utility; each pick
    takes the highest remaining utility minus a squared-exponential
    similarity penalty against everything already selected
    (``penalty_weight * exp(-d^2 / (2 * lengthscale^2))``), so the returned
    batch trades pure acquisition value for coverage of the design space —
    the q points one iteration sends through the batched evaluator.

    Returns ``min(batch_size, n)`` distinct indices, deterministically
    (ties break toward the lower index).
    """
    require_positive(batch_size, "batch_size")
    scores = np.asarray(scores, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(features, dtype=float))
    n = scores.shape[0]
    if X.shape[0] != n:
        raise ValueError(
            f"{n} scores but {X.shape[0]} feature rows"
        )
    if n == 0:
        return []
    if lengthscale is None:
        # Half of the typical unit-cube diameter: a broad repulsion field
        # whose gentle slope (paired with the half-unit default penalty)
        # nudges batches apart without drowning the acquisition signal.
        lengthscale = 0.5 * float(np.sqrt(X.shape[1]))
    span = scores.max() - scores.min()
    if span > 1e-12:
        utility = (scores.max() - scores) / span  # 1 = best score, 0 = worst
    else:
        utility = np.zeros(n)  # degenerate scores: selection is maximin-diversity
    selected: List[int] = [int(np.argmax(utility))]
    available = np.ones(n, dtype=bool)
    available[selected[0]] = False
    penalty = np.zeros(n)
    while len(selected) < min(batch_size, n):
        last = X[selected[-1]]
        distances_sq = np.sum((X - last) ** 2, axis=1)
        penalty = np.maximum(
            penalty,
            penalty_weight * np.exp(-distances_sq / (2.0 * lengthscale**2)),
        )
        adjusted = np.where(available, utility - penalty, -np.inf)
        selected.append(int(np.argmax(adjusted)))
        available[selected[-1]] = False
    return selected
