"""Tests for the MOBO loop and the random-search baseline on synthetic problems."""

import numpy as np
import pytest

from repro.optim.mobo import MultiObjectiveBayesianOptimizer, OptimizationResult
from repro.optim.pareto import coverage, hypervolume_2d, pareto_front_mask
from repro.optim.random_search import RandomSearch

# A small bi-objective problem over a discrete grid (a ZDT1-like trade-off).
GRID = 21


def _sample(rng):
    return np.array([rng.integers(0, GRID), rng.integers(0, GRID)])


def _features(candidate):
    return np.asarray(candidate, dtype=float) / (GRID - 1)


def _objectives(candidate):
    x = np.asarray(candidate, dtype=float) / (GRID - 1)
    f1 = x[0]
    f2 = (1 + x[1]) * (1 - np.sqrt(x[0] / (1 + x[1])))
    return np.array([f1, f2]), {"x": x.tolist()}


def _make_optimizer(**overrides):
    kwargs = dict(
        sample_fn=_sample,
        feature_fn=_features,
        objective_fn=_objectives,
        num_objectives=2,
        num_initial=6,
        num_iterations=12,
        candidate_pool_size=40,
        seed=0,
    )
    kwargs.update(overrides)
    return MultiObjectiveBayesianOptimizer(**kwargs)


class TestMOBO:
    def test_runs_and_reports_every_evaluation(self):
        result = _make_optimizer().run()
        assert isinstance(result, OptimizationResult)
        assert len(result) == 18
        phases = {p.phase for p in result.points}
        assert phases == {"init", "bo"}
        assert result.objective_matrix().shape == (18, 2)

    def test_metadata_is_preserved(self):
        result = _make_optimizer().run()
        assert all("x" in p.metadata for p in result.points)

    def test_pareto_helpers_consistent(self):
        result = _make_optimizer().run()
        mask = result.pareto_mask()
        assert mask.sum() == len(result.pareto_points())
        front = result.pareto_objectives()
        assert np.array_equal(front, result.objective_matrix()[mask])

    def test_reproducible_with_same_seed(self):
        a = _make_optimizer(seed=3).run().objective_matrix()
        b = _make_optimizer(seed=3).run().objective_matrix()
        assert np.array_equal(a, b)

    def test_pool_features_fn_selects_what_feature_fn_selects(self):
        calls = []

        def pool_features(pool):
            calls.append(len(pool))
            return np.asarray(pool, dtype=float) / (GRID - 1)

        for acquisition, batch_size in (("ts", 1), ("epdc", 3)):
            plain = _make_optimizer(acquisition=acquisition, batch_size=batch_size)
            pooled = _make_optimizer(
                acquisition=acquisition, batch_size=batch_size,
                pool_features_fn=pool_features,
            )
            a, b = plain.run(), pooled.run()
            assert [p.candidate.tolist() for p in a.points] == [
                p.candidate.tolist() for p in b.points
            ]
            assert plain._rng.bit_generator.state == pooled._rng.bit_generator.state
        assert calls and all(size > 0 for size in calls)

    def test_avoids_duplicate_candidates(self):
        result = _make_optimizer(num_iterations=20).run()
        keys = [tuple(p.candidate.tolist()) for p in result.points]
        # A few duplicates are tolerated (space exhaustion fallback) but the
        # bulk of evaluations must be unique.
        assert len(set(keys)) >= len(keys) - 2

    def test_bo_beats_random_search_on_hypervolume(self):
        bo = _make_optimizer(num_initial=8, num_iterations=25, seed=1).run()
        rs = RandomSearch(
            sample_fn=_sample,
            feature_fn=_features,
            objective_fn=_objectives,
            num_objectives=2,
            num_evaluations=33,
            seed=1,
        ).run()
        reference = [1.2, 1.2]
        hv_bo = hypervolume_2d(bo.pareto_objectives(), reference)
        hv_rs = hypervolume_2d(rs.pareto_objectives(), reference)
        # The model-based search should not be clearly worse than random.
        assert hv_bo >= hv_rs * 0.9

    def test_best_for_objective(self):
        result = _make_optimizer().run()
        best0 = result.best_for_objective(0)
        assert best0.objectives[0] == result.objective_matrix()[:, 0].min()
        with pytest.raises(IndexError):
            result.best_for_objective(5)

    def test_callback_invoked_per_evaluation(self):
        calls = []
        _make_optimizer(callback=lambda i, p, a: calls.append(i)).run()
        assert calls == list(range(18))

    def test_ucb_and_random_acquisitions_run(self):
        for acquisition in ("ucb", "mean", "random"):
            result = _make_optimizer(acquisition=acquisition, num_iterations=4).run()
            assert len(result) == 10

    def test_neighbor_fn_is_used(self):
        def neighbor_fn(candidate, count, rng):
            return [np.clip(candidate + rng.integers(-1, 2, size=2), 0, GRID - 1) for _ in range(count)]

        result = _make_optimizer(neighbor_fn=neighbor_fn, num_iterations=6).run()
        assert len(result) == 12

    def test_archive_matches_result_front(self):
        optimizer = _make_optimizer()
        result = optimizer.run()
        archive_objectives = optimizer.archive.objective_matrix()
        front = result.pareto_objectives()
        # Same set of non-dominated objective vectors.
        assert coverage(front, archive_objectives) == 0.0
        assert coverage(archive_objectives, front) == 0.0
        assert archive_objectives.shape[0] == front.shape[0]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            _make_optimizer(num_initial=1)
        with pytest.raises(ValueError):
            _make_optimizer(num_objectives=0)
        with pytest.raises(ValueError):
            _make_optimizer(acquisition="bogus")
        with pytest.raises(ValueError):
            _make_optimizer(candidate_pool_size=1)

    def test_objective_shape_mismatch_detected(self):
        bad = _make_optimizer(objective_fn=lambda c: np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            bad.run()

    def test_non_finite_objectives_rejected_when_strict(self):
        bad = _make_optimizer(
            objective_fn=lambda c: np.array([np.nan, 1.0]), strict=True
        )
        with pytest.raises(ValueError):
            bad.run()

    def test_non_finite_objectives_quarantined_by_default(self):
        # Every evaluation returns NaN: the search must still complete its
        # budget, with nothing in the archive and everything quarantined.
        bad = _make_optimizer(objective_fn=lambda c: np.array([np.nan, 1.0]))
        result = bad.run()
        assert len(result) == 0
        assert len(bad.quarantined) == 18
        assert len(bad.archive) == 0

    def test_to_dict_serialises_points(self):
        result = _make_optimizer(num_iterations=2).run()
        data = result.to_dict()
        assert data["num_objectives"] == 2
        assert len(data["points"]) == 8


class TestRandomSearch:
    def test_runs_requested_budget(self):
        result = RandomSearch(
            sample_fn=_sample,
            feature_fn=_features,
            objective_fn=_objectives,
            num_objectives=2,
            num_evaluations=15,
            seed=0,
        ).run()
        assert len(result) == 15
        assert all(p.phase == "random" for p in result.points)

    def test_front_is_non_dominated(self):
        result = RandomSearch(
            sample_fn=_sample,
            feature_fn=_features,
            objective_fn=_objectives,
            num_objectives=2,
            num_evaluations=30,
            seed=2,
        ).run()
        front = result.pareto_objectives()
        assert np.all(pareto_front_mask(front))

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomSearch(_sample, _features, _objectives, num_objectives=0)
        with pytest.raises(ValueError):
            RandomSearch(_sample, _features, _objectives, num_objectives=2, num_evaluations=0)
