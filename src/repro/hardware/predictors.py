"""Per-layer latency and power prediction models (paper §IV-C).

The paper trains regression models — one latency model and one power model per
layer family — on measured profiling data, then calls them inside the NAS loop
to estimate each candidate architecture's per-layer performance.  This module
provides:

* :class:`RidgeRegression` — a small, dependency-free linear regression with
  L2 regularisation and feature standardisation;
* :class:`LayerPerformancePredictor` — the per-family latency/power model
  bundle, trainable from :class:`~repro.hardware.profiler.ProfilingDataset`
  objects and queryable per layer or per architecture;
* :class:`OracleLayerPredictor` — a noiseless pass-through to the simulator,
  useful for tests and for quantifying the regression models' error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.device import DeviceProfile
from repro.hardware.features import (
    FAMILY_ALIASES,
    family_feature_matrix,
    layer_features,
    prediction_family,
)
from repro.hardware.profiler import LayerProfiler, ProfilingDataset
from repro.hardware.simulator import LayerCostSimulator
from repro.nn.architecture import Architecture, LayerSummary
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_non_negative

if TYPE_CHECKING:  # runtime import stays lazy: repro.api imports this module
    from repro.api.engine import EvaluationEngine

#: Prediction floor: no layer is ever predicted faster/cheaper than this.
MIN_LATENCY_S = 1e-6
MIN_POWER_W = 1e-3


class RidgeRegression:
    """Linear regression with L2 regularisation and feature standardisation.

    The closed-form solution ``(X'X + aI)^-1 X'y`` is computed on standardised
    features; an intercept is always included and never regularised.
    """

    def __init__(self, alpha: float = 1e-3):
        require_non_negative(alpha, "alpha")
        self.alpha = float(alpha)
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._intercept: float = 0.0

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._weights is not None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RidgeRegression":
        """Fit the model to a design matrix and target vector."""
        X = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"features has {X.shape[0]} rows but targets has {y.shape[0]} entries"
            )
        if X.shape[0] < 2:
            raise ValueError("at least two samples are required to fit the model")
        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        self._std = np.where(std > 1e-12, std, 1.0)
        Xs = (X - self._mean) / self._std
        y_mean = float(y.mean())
        yc = y - y_mean
        gram = Xs.T @ Xs + self.alpha * np.eye(Xs.shape[1])
        self._weights = np.linalg.solve(gram, Xs.T @ yc)
        self._intercept = y_mean
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for one or more feature rows."""
        if not self.is_fitted:
            raise RuntimeError("RidgeRegression.predict called before fit")
        X = np.atleast_2d(np.asarray(features, dtype=float))
        Xs = (X - self._mean) / self._std
        # Column-by-column multiply-accumulate rather than a BLAS ``Xs @ w``:
        # every row is summed in the same order however many rows share the
        # call, so a prediction never depends on its batch.
        result = np.zeros(Xs.shape[0])
        for column, weight in zip(Xs.T, self._weights):
            result += column * weight
        return result + self._intercept

    def score(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Coefficient of determination (R^2) on the given data."""
        y = np.asarray(targets, dtype=float).ravel()
        predictions = self.predict(features)
        residual = float(np.sum((y - predictions) ** 2))
        total = float(np.sum((y - y.mean()) ** 2))
        if total <= 1e-30:
            return 1.0 if residual <= 1e-30 else 0.0
        return 1.0 - residual / total


class LayerPrediction(NamedTuple):
    """Predicted latency, power and energy for a single layer.

    A named tuple rather than a dataclass: the batched evaluation path
    materialises one instance per layer per candidate, so construction cost
    is on the hot path.
    """

    latency_s: float
    power_w: float

    @property
    def energy_j(self) -> float:
        """Predicted layer energy in joules."""
        return self.latency_s * self.power_w


class BaseLayerPredictor:
    """Interface shared by the regression predictor and the oracle."""

    #: Device the predictor was built for.
    device: DeviceProfile

    def predict_layer(self, summary: LayerSummary) -> LayerPrediction:
        """Predict latency and power for one layer."""
        raise NotImplementedError

    def predict_architecture(
        self, architecture: Architecture
    ) -> Tuple[LayerPrediction, ...]:
        """Predict latency and power for every layer of an architecture."""
        return tuple(
            self.predict_layer(summary) for summary in architecture.summarize()
        )

    def predict_batch(
        self, architectures: Sequence[Architecture]
    ) -> List[Tuple[LayerPrediction, ...]]:
        """Per-layer predictions for a whole candidate pool.

        The base implementation loops :meth:`predict_architecture`, so the
        oracle and custom predictors work unchanged;
        :class:`LayerPerformancePredictor` overrides it with a vectorised
        per-family path.
        """
        return [self.predict_architecture(a) for a in architectures]

    def totals(
        self,
        architecture: Architecture,
        predictions: Optional[Sequence[LayerPrediction]] = None,
    ) -> Tuple[float, float]:
        """``(total latency, total energy)`` from one prediction pass.

        Pass cached ``predictions`` (e.g. from
        :meth:`repro.api.engine.EvaluationEngine.layer_predictions`) to skip
        the predictor entirely.
        """
        if predictions is None:
            predictions = self.predict_architecture(architecture)
        latency = sum(p.latency_s for p in predictions)
        energy = sum(p.energy_j for p in predictions)
        return latency, energy

    def total_latency(
        self,
        architecture: Architecture,
        predictions: Optional[Sequence[LayerPrediction]] = None,
    ) -> float:
        """Whole-model on-device latency (sum of per-layer latencies)."""
        return self.totals(architecture, predictions)[0]

    def total_energy(
        self,
        architecture: Architecture,
        predictions: Optional[Sequence[LayerPrediction]] = None,
    ) -> float:
        """Whole-model on-device energy (sum of per-layer energies)."""
        return self.totals(architecture, predictions)[1]


class LayerPerformancePredictor(BaseLayerPredictor):
    """Regression-based per-layer latency and power predictor.

    One :class:`RidgeRegression` pair (latency, power) is maintained for every
    layer family that appears in the profiling data.  Families never seen
    during profiling (``flatten``, ``dropout``) are predicted as free, which
    matches their negligible cost.
    """

    def __init__(self, device: DeviceProfile, alpha: float = 1e-3):
        self.device = device
        self.alpha = float(alpha)
        self._latency_models: Dict[str, RidgeRegression] = {}
        self._power_models: Dict[str, RidgeRegression] = {}
        self._training_scores: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------ training
    def fit(self, datasets: Dict[str, ProfilingDataset]) -> "LayerPerformancePredictor":
        """Fit per-family latency and power models from profiling datasets."""
        if not datasets:
            raise ValueError("at least one profiling dataset is required")
        for family, dataset in datasets.items():
            latency_model = RidgeRegression(self.alpha).fit(
                dataset.features, dataset.latencies_s
            )
            power_model = RidgeRegression(self.alpha).fit(
                dataset.features, dataset.powers_w
            )
            self._latency_models[family] = latency_model
            self._power_models[family] = power_model
            self._training_scores[family] = {
                "latency_r2": latency_model.score(dataset.features, dataset.latencies_s),
                "power_r2": power_model.score(dataset.features, dataset.powers_w),
                "samples": float(len(dataset)),
            }
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether at least one layer family has trained models."""
        return bool(self._latency_models)

    @property
    def training_scores(self) -> Dict[str, Dict[str, float]]:
        """Training R^2 per layer family (diagnostics)."""
        return dict(self._training_scores)

    @property
    def supported_families(self) -> Tuple[str, ...]:
        """Layer families with trained models."""
        return tuple(sorted(self._latency_models))

    # ------------------------------------------------------------------ prediction
    def predict_layer(self, summary: LayerSummary) -> LayerPrediction:
        """One layer; equal to its row of :meth:`predict_pool`."""
        if not self.is_fitted:
            raise RuntimeError("predictor is not fitted; call fit() or train_for_device()")
        family = prediction_family(summary.layer_type)
        if family not in self._latency_models:
            # Structural layers (flatten/dropout) carry no measurable cost.
            return LayerPrediction(latency_s=0.0, power_w=self.device.idle_power_w)
        features = layer_features(summary)
        latency = float(self._latency_models[family].predict(features)[0])
        power = float(self._power_models[family].predict(features)[0])
        return LayerPrediction(
            latency_s=max(latency, MIN_LATENCY_S),
            power_w=max(power, MIN_POWER_W),
        )

    def predict_architecture(
        self, architecture: Architecture
    ) -> Tuple[LayerPrediction, ...]:
        """Thin wrapper over :meth:`predict_batch` (pool of one)."""
        return self.predict_batch([architecture])[0]

    def predict_batch(
        self, architectures: Sequence[Architecture]
    ) -> List[Tuple[LayerPrediction, ...]]:
        """Vectorised per-layer predictions for a whole candidate pool.

        All layers of all architectures are grouped by prediction family,
        each family featurizes into one design matrix
        (:func:`~repro.hardware.features.family_feature_matrix`), and each
        :class:`RidgeRegression` predicts the whole matrix in one call — two
        calls per family for the entire pool instead of two per layer.
        Every value equals :meth:`predict_layer` of its layer exactly.
        """
        return self.predict_pool(architectures)[0]

    def predict_pool(
        self, architectures: Sequence[Architecture]
    ) -> Tuple[List[Tuple[LayerPrediction, ...]], np.ndarray]:
        """:meth:`predict_batch` plus the raw ``(total_layers, 2)`` array.

        The array holds the pool's per-layer ``(latency, power)`` stream in
        architecture order — exactly the values inside the returned
        prediction tuples.  Batched partition costing consumes the array
        directly, skipping a NamedTuple-to-array round trip.
        """
        if not self.is_fitted:
            raise RuntimeError("predictor is not fitted; call fit() or train_for_device()")
        summary_lists = [a.summarize() for a in architectures]
        total = sum(len(summaries) for summaries in summary_lists)
        latencies = np.empty(total)
        powers = np.empty(total)
        latency_models = self._latency_models
        idle_power = self.device.idle_power_w
        aliases = FAMILY_ALIASES
        # One pass groups (position, summary) by family; families without a
        # model (flatten/dropout) are filled in place as cost-free.
        groups: Dict[str, Tuple[List[int], List[LayerSummary]]] = {}
        position = 0
        for summaries in summary_lists:
            for summary in summaries:
                layer_type = summary.layer_type
                family = aliases.get(layer_type, layer_type)
                if family in latency_models:
                    entry = groups.get(family)
                    if entry is None:
                        entry = groups[family] = ([], [])
                    entry[0].append(position)
                    entry[1].append(summary)
                else:
                    latencies[position] = 0.0
                    powers[position] = idle_power
                position += 1
        for family, (positions, members) in groups.items():
            matrix = family_feature_matrix(family, members)
            latency = latency_models[family].predict(matrix)
            power = self._power_models[family].predict(matrix)
            np.maximum(latency, MIN_LATENCY_S, out=latency)
            np.maximum(power, MIN_POWER_W, out=power)
            latencies[positions] = latency
            powers[positions] = power
        pairs = list(zip(latencies.tolist(), powers.tolist()))
        make = LayerPrediction._make
        results: List[Tuple[LayerPrediction, ...]] = []
        offset = 0
        for summaries in summary_lists:
            end = offset + len(summaries)
            results.append(tuple(map(make, pairs[offset:end])))
            offset = end
        return results, np.stack((latencies, powers), axis=1)

    # ------------------------------------------------------------------ convenience
    @classmethod
    def train_for_device(
        cls,
        device: DeviceProfile,
        noise_std: float = 0.03,
        samples_per_type: int = 300,
        alpha: float = 1e-3,
        seed: SeedLike = 0,
    ) -> "LayerPerformancePredictor":
        """Build, profile and fit a predictor for a device in one call.

        This mirrors the paper's workflow end-to-end: sweep layer
        configurations on the (simulated) device, collect noisy measurements,
        and fit the per-family regression models.
        """
        rng = ensure_rng(seed)
        simulator = LayerCostSimulator(device, noise_std=noise_std, rng=rng)
        profiler = LayerProfiler(
            simulator, samples_per_type=samples_per_type, rng=rng
        )
        predictor = cls(device, alpha=alpha)
        predictor.fit(profiler.profile_all())
        return predictor


class OracleLayerPredictor(BaseLayerPredictor):
    """Noise-free predictor that queries the simulator directly.

    Useful in tests (deterministic ground truth) and for measuring the
    regression predictor's approximation error.
    """

    def __init__(self, device: DeviceProfile):
        self.device = device
        self._simulator = LayerCostSimulator(device, noise_std=0.0)

    def predict_layer(self, summary: LayerSummary) -> LayerPrediction:
        return LayerPrediction(
            latency_s=self._simulator.latency(summary),
            power_w=self._simulator.power(summary),
        )


def prediction_error_report(
    predictor: LayerPerformancePredictor,
    architectures: Sequence[Architecture],
    engine: Optional["EvaluationEngine"] = None,
) -> Dict[str, float]:
    """Compare a fitted predictor against the noiseless oracle.

    Returns mean absolute percentage errors for whole-model latency and
    energy over the given architectures — a quick check that the regression
    pipeline is faithful enough for search-time ranking.

    Both totals of each model come from one prediction pass
    (:meth:`BaseLayerPredictor.totals`).  Pass an
    :class:`~repro.api.engine.EvaluationEngine` to route those passes
    through its layer cache (and share its cached oracle), so
    architectures already costed by a search are not re-predicted.
    """
    latency_errors: List[float] = []
    energy_errors: List[float] = []
    pool = list(architectures)
    if engine is not None:
        oracle: BaseLayerPredictor = engine.predictor_for(
            predictor.device, oracle=True
        )
        totals = [
            (
                engine.architecture_totals(oracle, architecture),
                engine.architecture_totals(predictor, architecture),
            )
            for architecture in pool
        ]
    else:
        oracle = OracleLayerPredictor(predictor.device)
        # One batched prediction pass per predictor for the whole pool.
        totals = [
            (
                oracle.totals(architecture, true_preds),
                predictor.totals(architecture, model_preds),
            )
            for architecture, true_preds, model_preds in zip(
                pool, oracle.predict_batch(pool), predictor.predict_batch(pool)
            )
        ]
    for (true_latency, true_energy), (predicted_latency, predicted_energy) in totals:
        latency_errors.append(abs(predicted_latency - true_latency) / true_latency)
        energy_errors.append(abs(predicted_energy - true_energy) / true_energy)
    return {
        "latency_mape": float(np.mean(latency_errors)),
        "energy_mape": float(np.mean(energy_errors)),
        "architectures": float(len(pool)),
    }
