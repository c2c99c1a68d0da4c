"""Versioned request/outcome envelopes for search runs.

A :class:`SearchRequest` declares *what* to run — scenario, strategy and
budgets — entirely in plain data, so runs can be persisted, replayed and
compared; a :class:`SearchOutcome` pairs the request with every explored
candidate plus timing and cache statistics.  Both round-trip losslessly
through ``to_dict``/``from_dict`` and serialize with
:func:`repro.utils.serialization.to_jsonable` / :mod:`json` without custom
encoders.

Envelopes carry a ``schema_version``; :func:`check_schema_version` rejects
payloads written by a *newer* library (older versions are upgraded in
``from_dict`` as the schema evolves).

:func:`request_fingerprint` derives a deterministic hex key from a request's
computational content (everything except tag metadata); campaign run stores
(:mod:`repro.campaign.store`) key persisted outcomes by it so interrupted
grids can resume without re-running finished cells.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.scenario import DEFAULT_SCENARIO, SCENARIOS, Scenario, ScenarioRegistry
from repro.core.results import CandidateEvaluation, SearchResult
from repro.optim.pareto import FrontHistory
from repro.nn.spaces import DEFAULT_SEARCH_SPACE
from repro.utils.serialization import load_json
from repro.utils.validation import require_positive

#: Current envelope schema version.
#:
#: * **v1** — the original request/outcome envelopes.
#: * **v2** — requests gained ``search_space`` (the named workload to
#:   search, see :data:`repro.api.registry.SEARCH_SPACES`).  v1 payloads
#:   upgrade in ``from_dict`` by defaulting to
#:   :data:`~repro.nn.spaces.DEFAULT_SEARCH_SPACE`; their fingerprints are
#:   unchanged (see :func:`request_fingerprint`).
#: * **v3** — requests gained ``batch_size`` (candidates proposed per BO
#:   iteration, default :data:`DEFAULT_BATCH_SIZE`; dropped from
#:   fingerprints at the default so v1/v2 fingerprints are unchanged) and
#:   outcomes gained ``front_history`` (the per-evaluation hypervolume
#:   trajectory, :class:`repro.optim.pareto.FrontHistory`).  Older payloads
#:   upgrade with ``batch_size=1`` and no history.
#: * **v4** — outcomes gained ``health`` (resilience event counters by
#:   ``H_*`` code, see :mod:`repro.resilience.health`).  Requests are
#:   unchanged, so every fingerprint is unchanged; older outcome payloads
#:   upgrade with empty counters.
SCHEMA_VERSION = 4

#: Default candidates-per-iteration; requests at the default fingerprint
#: identically to pre-v3 requests.
DEFAULT_BATCH_SIZE = 1

#: Request fields excluded from fingerprints: pure metadata that cannot
#: change what a run computes.
FINGERPRINT_EXCLUDED_FIELDS = ("schema_version", "tags")

#: Hex digits kept in a request fingerprint (64 bits — ample for run stores).
FINGERPRINT_LENGTH = 16


def request_fingerprint(request: "SearchRequest") -> str:
    """Deterministic hex fingerprint of a request's computational content.

    The fingerprint is a truncated SHA-256 of the request's canonical JSON
    form with :data:`FINGERPRINT_EXCLUDED_FIELDS` removed, so two requests
    with the same *declared* content — regardless of tag metadata or the
    library version that wrote them — share one fingerprint.  Run stores key
    persisted outcomes by it to make campaigns resumable.

    Fields added by later schema versions are dropped from the payload while
    they hold their upgrade default (``search_space="lens-vgg"``,
    ``batch_size=1``), so a schema-v1 request keeps the exact fingerprint it
    had when v1 was current — pinned by the golden-file tests in
    ``tests/test_envelopes_golden.py`` — and stores written before the
    upgrade still resume correctly.  Non-default values hash normally, so
    requests targeting different spaces (or q-batch budgets) never collide.

    Declared content is hashed as-is: a scenario referenced *by name* is
    keyed by that name (its registry resolution may legitimately change),
    so it never shares a fingerprint with the same scenario passed inline.
    Stick to one form within a campaign — grids built from
    :class:`~repro.campaign.gridspec.CampaignSpec` always use names.
    """
    payload = request.to_dict()
    for name in FINGERPRINT_EXCLUDED_FIELDS:
        payload.pop(name, None)
    if payload.get("search_space") == DEFAULT_SEARCH_SPACE:
        payload.pop("search_space")
    if payload.get("batch_size") == DEFAULT_BATCH_SIZE:
        payload.pop("batch_size")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:FINGERPRINT_LENGTH]


def check_schema_version(data: Mapping[str, Any], what: str) -> int:
    """Validate the ``schema_version`` field of a serialized envelope."""
    version = int(data.get("schema_version", SCHEMA_VERSION))
    if version < 1 or version > SCHEMA_VERSION:
        raise ValueError(
            f"cannot read {what} with schema_version={version}; "
            f"this library supports versions 1..{SCHEMA_VERSION}"
        )
    return version


@dataclass(frozen=True)
class SearchRequest:
    """Declarative description of one search run.

    Parameters
    ----------
    scenario:
        Scenario name (resolved through a :class:`ScenarioRegistry`) or an
        inline :class:`Scenario`.
    strategy:
        Search strategy name (``"lens"``, ``"traditional"`` or ``"random"``,
        see :data:`repro.api.session.STRATEGIES`).
    search_space:
        Named search space to explore (``"lens-vgg"``, ``"resnet-v1"``,
        ``"seq-conv1d"`` or anything registered in
        :data:`repro.api.registry.SEARCH_SPACES`).
    num_initial / num_iterations / candidate_pool_size / acquisition:
        Budgets and acquisition of the optimization loop (Algorithm 2).
    batch_size:
        Candidates proposed (and batch-evaluated) per BO iteration; the
        total budget stays ``num_iterations`` evaluations.  ``1`` is the
        classic one-point loop; pair ``q > 1`` with ``acquisition="epdc"``
        for hypervolume-driven q-batch selection.
    predictor_noise_std / predictor_samples_per_type:
        Performance-predictor training settings (ignored when a pre-trained
        predictor is supplied to :func:`repro.api.session.run_search`).
    seed:
        Master seed of the run.  Must be an integer (or ``None``) for the
        request to be serializable.
    tags:
        Free-form metadata carried through to the outcome.
    """

    scenario: Union[str, Scenario] = DEFAULT_SCENARIO
    strategy: str = "lens"
    search_space: str = DEFAULT_SEARCH_SPACE
    num_initial: int = 10
    num_iterations: int = 50
    candidate_pool_size: int = 128
    acquisition: str = "ts"
    batch_size: int = DEFAULT_BATCH_SIZE
    predictor_noise_std: float = 0.03
    predictor_samples_per_type: int = 200
    seed: Optional[int] = 0
    tags: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        require_positive(self.num_initial, "num_initial")
        if self.num_iterations < 0:
            raise ValueError(
                f"num_iterations must be >= 0, got {self.num_iterations}"
            )
        require_positive(self.candidate_pool_size, "candidate_pool_size")
        require_positive(self.batch_size, "batch_size")

    # ------------------------------------------------------------------ helpers
    @property
    def num_evaluations(self) -> int:
        """Total evaluation budget of the run."""
        return self.num_initial + self.num_iterations

    @property
    def scenario_name(self) -> str:
        """Name of the requested scenario."""
        if isinstance(self.scenario, Scenario):
            return self.scenario.name
        return str(self.scenario)

    def resolve_scenario(
        self, scenarios: Optional[ScenarioRegistry] = None
    ) -> Scenario:
        """The scenario object, resolved by name when necessary."""
        return (scenarios or SCENARIOS).resolve(self.scenario)

    def replace(self, **changes: Any) -> "SearchRequest":
        """Copy of this request with the given fields changed."""
        return replace(self, **changes)

    def fingerprint(self) -> str:
        """Deterministic run-store key; see :func:`request_fingerprint`."""
        return request_fingerprint(self)

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        scenario: Any = self.scenario
        if isinstance(scenario, Scenario):
            scenario = scenario.to_dict()
        seed = self.seed
        if seed is not None and not isinstance(seed, int):
            raise TypeError(
                f"only integer (or None) seeds are serializable, got {type(seed)!r}"
            )
        return {
            "schema_version": self.schema_version,
            "scenario": scenario,
            "strategy": self.strategy,
            "search_space": self.search_space,
            "num_initial": self.num_initial,
            "num_iterations": self.num_iterations,
            "candidate_pool_size": self.candidate_pool_size,
            "acquisition": self.acquisition,
            "batch_size": self.batch_size,
            "predictor_noise_std": self.predictor_noise_std,
            "predictor_samples_per_type": self.predictor_samples_per_type,
            "seed": seed,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchRequest":
        """Rebuild a request, upgrading older schema versions in place.

        v1 payloads predate the ``search_space`` field and upgrade to
        :data:`~repro.nn.spaces.DEFAULT_SEARCH_SPACE`; the returned request
        always carries the current :data:`SCHEMA_VERSION` (and the same
        fingerprint the payload had under the schema that wrote it).
        """
        check_schema_version(data, "SearchRequest")
        scenario = data.get("scenario", DEFAULT_SCENARIO)
        if isinstance(scenario, dict):
            scenario = Scenario.from_dict(scenario)
        seed = data.get("seed", 0)
        return cls(
            scenario=scenario,
            strategy=data.get("strategy", "lens"),
            search_space=str(data.get("search_space", DEFAULT_SEARCH_SPACE)),
            num_initial=int(data.get("num_initial", 10)),
            num_iterations=int(data.get("num_iterations", 50)),
            candidate_pool_size=int(data.get("candidate_pool_size", 128)),
            acquisition=data.get("acquisition", "ts"),
            batch_size=int(data.get("batch_size", DEFAULT_BATCH_SIZE)),
            predictor_noise_std=float(data.get("predictor_noise_std", 0.03)),
            predictor_samples_per_type=int(
                data.get("predictor_samples_per_type", 200)
            ),
            seed=None if seed is None else int(seed),
            tags=dict(data.get("tags", {})),
            schema_version=SCHEMA_VERSION,
        )


@dataclass
class SearchOutcome:
    """Everything one search run produced, paired with its request.

    Attributes
    ----------
    request:
        The request that was executed.
    scenario:
        The *resolved* scenario (inlined so the outcome stays interpretable
        even if the registry changes later).
    label:
        Result label (strategy name).
    candidates:
        Every explored :class:`CandidateEvaluation`, in evaluation order.
    wall_time_s:
        Wall-clock duration of the run: the strategy plus the
        front-history pass that builds ``front_history``.
    engine_stats:
        Cache statistics of the evaluation engine that backed the run.
    front_history:
        Per-evaluation Pareto-front trajectory
        (:class:`repro.optim.pareto.FrontHistory`) — hypervolume, front size
        and the joining candidate after each evaluation.  ``None`` for
        outcomes written before schema v3.
    health:
        Resilience event counters by ``H_*`` code (see
        :mod:`repro.resilience.health`): how often the degradation ladder
        fired, evaluations were quarantined, checkpoints were written or a
        resume replayed history.  Empty for healthy runs and for outcomes
        written before schema v4.  Like ``wall_time_s`` and
        ``engine_stats``, this describes *how* the run went, not *what* it
        computed — it never affects the request fingerprint.
    """

    request: SearchRequest
    scenario: Scenario
    label: str
    candidates: Tuple[CandidateEvaluation, ...]
    wall_time_s: float = 0.0
    engine_stats: Dict[str, int] = field(default_factory=dict)
    front_history: Optional[FrontHistory] = None
    health: Dict[str, int] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        self.candidates = tuple(self.candidates)

    # ------------------------------------------------------------------ views
    @property
    def result(self) -> SearchResult:
        """The candidates as a :class:`SearchResult` (Pareto helpers etc.)."""
        return SearchResult(self.candidates, label=self.label)

    def pareto_candidates(
        self, metrics: Sequence[str] = ("error_percent", "energy_j")
    ) -> List[CandidateEvaluation]:
        """Candidates on the Pareto front of the requested metrics."""
        return self.result.pareto_candidates(metrics)

    def best_by(self, metric: str) -> CandidateEvaluation:
        """Candidate minimising a single metric."""
        return self.result.best_by(metric)

    def __len__(self) -> int:
        return len(self.candidates)

    def summary(self) -> Dict[str, Any]:
        """Compact run summary (for logs and comparison tables)."""
        return {
            "scenario": self.scenario.name,
            "strategy": self.label,
            "num_candidates": len(self.candidates),
            "pareto_size": len(self.pareto_candidates()),
            "wall_time_s": self.wall_time_s,
        }

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "request": self.request.to_dict(),
            "scenario": self.scenario.to_dict(),
            "label": self.label,
            "candidates": [c.to_dict() for c in self.candidates],
            "wall_time_s": self.wall_time_s,
            "engine_stats": dict(self.engine_stats),
            "front_history": (
                None if self.front_history is None else self.front_history.to_dict()
            ),
            "health": dict(self.health),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchOutcome":
        version = check_schema_version(data, "SearchOutcome")
        return cls(
            request=SearchRequest.from_dict(data["request"]),
            scenario=Scenario.from_dict(data["scenario"]),
            label=data.get("label", "search"),
            candidates=tuple(
                CandidateEvaluation.from_dict(c) for c in data.get("candidates", [])
            ),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            engine_stats={
                str(k): int(v) for k, v in data.get("engine_stats", {}).items()
            },
            front_history=(
                None
                if data.get("front_history") is None
                else FrontHistory.from_dict(data["front_history"])
            ),
            health={str(k): int(v) for k, v in (data.get("health") or {}).items()},
            schema_version=version,
        )


# ---------------------------------------------------------------------- file loading

def load_request(path: Union[str, Path]) -> SearchRequest:
    """Load a :class:`SearchRequest` from a JSON file."""
    return SearchRequest.from_dict(load_json(path))


def load_outcome(path: Union[str, Path]) -> SearchOutcome:
    """Load a :class:`SearchOutcome` from a JSON file."""
    return SearchOutcome.from_dict(load_json(path))
