"""Parity of the incremental front history with a per-prefix rebuild.

``compute_front_history`` keeps the non-dominated front incrementally and
recomputes the hypervolume only when an evaluation joins it.  The oracle
below is the direct definition: for every prefix ``Y[:t+1]`` take
``pareto_front_mask`` and a fresh ``hypervolume``.  It is O(n^2) and lives
here, not in ``src/``, because only these tests and
``benchmarks/bench_gp_hotpath.py`` use it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optim import pareto
from repro.optim.pareto import (
    FrontHistory,
    FrontHistoryEntry,
    compute_front_history,
    default_reference_point,
    hypervolume,
    pareto_front_mask,
)


def front_history_oracle(
    objectives: np.ndarray,
    metrics: Sequence[str] = (),
    reference: Optional[Sequence[float]] = None,
    labels: Optional[Sequence[Optional[str]]] = None,
    iterations: Optional[Sequence[int]] = None,
    hypervolume_fn=hypervolume,
) -> FrontHistory:
    """Per-prefix rebuild: one front mask and one hypervolume per evaluation."""
    Y = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = Y.shape[0]
    if n == 0 or Y.size == 0:
        return FrontHistory(metrics=tuple(metrics), reference=(), entries=())
    ref = (
        default_reference_point(Y)
        if reference is None
        else np.asarray(reference, dtype=float).ravel()
    )
    entries: List[FrontHistoryEntry] = []
    for t in range(n):
        prefix = Y[: t + 1]
        mask = pareto_front_mask(prefix)
        entries.append(
            FrontHistoryEntry(
                evaluation=t,
                iteration=int(iterations[t]) if iterations is not None else t,
                front_size=int(mask.sum()),
                hypervolume=hypervolume_fn(prefix[mask], ref),
                joined_front=bool(mask[t]),
                candidate=None if labels is None else labels[t],
            )
        )
    return FrontHistory(
        metrics=tuple(metrics),
        reference=tuple(float(v) for v in ref),
        entries=tuple(entries),
    )


def outcome_of(fn, *args) -> object:
    """``fn(*args)``, or the type of the exception it raised."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except (ValueError, OverflowError) as error:
        return type(error)


def assert_same_history(actual, expected) -> None:
    """Bit-for-bit equality; ``repr`` makes NaN hypervolumes compare equal.

    Both sides may instead be the same exception type: Monte Carlo
    hypervolume (k >= 4) cannot sample a box with an infinite side.
    """
    if not isinstance(expected, FrontHistory):
        assert actual is expected
        return
    assert repr(actual.to_dict()) == repr(expected.to_dict())
    volumes = expected.hypervolumes()
    if not np.isnan(volumes).any() and not np.isnan(expected.reference).any():
        assert actual == expected


def seeded_stream(seed: int) -> np.ndarray:
    """A seeded objective stream with duplicates, ties and non-finite rows."""
    rng = np.random.default_rng(seed)
    k = 2 + seed % 3
    # four objectives use Monte Carlo hypervolume: keep the oracle cheap
    n = int(rng.integers(1, 60 if k < 4 else 10))
    if seed % 2:
        # coarse grid: many one-column ties and exact duplicates
        Y = rng.integers(0, 5, size=(n, k)).astype(float)
    else:
        Y = rng.uniform(size=(n, k))
    if n > 2:
        repeats = rng.integers(0, n, size=n // 4)
        Y[rng.integers(0, n, size=repeats.size)] = Y[repeats]
        Y[rng.integers(0, n), rng.integers(0, k)] = Y[rng.integers(0, n), 0]
    if seed % 5 == 0 and n > 3:
        Y[rng.integers(0, n), rng.integers(0, k)] = np.nan
    if seed % 7 == 0 and n > 3:
        Y[rng.integers(0, n), rng.integers(0, k)] = np.inf
    if seed % 11 == 0 and n > 3:
        Y[rng.integers(0, n), rng.integers(0, k)] = -np.inf
    return Y


@pytest.mark.parametrize("seed", range(200))
def test_matches_per_prefix_rebuild_on_seeded_streams(seed):
    Y = seeded_stream(seed)
    reference = None if seed % 3 else np.full(Y.shape[1], 3.5)
    labels = [f"arch-{i}" for i in range(Y.shape[0])]
    iterations = [i // 4 for i in range(Y.shape[0])]
    args = (Y, ("m",) * Y.shape[1], reference, labels, iterations)
    assert_same_history(
        outcome_of(compute_front_history, *args),
        outcome_of(front_history_oracle, *args),
    )


_VALUES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
    st.floats(min_value=0.0, max_value=3.0),
    st.sampled_from([np.inf, -np.inf, np.nan]),
)


@st.composite
def objective_streams(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    rows = draw(
        st.lists(
            st.lists(_VALUES, min_size=k, max_size=k),
            min_size=1,
            max_size=25 if k < 4 else 8,
        )
    )
    # re-offer some earlier rows so exact duplicates arrive later in the stream
    for index in draw(st.lists(st.integers(0, len(rows) - 1), max_size=5)):
        rows.append(list(rows[index]))
    reference = draw(
        st.none()
        | st.lists(st.floats(min_value=0.5, max_value=3.5), min_size=k, max_size=k)
    )
    return np.array(rows, dtype=float), reference


@settings(max_examples=100, deadline=None)
@given(objective_streams(), st.booleans())
def test_matches_per_prefix_rebuild_property(stream, annotated):
    Y, reference = stream
    n = Y.shape[0]
    labels = [None if i % 3 == 0 else f"c{i}" for i in range(n)] if annotated else None
    iterations = [2 * i + 1 for i in range(n)] if annotated else None
    args = (Y, (), reference, labels, iterations)
    assert_same_history(
        outcome_of(compute_front_history, *args),
        outcome_of(front_history_oracle, *args),
    )


@pytest.mark.parametrize("seed", range(20))
def test_hypervolume_sees_the_rebuilt_front_row_for_row(seed, monkeypatch):
    """Each join scores exactly ``prefix[mask]``, rows in evaluation order."""
    Y = seeded_stream(seed)
    seen: List[np.ndarray] = []

    def recording(points, reference):
        seen.append(np.array(points, copy=True))
        return hypervolume(points, reference)

    monkeypatch.setattr(pareto, "hypervolume", recording)
    with np.errstate(all="ignore"):
        history = compute_front_history(Y)
    incremental_fronts, seen = seen, []
    with np.errstate(all="ignore"):
        front_history_oracle(Y, hypervolume_fn=recording)
    joined = [entry.joined_front for entry in history.entries]
    expected_fronts = [front for front, join in zip(seen, joined) if join]
    assert len(incremental_fronts) == len(expected_fronts)
    for actual, expected in zip(incremental_fronts, expected_fronts):
        np.testing.assert_array_equal(actual, expected)


def test_four_objectives_reuse_the_monte_carlo_value_of_an_unchanged_front():
    Y = seeded_stream(2)  # k = 4
    assert Y.shape[1] == 4
    history = compute_front_history(Y)
    assert_same_history(history, front_history_oracle(Y))
    for previous, entry in zip(history.entries, history.entries[1:]):
        if not entry.joined_front:
            assert entry.hypervolume == previous.hypervolume


def test_stored_history_of_a_random_resnet_search_matches_the_oracle():
    from repro.api import EvaluationEngine, run_search
    from repro.api.session import OBJECTIVES

    outcome = run_search(
        scenario="wifi-3mbps/jetson-tx2-gpu",
        strategy="random",
        search_space="resnet-v1",
        num_initial=30,
        num_iterations=370,
        seed=11,
        engine=EvaluationEngine(),
    )
    candidates = outcome.result.candidates
    assert len(candidates) == 400
    Y = np.array([[c.metric(m) for m in OBJECTIVES] for c in candidates])
    expected = front_history_oracle(
        Y,
        OBJECTIVES,
        labels=[c.architecture_name for c in candidates],
        iterations=[c.iteration for c in candidates],
    )
    assert outcome.front_history == expected
    assert outcome.front_history.to_dict() == expected.to_dict()
