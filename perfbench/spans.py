"""Span recording from outside the program.

The benchmark times the program's layers without touching ``src/``: it
replaces the public functions and methods a search calls with wrappers that
record a span (name, start, end, parent) around each call, and counters at
the same boundaries.  Spans stay in memory; :func:`self_times` and
:func:`layer_totals` turn them into per-layer numbers after the run.

A span's *self time* is its duration minus the part of its interval that its
child spans cover.  Within one thread the self times of a span tree add up to
the root's duration, which is how the benchmark checks that nothing is lost.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    """One timed call: ``parent`` is the index of the enclosing span, or -1."""

    name: str
    start: float
    end: float
    parent: int


class Recorder:
    """Collects spans and counters for one traced process (single-threaded)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index] = self.spans[index]._replace(end=self.clock())

    def wrap(
        self,
        name: str,
        fn: Callable,
        counter: Optional[Callable[[tuple, dict, object], Dict[str, float]]] = None,
    ) -> Callable:
        """``fn`` recording a span per call; ``counter`` adds named counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.counts[key] += amount
            return result

        return wrapper


def _covered(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def descendants(spans: Sequence[Span], root: int) -> List[int]:
    """Indices of ``root`` and every span below it."""
    inside = {root}
    for i in range(root + 1, len(spans)):  # children are recorded after parents
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


def layer_totals(
    spans: Sequence[Span], indices: Optional[Sequence[int]] = None
) -> Dict[str, Dict[str, float]]:
    """``{name: {"calls", "self_s", "total_s"}}`` over the chosen spans."""
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    for i in range(len(spans)) if indices is None else indices:
        entry = totals[spans[i].name]
        entry["calls"] += 1
        entry["self_s"] += own[i]
        entry["total_s"] += spans[i].end - spans[i].start
    return dict(totals)


# ---------------------------------------------------------------------- patching

class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        # None: the attribute was inherited, so restoring deletes it
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def method(self, recorder: Recorder, name: str, cls: type, attr: str, counter=None) -> None:
        """Wrap ``cls.attr`` as found through the MRO, installed on ``cls``."""
        for klass in cls.__mro__:
            if attr in klass.__dict__:
                raw = klass.__dict__[attr]
                break
        else:
            raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(recorder.wrap(name, raw.__func__, counter))
        else:
            wrapped = recorder.wrap(name, raw, counter)
        self.set(cls, attr, wrapped)

    def function(self, recorder: Recorder, name: str, fn: Callable, counter=None) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that binds it."""
        wrapped = recorder.wrap(name, fn, counter)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


def _rows(args, kwargs, result) -> Dict[str, float]:
    return {"optim.acquisition.rows": float(len(result))}  # one score row per candidate


def _pool_size(args, kwargs, result) -> Dict[str, float]:
    return {"core.evaluate_pool.candidates": float(len(result))}


def _neighbours(args, kwargs, result) -> Dict[str, float]:
    return {"nn.neighbor.candidates": float(len(result))}


def instrument(recorder: Recorder, space_cls: type) -> Patches:
    """Wrap every layer boundary a search crosses; returns the undo handle.

    ``space_cls`` is the concrete class of the search space the search
    decodes with; accuracy is the API's default analytic surrogate.  Span
    names are the per-layer metric prefixes the benchmark reports.
    """
    from repro.accuracy.surrogate import AccuracySurrogate
    from repro.api.engine import EvaluationEngine
    from repro.core.evaluation import PartitionAwareEvaluator
    from repro.hardware.predictors import LayerPerformancePredictor
    from repro.optim import acquisition, epdc, pareto
    from repro.optim.gp_bank import GPBank
    from repro.partition.partitioner import PartitionAnalyzer

    patches = Patches()
    for name, cls, attr, counter in (
        ("api.engine.evaluate_batch", EvaluationEngine, "evaluate_batch", None),
        ("core.evaluate_pool", PartitionAwareEvaluator, "evaluate_pool", _pool_size),
        ("nn.sample", PartitionAwareEvaluator, "sample_fn", None),
        ("nn.neighbor", PartitionAwareEvaluator, "neighbor_fn", _neighbours),
        ("nn.features", PartitionAwareEvaluator, "feature_fn", None),
        ("nn.decode", space_cls, "decode_for_accuracy", None),
        ("nn.decode", space_cls, "decode_for_performance", None),
        ("optim.gp_bank.update", GPBank, "update", None),
        ("optim.gp_bank.refresh", GPBank, "refresh_lengthscales", None),
        ("hardware.train", LayerPerformancePredictor, "train_for_device", None),
        ("hardware.predict_pool", LayerPerformancePredictor, "predict_pool", None),
        ("partition.evaluate_batch", PartitionAnalyzer, "evaluate_batch", None),
        ("partition.evaluate", PartitionAnalyzer, "evaluate", None),
        ("accuracy.error_percent", AccuracySurrogate, "error_percent", None),
    ):
        patches.method(recorder, name, cls, attr, counter)
    for name, fn, counter in (
        ("optim.acquisition", acquisition.acquisition_scores, _rows),
        ("optim.select_batch", epdc.select_batch, None),
        ("optim.pareto.front_mask", pareto.pareto_front_mask, None),
        ("optim.pareto.front_history", pareto.compute_front_history, None),
    ):
        patches.function(recorder, name, fn, counter)
    return patches
